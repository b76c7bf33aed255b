"""Simulators for the matching upper-bound algorithms, with exact query accounting.

Three classical samplers and four quantum procedures.  The quantum ones
never touch an n-dimensional statevector: their dynamics provably stay
in a two-dimensional invariant subspace (rotation picture), and the
phase-estimation subroutine is sampled from its exact closed-form
outcome distribution, so desk-scale n up to 1e6 costs nothing while the
query tallies stay exact.  That distribution and its CDF are built in
place, in one float array of the grid size.

Each procedure is one function, named as on the command line
(`PROCEDURES` maps the names to them).  It validates its parameters once
and returns the set-up ``(k, k_prime, resource, single)``: one run
``single(rng, size) -> (says_large, statistic, cost)`` spends ``cost``
units of ``resource`` (one of `RESOURCES`) and nothing else, and says
whether it decided for k' (a bool), or None if it failed.  `trial` runs a
set-up once: it draws the hidden-set size, repeats the run against that
one set, takes the majority vote and sums the costs.  `run_batch` sets a
named procedure up once and runs many trials, each with the outcome
`trial` gives it, so one trial of coupon counting reads
``trial(coupon(k, eps, budget), seed)``.  A batch is a `Batch` of
columns, 19 B per trial, and a `TrialOutcome` is one row of them; beside
them a batch holds only the generator words and outcomes of one block of
at most `BLOCK_RUNS` runs, and it makes at most `MAX_TRIALS` runs.

Determinism contract: trial i of a batch with master seed ``seed`` runs
on a generator bit-identical to ``np.random.default_rng((seed, i))``.
`_pcg64` derives a block of those states at once, as uint64 word
arrays; `run_batch` steps them to draw each trial's hidden size as
``rng.integers(2)`` does and, for a set-up whose run is one phase
estimation, to draw each run's ``rng.random()``.  The tests compare the
words with ``default_rng`` on the installed numpy, and every batch with
`trial`.  Equal seeds therefore reproduce equal outcome streams bit for
bit.  A run that draws until a stopping point draws in blocks of exactly
the count it still needs (`_collect_distinct`: the distinct elements
missing, capped by the budget left; `bootstrap`: one draw per remaining
growth stage).  A block of draws yields the values of successive single
draws, and no block holds a draw past the stopping point, so the
generator ends where drawing one at a time would; only a terminal
bootstrap failure, which can stop inside a block, rewinds to the state
saved before the block and redraws what it read.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import adversary
from ._pcg64 import _child_states, _doubles, _draw_sizes, _generators

# The phase grid resolves the two hypotheses' eigenphases this many times over.
GRID_MARGIN = 2.0
# Largest phase grid a set-up may ask for: its outcome distribution alone is
# 128 MiB, and a larger one would fail inside numpy instead of by name.
MAX_GRID_POINTS = 1 << 24
# Most draws one run may ask for, and most entries of the array it counts
# them in: either array is 128 MiB at the cap, and a larger one would fail
# inside numpy instead of by name.
MAX_DRAWS = 1 << 24
# Most runs, trials times repetitions, one batch may make.  A CLI run holds
# its columns, 19 B per trial, and one block's temporaries, so 2^20 trials
# peak under 60 MB RSS; the cap bounds the run's time, 1-6 s at 2^20 runs
# on 2 CPUs.
MAX_TRIALS = 1 << 20
# What a procedure spends (state copies, oracle calls), in report column order.
RESOURCES = ("copies", "state_generation", "reflections", "membership")


class TrialOutcome(NamedTuple):
    """One trial's row of the per-trial `Batch` columns, in their order."""

    large: bool
    says_large: bool
    failed: bool
    statistic: float
    cost: int


def _cap_draws(what: str, count: int) -> None:
    """Reject a run that would allocate ``count`` > MAX_DRAWS entries, before it does."""
    if count > MAX_DRAWS:
        raise ValueError(f"{what} = {count} exceeds cap MAX_DRAWS = {MAX_DRAWS}")


def _k_prime(k: int, eps: float, n: int) -> int:
    """`adversary.k_prime`, which must also lie below n."""
    k_prime = adversary.k_prime(k, eps)
    if k_prime >= n:
        raise ValueError("need k' < n")
    return k_prime


def _check_pins(k: int, k_prime: int, true_size: int | None, repetitions: int) -> None:
    """Reject fewer than one repetition, or a pinned hidden size other than k and k'."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if true_size is not None and true_size not in (k, k_prime):
        raise ValueError(f"true_size must be {k} or {k_prime}, got {true_size}")


def trial(setup, rng_seed, true_size: int | None = None, repetitions: int = 1) -> TrialOutcome:
    """One trial of ``setup = (k, k_prime, resource, single)``: draw the hidden set, run, vote.

    All ``repetitions`` runs share one generator and one hidden set of
    size k or k' (drawn fairly unless ``true_size`` pins it).  Ties go to
    the small hypothesis; the costs add up, and a sum past the int64
    ``cost`` column is refused.  If every run failed, the trial fails,
    says small and keeps the first run's statistic; otherwise the
    statistic is the mean over all runs.  ``rng_seed`` is anything
    ``np.random.default_rng`` takes; a Generator is used as it is.
    """
    k, k_prime, _, single = setup
    # Before the first draw, so that a rejected call leaves a Generator as it was.
    _check_pins(k, k_prime, true_size, repetitions)
    rng = np.random.default_rng(rng_seed)
    large = bool(rng.integers(2)) if true_size is None else true_size == k_prime
    size = k_prime if large else k
    if repetitions == 1:
        says_large, statistic, cost = single(rng, size)
    else:
        runs = [single(rng, size) for _ in range(repetitions)]
        statistic = runs[0][1]
        cost = sum(spent for _, _, spent in runs)
        decided = [says for says, _, _ in runs if says is not None]
        says_large = None
        if decided:
            statistic = float(np.mean([stat for _, stat, _ in runs]))
            says_large = 2 * sum(decided) > len(decided)
    if cost >= 2**63:
        raise ValueError(f"summed cost {cost} exceeds the cost column's int64 limit 2^63 - 1")
    return TrialOutcome(large, bool(says_large), says_large is None, statistic, cost)


# ---------------------------------------------------------------------------
# Classical samplers.
# ---------------------------------------------------------------------------


def coupon(k: int, eps: float, sample_budget: int):
    """Distinct-element counting from classical samples.

    Draws the whole budget uniformly from the hidden set and reports the
    small size iff at most k distinct elements were seen.  Never errs on
    the small hypothesis (one-sided).
    """
    if sample_budget < 0:
        raise ValueError("sample budget must be nonnegative")
    k_prime = adversary.k_prime(k, eps)
    _cap_draws("sample budget", sample_budget)
    _cap_draws("hidden-set size k'", k_prime)  # a run counts every element's draws

    def single(rng: np.random.Generator, size: int):
        draws = rng.integers(0, size, sample_budget)  # no draw at all for a zero budget
        distinct = int(np.count_nonzero(np.bincount(draws, minlength=size)))
        return distinct > k, float(distinct), sample_budget

    return k, k_prime, "copies", single


def collision(k: int, eps: float, sample_count: int):
    """Equal-pair counting from classical samples.

    Counts coinciding pairs among the samples; the expected count is
    binom(count, 2)/|x|, so the decision threshold sits midway between
    the two hypothesis expectations: more collisions means the small set.
    """
    if sample_count < 2:
        raise ValueError("need at least two samples")
    k_prime = adversary.k_prime(k, eps)
    _cap_draws("sample count", sample_count)
    _cap_draws("hidden-set size k'", k_prime)  # a run counts every element's draws
    total_pairs = sample_count * (sample_count - 1) / 2.0
    midpoint = total_pairs * (1.0 / k + 1.0 / k_prime) / 2.0

    def single(rng: np.random.Generator, size: int):
        counts = np.bincount(rng.integers(0, size, sample_count))
        pairs = int(counts @ (counts - 1)) / 2.0
        return pairs <= midpoint, pairs, sample_count

    return k, k_prime, "copies", single


def overlap(n: int, k: int, eps: float, copy_count: int):
    """Measure copies against the uniform superposition over the ground set.

    Each consumed copy succeeds independently with probability |x|/n;
    the success fraction is thresholded midway between k/n and k'/n.
    numpy draws the successes from an int64 count, so the copies must fit one.
    """
    k_prime = adversary.k_prime(k, eps)
    if k_prime > n:
        raise ValueError(f"hidden set size k' = {k_prime} exceeds the ground set size n = {n}")
    if copy_count < 1:
        raise ValueError("need at least one copy")
    if copy_count >= 2**63:
        raise ValueError(f"copy count {copy_count} exceeds the int64 limit 2^63 - 1")
    midpoint = (k + k_prime) / (2.0 * n)

    def single(rng: np.random.Generator, size: int):
        fraction = int(rng.binomial(copy_count, size / n)) / copy_count
        return fraction > midpoint, fraction, copy_count

    return k, k_prime, "copies", single


# ---------------------------------------------------------------------------
# Rotations, in the plane of the start state and the hidden-set state.
# ---------------------------------------------------------------------------


def growth_stage(known: int, size: int) -> tuple[int, float]:
    """Iteration count and success probability of one bootstrap growth stage.

    The uniform state on ``known`` elements of a hidden set of ``size``
    overlaps the hidden-set state by sin(theta) = sqrt(known/size); each
    pair of reflections about the two states rotates their plane by
    pi - 2 theta, so after r pairs a measurement lands outside the known
    subset with probability sin^2(r (pi - 2 theta)) = sin^2(2 r theta).
    r = max(1, round(pi / (4 theta))) puts 2 r theta within pi/6 of
    pi/2 whenever known <= size/2 (theta <= pi/4): r = 1 covers theta in
    [pi/6, pi/4], and for r >= 2 the gap is at most theta <= pi/6.  So
    every such stage succeeds with probability at least cos^2(pi/6) = 3/4.
    """
    theta = math.asin(math.sqrt(known / size))
    iterations = max(1, round(math.pi / (4.0 * theta)))
    return iterations, math.sin(2.0 * iterations * theta) ** 2


# ---------------------------------------------------------------------------
# Phase estimation, sampled from the exact outcome distribution.
# ---------------------------------------------------------------------------


def phase_estimation_distribution(theta: float, m_points: int) -> np.ndarray:
    """Outcome distribution of M-point phase estimation on the rotation by 2 theta.

    The rotation's eigenphases are +/- 2 theta; the estimation register
    lands on outcome m (measured phase 2 pi m / M) with the squared
    Dirichlet-kernel weight around each branch, each branch carrying
    half the mass.  The grid is built in place, 4096 points at a time: the
    call holds the result's M floats and temporaries of 4096 points.
    """
    if m_points < 2:
        raise ValueError("need at least a two-point grid")
    if not 0.0 <= theta <= math.pi / 2:
        raise ValueError("theta must lie in [0, pi/2]")
    omega = theta / math.pi  # eigenphase as a fraction of a full turn
    probs = np.empty(m_points)
    for start in range(0, m_points, 4096):
        grid = np.arange(start, min(start + 4096, m_points), dtype=float)
        grid /= m_points
        part = np.subtract(grid, omega, out=probs[start : start + len(grid)])
        _kernel(part, m_points, work := np.empty_like(grid))
        part += _kernel(np.add(grid, omega, out=grid), m_points, work)
    probs *= 0.5
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise ArithmeticError(f"outcome distribution sums to {total}")
    probs /= total
    return probs


def _kernel(offsets: np.ndarray, m_points: int, work: np.ndarray) -> np.ndarray:
    """The squared Dirichlet kernel at ``offsets``, written over them; ``work`` is scratch."""
    # The kernel has period 1; reducing into [-1/2, 1/2] first keeps the
    # sines accurate where an offset sits next to a nonzero integer.
    offsets -= np.rint(offsets, out=work)
    s = np.sin(np.multiply(np.pi, offsets, out=work), out=work)
    exact = s == 0.0
    value = np.sin(np.multiply(np.pi * m_points, offsets, out=offsets), out=offsets)
    with np.errstate(divide="ignore", invalid="ignore"):
        value /= np.multiply(m_points, s, out=s)
    np.square(value, out=value)
    value[exact] = 1.0
    return value


def _grid_points(theta_a: float, theta_b: float) -> int:
    """Smallest grid size resolving the two eigenphases with GRID_MARGIN to spare.

    A grid above MAX_GRID_POINTS raises before anything of its size is allocated.
    """
    gap = 2.0 * abs(theta_b - theta_a)
    if gap <= 0.0:
        raise ValueError("hypotheses have identical phases")
    points = math.floor(GRID_MARGIN * 2.0 * math.pi / gap) + 1
    if points > MAX_GRID_POINTS:
        raise ValueError(
            f"phase grid of {points} points exceeds cap MAX_GRID_POINTS = {MAX_GRID_POINTS}"
        )
    return max(2, points)


class _PhaseEstimation:
    """One set-up's phase estimation; a call ``(rng, size) -> (says_large, value, cost)`` is one run.

    ``a_of(size)`` is the success probability on a hidden set of ``size``,
    so ``a_of(k)`` and ``a_of(k_prime)`` are the two hypotheses' (either
    may be the numerically larger one).  The grid is the smallest that
    separates the hypotheses, so it is sized here and an oversized one is
    refused before any trial; a run costs ``calls_per_rotation`` oracle
    calls per grid step.  The normalised outcome CDF depends on the true
    probability alone, so each hidden-set size builds it on its first run
    (`cdf`).  A run inverts the CDF at one ``rng.random()`` draw, as
    ``rng.choice(m_points, p=...)`` does, and `decide` reads the outcome.
    """

    def __init__(self, k: int, k_prime: int, a_of, calls_per_rotation=1):
        self._hypotheses = a_of(k), a_of(k_prime)
        self.m_points = _grid_points(*(math.asin(math.sqrt(a)) for a in self._hypotheses))
        self.cost = calls_per_rotation * (self.m_points - 1)
        self._a_of = a_of
        self._cdfs: dict = {}  # hidden-set size -> normalised outcome CDF

    def cdf(self, size: int) -> np.ndarray:
        try:
            return self._cdfs[size]
        except KeyError:
            theta = math.asin(math.sqrt(self._a_of(size)))
            cdf = self._cdfs[size] = phase_estimation_distribution(theta, self.m_points)
            np.cumsum(cdf, out=cdf)
            cdf /= cdf[-1]
            return cdf

    def decide(self, outcome: int) -> tuple[bool, float]:
        """Outcome m estimates sin^2(pi m / M); the nearer hypothesis wins, ties the small one."""
        a_small_hyp, a_large_hyp = self._hypotheses
        value = math.sin(math.pi * outcome / self.m_points) ** 2
        return abs(value - a_large_hyp) < abs(value - a_small_hyp), value

    def __call__(self, rng: np.random.Generator, size: int) -> tuple[bool, float, int]:
        outcome = int(self.cdf(size).searchsorted(rng.random(), side="right"))
        return *self.decide(outcome), self.cost


# ---------------------------------------------------------------------------
# Quantum procedures.
# ---------------------------------------------------------------------------


def qcount(n: int, k: int, eps: float, oracle: str = "reflections"):
    """Amplitude estimation of |x|/n on the smallest grid separating the hypotheses.

    The counted resource is one controlled rotation per grid step; the
    caller selects whether the rotation is implemented from the
    reflecting oracle or from membership queries.
    """
    if oracle not in ("reflections", "membership"):
        raise ValueError("oracle must be 'reflections' or 'membership'")
    k_prime = _k_prime(k, eps, n)
    return k, k_prime, oracle, _PhaseEstimation(k, k_prime, lambda size: size / n)


def subset(n: int, k: int, eps: float, ell: int, oracle: str = "reflections"):
    """Amplitude estimation of ell/|x| when ell distinct elements are given.

    Consumes no copies; tallies the grid rotations on the selected oracle
    (two state-generation calls implement one reflection).  ell beyond
    k/2 lies outside the regime the analysis covers but is still simulated.
    """
    if not 1 <= ell <= k:
        raise ValueError(f"need 1 <= ell <= k, got ell={ell}")
    if oracle not in ("reflections", "state_generation"):
        raise ValueError("oracle must be 'reflections' or 'state_generation'")
    k_prime = _k_prime(k, eps, n)
    calls_per_rotation = 1 if oracle == "reflections" else 2
    estimate = _PhaseEstimation(k, k_prime, lambda size: ell / size, calls_per_rotation)
    return k, k_prime, oracle, estimate


def _collect_distinct(
    target: int, size: int, budget: int, rng: np.random.Generator
) -> tuple[int, int]:
    """Sample uniformly until ``target`` distinct elements are seen or the budget ends.

    Returns (distinct found, samples consumed) and leaves ``rng`` where
    drawing one sample at a time would.  A block of draws yields the same
    values as successive single draws, and each block holds exactly the
    count still missing, capped by the budget left: a draw adds at most
    one distinct element, so no block holds a draw past the stopping point.
    """
    seen: set = set()
    consumed = 0
    while len(seen) < target and consumed < budget:
        block = min(target - len(seen), budget - consumed)
        seen.update(rng.integers(0, size, block).tolist())
        consumed += block
    return len(seen), consumed


def sample_count(n: int, k: int, eps: float):
    """Obtain ceil(k^(1/3) / (2 eps^(2/3))) samples, then count against them.

    Every sample costs one state-generation call (duplicates are
    discarded; the resampling budget is 10x the target, exhaustion fails
    the trial), and each estimation rotation costs two more.
    """
    k_prime = _k_prime(k, eps, n)
    ell = math.ceil(k ** (1.0 / 3.0) / (2.0 * eps ** (2.0 / 3.0)))
    if ell > k / 2:
        raise ValueError(f"sampling stage needs ell <= k/2, got ell={ell}, k={k}")
    _cap_draws("resampling budget 10 ell", 10 * ell)

    estimate = _PhaseEstimation(k, k_prime, lambda size: ell / size, 2)

    def single(rng: np.random.Generator, size: int):
        found, consumed = _collect_distinct(ell, size, 10 * ell, rng)
        if found < ell:
            return None, float(found), consumed
        says_large, value, cost = estimate(rng, size)
        return says_large, value, consumed + cost

    return k, k_prime, "state_generation", single


def bootstrap(n: int, k: int, eps: float, retries: int = 3):
    """Grow a known subset by reflection-driven search, then count against it.

    One element of the hidden set comes free.  Each growth stage rotates
    the known-subset state toward the hidden-set state (overlap
    sin(theta) = sqrt(s/|x|)) for max(1, round(pi/(4 theta))) oracle
    reflections and then measures (see `growth_stage`); the rotated
    state has no support outside the hidden set, so landing outside the
    known subset always yields a fresh element.
    Failed stages retry up to ``retries`` extra times.  The grown subset
    of size ceil(1/eps) then feeds the known-subset counter.
    """
    if retries < 0:
        raise ValueError("retries must be nonnegative")
    k_prime = _k_prime(k, eps, n)
    target = math.ceil(1.0 / eps)
    if target > k / 2:
        raise ValueError(f"growth target {target} exceeds k/2")
    _cap_draws("growth target ceil(1/eps)", target)

    stages: dict = {}  # hidden-set size -> growth_stage(known, size) for known < target
    estimate = _PhaseEstimation(k, k_prime, lambda size: target / size)

    def single(rng: np.random.Generator, size: int):
        if size not in stages:
            stages[size] = [growth_stage(known, size) for known in range(1, target)]
        schedule = stages[size]
        reflections = stage = failures = 0  # failures: failed attempts at this stage
        # Each pass reads one draw per remaining stage; a stage's retries read
        # on in the same block, so only a terminal failure can stop inside it.
        while stage < len(schedule):
            saved = rng.bit_generator.state
            block = rng.random(len(schedule) - stage).tolist()
            for read, draw in enumerate(block, 1):
                iterations, success_probability = schedule[stage]
                reflections += iterations
                if draw < success_probability:
                    stage += 1
                    failures = 0
                elif failures < retries:
                    failures += 1
                else:
                    if read < len(block):
                        rng.bit_generator.state = saved
                        rng.random(read)
                    return None, float(stage + 1), reflections
        says_large, value, cost = estimate(rng, size)
        return says_large, value, reflections + cost

    return k, k_prime, "reflections", single


# ---------------------------------------------------------------------------
# Batch driver.
# ---------------------------------------------------------------------------

PROCEDURES = {
    "coupon": coupon,
    "collision": collision,
    "overlap": overlap,
    "qcount": qcount,
    "subset": subset,
    "sample-count": sample_count,
    "bootstrap": bootstrap,
}


# Most runs one block of a batch draws for at once: the block's generator
# words, a few uint64 arrays of this length, and the outcomes of its
# trials are its only temporaries, so a batch holds nothing per trial
# beside its columns.
BLOCK_RUNS = 1024


class Batch(NamedTuple):
    """A batch's trials as columns: entry i of each array is trial i's.

    Trial i spent ``cost[i]`` units of ``resource`` and nothing else.  A
    failed trial decided nothing, so its ``says_large`` is False.  Row i of
    the columns from ``large`` on is trial i's `TrialOutcome`; they take
    19 B per trial.
    """

    k: int
    k_prime: int
    resource: str
    large: np.ndarray  # bool: the hidden set has k' elements
    says_large: np.ndarray  # bool: the trial decided k'
    failed: np.ndarray  # bool
    statistic: np.ndarray  # float64
    cost: np.ndarray  # int64

    @property
    def correct(self) -> np.ndarray:
        return (self.says_large == self.large) & ~self.failed


def _estimate_block(setup, state, inc, large, repetitions: int):
    """`trial` on a block at once, for a set-up whose run is one `_PhaseEstimation` call.

    Such a run reads one ``rng.random()``, one LCG step, so the block
    draws every run's uniform together and searches each hidden size's CDF
    once.  Each distinct outcome goes through `_PhaseEstimation.decide`
    once; the vote and the mean statistic are those of `trial`.  Returns
    the block's `Batch` columns from ``says_large`` on, a scalar where
    every trial has the same entry.
    """
    k, k_prime, _, estimate = setup
    uniforms = _doubles(state, inc, repetitions)
    outcomes = np.empty(uniforms.shape, dtype=np.intp)
    for size, rows in ((k, ~large), (k_prime, large)):
        if rows.any():
            outcomes[rows] = estimate.cdf(size).searchsorted(uniforms[rows], side="right")
    distinct, where = np.unique(outcomes.ravel(), return_inverse=True)
    where = where.reshape(outcomes.shape)
    decided = [estimate.decide(outcome) for outcome in distinct.tolist()]
    votes = np.array([says for says, _ in decided])[where]
    values = np.array([value for _, value in decided])[where]
    says_large = 2 * np.count_nonzero(votes, axis=1) > repetitions
    return says_large, False, values.mean(axis=1), repetitions * estimate.cost


def _trial_block(setup, state, inc, large, buffered, repetitions: int):
    """`trial` on each trial of a block, on a generator set to that trial's state.

    ``buffered`` holds the half output each trial's size draw left for its
    next 32-bit draw, or is None where no size was drawn.  Returns the
    block's columns as `_estimate_block` does.
    """
    k, k_prime = setup[:2]
    outcomes = [
        trial(setup, rng, k_prime if big else k, repetitions)
        for rng, big in zip(_generators(state, inc, buffered), large.tolist())
    ]
    _, *columns = zip(*outcomes)
    return columns


def run_batch(procedure: str, params: dict, trials: int, seed: int) -> Batch:
    """Independent trials of a named procedure with keyword parameters, as a `Batch`.

    The parameters are checked once.  Trial i runs on the generator
    ``np.random.default_rng((seed, i))``.  The trials go in blocks of at
    most BLOCK_RUNS runs: `_child_states` seeds a block's generators as
    word arrays, and one vectorised step draws their hidden sizes unless
    ``true_size`` pins them.  A set-up whose run is a `_PhaseEstimation`
    alone runs the whole block at once (`_estimate_block`); any other runs
    each trial through `trial` (`_trial_block`).  Each block fills its
    slice of the columns, allocated up front.  More than MAX_TRIALS runs,
    trials times repetitions, raise before anything is allocated.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    params = dict(params)
    true_size = params.pop("true_size", None)
    repetitions = params.pop("repetitions", 1)
    if trials * repetitions > MAX_TRIALS:
        raise ValueError(
            f"{trials} trials x {repetitions} repetitions exceed cap MAX_TRIALS = {MAX_TRIALS} runs"
        )
    if procedure not in PROCEDURES:
        raise ValueError(f"unknown procedure {procedure!r}; known: {tuple(PROCEDURES)}")
    setup = PROCEDURES[procedure](**params)
    k, k_prime, resource, single = setup
    _check_pins(k, k_prime, true_size, repetitions)
    dtypes = bool, bool, bool, float, np.int64
    batch = Batch(k, k_prime, resource, *(np.empty(trials, dtype) for dtype in dtypes))
    block = max(1, BLOCK_RUNS // repetitions)
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        state, inc = _child_states(seed, stop, start)
        if true_size is None:
            state, large, buffered = _draw_sizes(state, inc)
        else:
            large, buffered = np.full(stop - start, true_size == k_prime), None
        if isinstance(single, _PhaseEstimation):
            columns = _estimate_block(setup, state, inc, large, repetitions)
        else:
            columns = _trial_block(setup, state, inc, large, buffered, repetitions)
        # The per-trial columns, ``large`` to ``cost``.
        for column, entries in zip(batch[3:], (large, *columns)):
            column[start:stop] = entries
    return batch


def aggregate(batch: Batch) -> dict:
    """Success rate with binomial standard error, plus the mean cost of each resource."""
    trials = len(batch.large)
    if trials == 0:
        raise ValueError("nothing to aggregate")
    rate = int(np.count_nonzero(batch.correct)) / trials
    spent = batch.cost.sum(dtype=object)  # exact: an int64 sum could wrap
    return {
        "trials": trials,
        "success_rate": rate,
        "standard_error": math.sqrt(rate * (1.0 - rate) / trials),
        "failure_rate": int(np.count_nonzero(batch.failed)) / trials,
        **{f"mean_{name}": (name == batch.resource) * spent / trials for name in RESOURCES},
    }
