"""Simulators for the matching upper-bound algorithms, with exact query accounting.

Three classical samplers and four quantum procedures.  The quantum ones
never touch an n-dimensional statevector: their dynamics provably stay
in a two-dimensional invariant subspace (rotation picture), and the
phase-estimation subroutine is sampled from its exact closed-form
outcome distribution, so desk-scale n up to 1e6 costs nothing while the
query tallies stay exact.  That distribution and its CDF are built in
place, holding at most three float arrays of the grid size at once.

Each procedure is one function, named as on the command line
(`PROCEDURES` maps the names to them).  It validates its parameters once
and returns the set-up ``(k, k_prime, resource, single)``: one run
``single(rng, size) -> (decision, statistic, cost)`` spends ``cost`` units
of ``resource`` (one of `RESOURCES`) and nothing else.  `trial` runs a
set-up once: it draws the hidden-set size, repeats the run against that
one set, takes the majority vote and sums the costs; a run with decision
``None`` failed.  `run_batch` sets a named procedure up once and runs
many trials, each with the outcome `trial` gives it, so one trial of
coupon counting reads ``trial(coupon(k, eps, budget), seed)``.  A batch
holds one `TrialOutcome` per trial and, beside those, only the generator
words of one block of at most `BLOCK_RUNS` runs.

Determinism contract: trial i of a batch with master seed ``seed`` runs
on a generator bit-identical to ``np.random.default_rng((seed, i))``.
`_child_states` derives a block of those states at once, as uint64 word
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

DECIDE_SMALL = "k"
DECIDE_LARGE = "k_prime"
# The phase grid resolves the two hypotheses' eigenphases this many times over.
GRID_MARGIN = 2.0
# Largest phase grid a set-up may ask for: its outcome distribution alone is
# 128 MiB (building it takes three such arrays), and a larger one would
# fail inside numpy instead of by name.
MAX_GRID_POINTS = 1 << 24
# Most draws one run may ask for, and most entries of the array it counts
# them in: either array is 128 MiB at the cap, and a larger one would fail
# inside numpy instead of by name.
MAX_DRAWS = 1 << 24
# Most trials one batch may run: a CLI run holds about 150 B per trial,
# so 2^20 trials reach about 0.2 GB, and a much larger batch would
# fail for memory rather than by name.
MAX_TRIALS = 1 << 20
# What a procedure spends (state copies, oracle calls), in report column order.
RESOURCES = ("copies", "state_generation", "reflections", "membership")


class TrialOutcome(NamedTuple):
    """One trial's result: it spent ``cost`` units of ``resource`` and nothing else."""

    decision: str
    correct: bool
    true_size: int
    statistic: float
    resource: str
    cost: int
    failed: bool = False


def _cap_draws(what: str, count: int) -> None:
    """Reject a run that would allocate ``count`` > MAX_DRAWS entries, before it does."""
    if count > MAX_DRAWS:
        raise ValueError(f"{what} = {count} exceeds cap MAX_DRAWS = {MAX_DRAWS}")


def _k_prime(k: int, eps: float, n: int | None = None) -> int:
    """k' = (1+eps)k for finite, positive eps; it must be whole, above k and below any n."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    try:
        k_prime = adversary.whole_k_prime(k, eps)
    except OverflowError:
        raise ValueError(f"k' = (1+eps)k overflows, with k = {k}, eps = {eps!r}") from None
    if k_prime <= 0:
        raise ValueError(f"k' = (1+eps)k = {k_prime} is not positive")
    if k_prime <= k:
        raise ValueError(f"k' = (1+eps)k = {k_prime} is not above k = {k}")
    if n is not None and k_prime >= n:
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
    the small hypothesis and the costs add up.  If every run failed,
    the trial fails with the first run's statistic; otherwise the
    statistic is the mean over all runs.  ``rng_seed`` is anything
    ``np.random.default_rng`` takes; a Generator is used as it is.
    """
    k, k_prime, resource, single = setup
    # Before the first draw, so that a rejected call leaves a Generator as it was.
    _check_pins(k, k_prime, true_size, repetitions)
    rng = np.random.default_rng(rng_seed)
    if true_size is None:
        size = k if rng.integers(2) == 0 else k_prime
    else:
        size = int(true_size)
    if repetitions == 1:
        decision, statistic, cost = single(rng, size)
    else:
        runs = [single(rng, size) for _ in range(repetitions)]
        statistic = runs[0][1]
        cost = sum(spent for _, _, spent in runs)
        decided = [decision for decision, _, _ in runs if decision is not None]
        if decided:
            statistic = float(np.mean([stat for _, stat, _ in runs]))
            large_votes = decided.count(DECIDE_LARGE)
            decision = DECIDE_LARGE if 2 * large_votes > len(decided) else DECIDE_SMALL
        else:
            decision = None
    if decision is None:
        return TrialOutcome(DECIDE_SMALL, False, size, statistic, resource, cost, True)
    truth = DECIDE_SMALL if size == k else DECIDE_LARGE
    return TrialOutcome(decision, decision == truth, size, statistic, resource, cost)


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
    k_prime = _k_prime(k, eps)
    _cap_draws("sample budget", sample_budget)
    _cap_draws("hidden-set size k'", k_prime)  # a run counts every element's draws

    def single(rng: np.random.Generator, size: int):
        draws = rng.integers(0, size, sample_budget)  # no draw at all for a zero budget
        distinct = int(np.count_nonzero(np.bincount(draws, minlength=size)))
        decision = DECIDE_SMALL if distinct <= k else DECIDE_LARGE
        return decision, float(distinct), sample_budget

    return k, k_prime, "copies", single


def collision(k: int, eps: float, sample_count: int):
    """Equal-pair counting from classical samples.

    Counts coinciding pairs among the samples; the expected count is
    binom(count, 2)/|x|, so the decision threshold sits midway between
    the two hypothesis expectations: more collisions means the small set.
    """
    if sample_count < 2:
        raise ValueError("need at least two samples")
    k_prime = _k_prime(k, eps)
    _cap_draws("sample count", sample_count)
    _cap_draws("hidden-set size k'", k_prime)  # a run counts every element's draws
    total_pairs = sample_count * (sample_count - 1) / 2.0
    midpoint = total_pairs * (1.0 / k + 1.0 / k_prime) / 2.0

    def single(rng: np.random.Generator, size: int):
        counts = np.bincount(rng.integers(0, size, sample_count))
        pairs = int(counts @ (counts - 1)) / 2.0
        decision = DECIDE_SMALL if pairs > midpoint else DECIDE_LARGE
        return decision, pairs, sample_count

    return k, k_prime, "copies", single


def overlap(n: int, k: int, eps: float, copy_count: int):
    """Measure copies against the uniform superposition over the ground set.

    Each consumed copy succeeds independently with probability |x|/n;
    the success fraction is thresholded midway between k/n and k'/n.
    """
    k_prime = _k_prime(k, eps)
    if k_prime > n:
        raise ValueError(f"hidden set size k' = {k_prime} exceeds the ground set size n = {n}")
    if copy_count < 1:
        raise ValueError("need at least one copy")
    midpoint = (k + k_prime) / (2.0 * n)

    def single(rng: np.random.Generator, size: int):
        fraction = int(rng.binomial(copy_count, size / n)) / copy_count
        decision = DECIDE_LARGE if fraction > midpoint else DECIDE_SMALL
        return decision, fraction, copy_count

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
    half the mass.  The grid is built in place: the call holds three
    arrays of M floats and one of M booleans, the result included.
    """
    if m_points < 2:
        raise ValueError("need at least a two-point grid")
    if not 0.0 <= theta <= math.pi / 2:
        raise ValueError("theta must lie in [0, pi/2]")
    omega = theta / math.pi  # eigenphase as a fraction of a full turn
    grid = np.arange(m_points, dtype=float)
    grid /= m_points
    probs = _kernel(grid - omega, m_points, work := np.empty(m_points))
    probs += _kernel(np.add(grid, omega, out=grid), m_points, work)
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
    """One set-up's phase estimation; a call ``(rng, size) -> (decision, value, cost)`` is one run.

    ``a_small_hyp``/``a_large_hyp`` are the success probabilities under
    the small/large size hypotheses (either may be the numerically
    larger one) and ``a_truth_of(size)`` the true one.  The grid is the
    smallest that separates the hypotheses, so it is sized here and an
    oversized one is refused before any trial; a run costs
    ``calls_per_rotation`` oracle calls per grid step.  The normalised
    outcome CDF depends on the true probability alone, so each
    hidden-set size builds it on its first run (`cdf`).  A run inverts
    the CDF at one ``rng.random()`` draw, as ``rng.choice(m_points,
    p=...)`` does, and `decide` reads the outcome.
    """

    def __init__(self, a_small_hyp: float, a_large_hyp: float, a_truth_of, calls_per_rotation=1):
        self.m_points = _grid_points(
            math.asin(math.sqrt(a_small_hyp)), math.asin(math.sqrt(a_large_hyp))
        )
        self.cost = calls_per_rotation * (self.m_points - 1)
        self._hypotheses = a_small_hyp, a_large_hyp
        self._a_truth_of = a_truth_of
        self._cdfs: dict = {}  # hidden-set size -> normalised outcome CDF

    def cdf(self, size: int) -> np.ndarray:
        try:
            return self._cdfs[size]
        except KeyError:
            theta = math.asin(math.sqrt(self._a_truth_of(size)))
            cdf = self._cdfs[size] = phase_estimation_distribution(theta, self.m_points)
            np.cumsum(cdf, out=cdf)
            cdf /= cdf[-1]
            return cdf

    def decide(self, outcome: int) -> tuple[str, float]:
        """Outcome m estimates sin^2(pi m / M); the nearer hypothesis wins, ties the small one."""
        a_small_hyp, a_large_hyp = self._hypotheses
        value = math.sin(math.pi * outcome / self.m_points) ** 2
        if abs(value - a_large_hyp) < abs(value - a_small_hyp):
            return DECIDE_LARGE, value
        return DECIDE_SMALL, value

    def __call__(self, rng: np.random.Generator, size: int) -> tuple[str, float, int]:
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
    return k, k_prime, oracle, _PhaseEstimation(k / n, k_prime / n, lambda size: size / n)


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
    estimate = _PhaseEstimation(ell / k, ell / k_prime, lambda size: ell / size, calls_per_rotation)
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

    estimate = _PhaseEstimation(ell / k, ell / k_prime, lambda size: ell / size, 2)

    def single(rng: np.random.Generator, size: int):
        found, consumed = _collect_distinct(ell, size, 10 * ell, rng)
        if found < ell:
            return None, float(found), consumed
        decision, value, cost = estimate(rng, size)
        return decision, value, consumed + cost

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
    estimate = _PhaseEstimation(target / k, target / k_prime, lambda size: target / size)

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
        decision, value, cost = estimate(rng, size)
        return decision, value, reflections + cost

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


# numpy.random.SeedSequence's hash constants and PCG64's LCG multiplier.
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Most runs one block of a batch draws for at once: the block's generator
# words, a few uint64 arrays of this length, are its only batch-sized
# temporaries, so a batch works in fixed memory beside its outcomes.
BLOCK_RUNS = 1024


def _uint32_words(value: int) -> list[int]:
    """``value``'s 32-bit words, least significant first, as SeedSequence splits it."""
    if value < 0:
        raise ValueError(f"seed must be nonnegative, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hashmix(value: np.ndarray, hash_const: int, mult: int) -> tuple[np.ndarray, int]:
    # The constant's sequence does not depend on the data, so it stays a
    # Python int; the uint32 arrays wrap like SeedSequence's uint32_t.
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const
    return value ^ (value >> 16), hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def _mul_add(x, mult: int, add):
    """``x * mult + add`` mod 2^128, on (high, low) pairs of uint64 arrays; ``mult`` is an int.

    The low words' full product is summed from 32-bit limb products, which
    cannot overflow; the low word's carry is read by comparison.
    """
    x_hi, x_lo = x
    add_hi, add_lo = add
    m_hi, m_lo = np.uint64(mult >> 64 & _MASK64), np.uint64(mult & _MASK64)
    m1, m0 = np.uint64(mult >> 32 & _MASK32), np.uint64(mult & _MASK32)
    x1, x0 = x_lo >> 32, x_lo & _MASK32
    middle = (x0 * m0 >> 32) + (x1 * m0 & _MASK32) + (x0 * m1 & _MASK32)
    hi = x1 * m1 + (x1 * m0 >> 32) + (x0 * m1 >> 32) + (middle >> 32)
    lo = x_lo * m_lo + add_lo
    hi += x_hi * m_lo + x_lo * m_hi + add_hi + (lo < add_lo)
    return hi, lo


def _xsl_rr(state) -> np.ndarray:
    """PCG64's output at each ``(high, low)`` state: high ^ low rotated right by high >> 58."""
    hi, lo = state
    word = hi ^ lo
    rotation = hi >> 58
    return word >> rotation | word << (64 - rotation & 63)


def _child_states(seed: int, stop: int, start: int = 0):
    """``(state, inc)`` of ``np.random.default_rng((seed, i)).bit_generator`` for start <= i < stop.

    Each is a (high, low) pair of uint64 arrays, one entry per trial.
    SeedSequence hashes the entropy words [seed words..., i] into a pool
    of four words and draws 4 uint64 from it; PCG64 seeds its 128-bit
    state and increment from those.  This runs both steps on all the
    indices at once.  Such a generator also has ``has_uint32 = uinteger = 0``.
    """
    if stop > 1 << 32:
        raise ValueError(f"trial indices must fit one 32-bit word, got {stop} trials")
    entropy = [np.full(stop - start, word, dtype=np.uint32) for word in _uint32_words(seed)]
    entropy.append(np.arange(start, stop, dtype=np.uint32))
    hash_const = _INIT_A
    pool = []
    for word in range(_POOL_SIZE):
        source = entropy[word] if word < len(entropy) else np.zeros(stop - start, np.uint32)
        value, hash_const = _hashmix(source, hash_const, _MULT_A)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for source in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(source, hash_const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    hash_const = _INIT_B
    words = []
    for word in range(8):
        value, hash_const = _hashmix(pool[word % _POOL_SIZE], hash_const, _MULT_B)
        words.append(value.astype(np.uint64))
    # Little-endian pairs of words make the uint64 seed[0..3]; PCG64 reads
    # seed[0], seed[1] as its initial state's high and low words and
    # seed[2], seed[3] as its stream's.
    seeds = [words[word] | words[word + 1] << 32 for word in range(0, 8, 2)]
    initial, stream = seeds[:2], seeds[2:]
    # pcg_setseq_128_srandom_r: inc = 2 stream + 1, then two LCG steps
    # with the initial state added after the first.
    inc = (stream[0] << 1 | stream[1] >> 63, stream[1] << 1 | 1)
    return _mul_add(_mul_add(initial, 1, inc), _PCG64_MULT, inc), inc


def _draw_sizes(state, inc):
    """Each trial's ``rng.integers(2)``: ``(state, large, buffered)`` after one LCG step.

    The draw reads bit 31 of one output's low half, and the generator keeps
    the high half (``has_uint32 = 1``, ``uinteger = buffered``) for later.
    """
    state = _mul_add(state, _PCG64_MULT, inc)
    word = _xsl_rr(state)
    return state, (word >> 31 & 1).astype(bool), word >> 32


def _estimate_block(setup, state, inc, large, repetitions: int) -> list[TrialOutcome]:
    """`trial` on a block at once, for a set-up whose run is one `_PhaseEstimation` call.

    Such a run reads one ``rng.random()``, one LCG step, so the block
    draws every run's uniform together and searches each hidden size's CDF
    once.  Each distinct outcome goes through `_PhaseEstimation.decide`
    once; the vote and the mean statistic are those of `trial`.
    """
    k, k_prime, resource, estimate = setup
    uniforms = np.empty((len(large), repetitions))
    for run in range(repetitions):
        state = _mul_add(state, _PCG64_MULT, inc)
        uniforms[:, run] = (_xsl_rr(state) >> 11) * 2.0**-53  # numpy's next_double
    outcomes = np.empty(uniforms.shape, dtype=np.intp)
    for size, rows in ((k, ~large), (k_prime, large)):
        if rows.any():
            outcomes[rows] = estimate.cdf(size).searchsorted(uniforms[rows], side="right")
    distinct, where = np.unique(outcomes.ravel(), return_inverse=True)
    where = where.reshape(outcomes.shape)
    decided = [estimate.decide(outcome) for outcome in distinct.tolist()]
    votes = np.array([decision == DECIDE_LARGE for decision, _ in decided])[where]
    values = np.array([value for _, value in decided])[where]
    says_large = 2 * np.count_nonzero(votes, axis=1) > repetitions
    decisions, sizes = (DECIDE_SMALL, DECIDE_LARGE), (k, k_prime)
    cost = repetitions * estimate.cost
    trials = zip(large.tolist(), says_large.tolist(), values.mean(axis=1).tolist())
    return [
        TrialOutcome(decisions[said], said == big, sizes[big], statistic, resource, cost)
        for big, said, statistic in trials
    ]


def _trial_block(setup, state, inc, large, buffered, repetitions: int) -> list[TrialOutcome]:
    """`trial` on each trial of a block, on one generator set to that trial's state.

    ``buffered`` holds the half output each trial's size draw left for its
    next 32-bit draw, or is None where no size was drawn.
    """
    k, k_prime = setup[:2]
    rng = np.random.Generator(np.random.PCG64(0))
    # One state dict for the block; only its integers change.
    pcg = {"state": 0, "inc": 0}
    generator = {"bit_generator": "PCG64", "state": pcg, "has_uint32": int(buffered is not None)}
    halves = [0] * len(large) if buffered is None else buffered.tolist()
    outcomes = []
    for state_hi, state_lo, inc_hi, inc_lo, big, half in zip(
        *(words.tolist() for words in (*state, *inc, large)), halves
    ):
        pcg["state"], pcg["inc"] = state_hi << 64 | state_lo, inc_hi << 64 | inc_lo
        generator["uinteger"] = half
        rng.bit_generator.state = generator
        outcomes.append(trial(setup, rng, k_prime if big else k, repetitions))
    return outcomes


def run_batch(procedure: str, params: dict, trials: int, seed: int) -> list[TrialOutcome]:
    """Independent trials of a named procedure with keyword parameters.

    The parameters are checked once.  Trial i runs on the generator
    ``np.random.default_rng((seed, i))``.  The trials go in blocks of at
    most BLOCK_RUNS runs: `_child_states` seeds a block's generators as
    word arrays, and one vectorised step draws their hidden sizes unless
    ``true_size`` pins them.  A set-up whose run is a `_PhaseEstimation`
    alone runs the whole block at once (`_estimate_block`); any other runs
    each trial through `trial` (`_trial_block`).  More than MAX_TRIALS
    trials raise before anything is allocated.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if trials > MAX_TRIALS:
        raise ValueError(f"{trials} trials exceed cap MAX_TRIALS = {MAX_TRIALS}")
    if procedure not in PROCEDURES:
        raise ValueError(f"unknown procedure {procedure!r}; known: {tuple(PROCEDURES)}")
    params = dict(params)
    true_size = params.pop("true_size", None)
    repetitions = params.pop("repetitions", 1)
    setup = PROCEDURES[procedure](**params)
    k, k_prime, _, single = setup
    _check_pins(k, k_prime, true_size, repetitions)
    block = max(1, BLOCK_RUNS // repetitions)
    outcomes = []
    for start in range(0, trials, block):
        state, inc = _child_states(seed, min(start + block, trials), start)
        if true_size is None:
            state, large, buffered = _draw_sizes(state, inc)
        else:
            large, buffered = np.full(len(inc[0]), true_size == k_prime), None
        if isinstance(single, _PhaseEstimation):
            outcomes += _estimate_block(setup, state, inc, large, repetitions)
        else:
            outcomes += _trial_block(setup, state, inc, large, buffered, repetitions)
    return outcomes


def aggregate(outcomes) -> dict:
    """Success rate with binomial standard error, plus the mean cost of each resource."""
    trials = correct = failed = 0
    spent = dict.fromkeys(RESOURCES, 0)
    for trials, out in enumerate(outcomes, 1):
        correct += out.correct
        failed += out.failed
        spent[out.resource] += out.cost
    if trials == 0:
        raise ValueError("nothing to aggregate")
    rate = correct / trials
    return {
        "trials": trials,
        "success_rate": rate,
        "standard_error": math.sqrt(rate * (1.0 - rate) / trials),
        "failure_rate": failed / trials,
        **{f"mean_{resource}": total / trials for resource, total in spent.items()},
    }
