"""Closed-form side of the certificate: coefficients, schedules, norms.

The certificate matrix is Gamma = sum_j gamma_j Phi_j with the weight
schedule gamma_j = max(1 - j/t, 0).  Its interplay with the oracle
difference operators reduces to arithmetic on plain read-only arrays:
the weights `gamma_schedule` returns, and the tables of 4-dimensional
unit vectors phi_j and phi'_j (one row per block index j, the primed
one with k' in place of k) that `phi_table` returns.  This module owns
all of that arithmetic, together with the feasibility report and the
headline trade-off evaluator, whose plain numbers `bounds` prints (the
command line writes a non-finite one as JSON null).
One kernel, `closed_rows`, gives every closed row of any run of
consecutive schedule rows: `verify`'s closed sides are maxima over one
whole-schedule call, and the feasibility report folds it over blocks of
CHUNK_ROWS rows, so a report's working memory does not grow with t.
It builds no matrix of the Johnson scheme and imports no `johnson`:
`assemble_adversary` sums given transporters, and `bruteforce` builds
them and the explicit Gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg

# Cutoff-selection constant c' in t = max(2 ell, c' ell', 1/(5 eps)).
CPRIME = 8.0
# The constant-norm requirement on the Gram power, read as D^ell/2 >= this.
FEASIBILITY_THRESHOLD = 0.25
# Rows of the schedule a feasibility report builds tables for at once, about
# 400 B each at the peak (the reflection norm's tables, bases and products).
CHUNK_ROWS = 1024
# Most rows a schedule may have.  A report holds one block of CHUNK_ROWS
# rows at a time, so the cap bounds its time, not its memory: 2^25 rows
# take about 20 s.  A longer schedule is refused before anything of its
# length is allocated.  `gamma_schedule` and `phi_table`, which build whole
# arrays, keep the same cap.
MAX_ROWS = 1 << 25


@dataclass(frozen=True)
class ProblemInstance:
    """One counting instance: distinguish |x| = k from |x| = k' inside {1..n}.

    k' = (1 + eps) k with eps = (k' - k)/k; n >= 2k' + 1 keeps every
    coefficient denominator positive and both level decompositions valid.
    The degenerate case k' = k is accepted for closed-form testing only
    (transporters and brute-force checks need k < k'; `from_eps` refuses it).
    """

    n: int
    k: int
    k_prime: int

    def __post_init__(self):
        for name in ("n", "k", "k_prime"):
            value = getattr(self, name)
            if not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not (1 <= self.k <= self.k_prime):
            raise ValueError(f"need 1 <= k <= k', got k={self.k}, k'={self.k_prime}")
        if self.n < 2 * self.k_prime + 1:
            raise ValueError(
                f"need n >= 2k'+1, got n={self.n}, k'={self.k_prime}"
            )

    @classmethod
    def from_eps(cls, n: int, k: int, eps: float) -> "ProblemInstance":
        return cls(n=n, k=k, k_prime=k_prime(k, eps))

    @property
    def eps(self) -> float:
        return (self.k_prime - self.k) / self.k

    @property
    def theorem_regime(self) -> bool:
        """Whether (n, k, eps) sits in the headline-statement regime."""
        return self.n >= 5 * self.k and 1.0 / self.k <= self.eps <= 1.0


def k_prime(k: int, eps: float) -> int:
    """k' = (1 + eps) k for finite, positive eps: a whole number above k.

    The round-off allowed is 1e-9 relative to k' (absolute below k' = 1):
    (1 + 0.1) * 10**8 evaluates to 110000000.00000001 and still names 110000000.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    try:
        value = (1.0 + eps) * k
        rounded = round(value)
    except OverflowError:
        raise ValueError(f"k' = (1+eps)k overflows, with k = {k}, eps = {eps!r}") from None
    if abs(value - rounded) > 1e-9 * max(1.0, abs(value)):
        raise ValueError(f"(1+eps)k = {value} is not an integer")
    if rounded <= k:
        raise ValueError(f"k' = (1+eps)k = {rounded} is not above k = {k}")
    return rounded


def phi_components(n: int, size: int, j) -> np.ndarray:
    """The four coefficients attached to block j on the level of `size`-subsets.

    Component i is the weight of channel i in the decomposition of the
    superposition isometry of that level:

        c0 = sqrt( j (size-j+1) (n-size-j+1) / ((n-2j+2)(n-2j+1) size) )
        c1 = sqrt( size / n )
        c2 = (n-2 size)/sqrt(n size) * sqrt( j (n-j+1) / ((n-2j+2)(n-2j)) )
        c3 = sqrt( (n-j+1) (size-j) (n-size-j) / ((n-2j+1)(n-2j) size) )

    The vector (c0, c1, c2, c3) has unit norm whenever 0 <= j <= size
    and n > 2 size.  A scalar j gives shape (4,); an array of block
    indices gives one row per index, shape (len(j), 4).  No product
    exceeds (n+2)^2 size, so a level where that overflows is rejected.
    """
    j = np.asarray(j)
    if np.any(j < 0) or np.any(j > size):
        raise ValueError(f"need 0 <= j <= size, got j={j}, size={size}")
    if n <= 2 * size:
        raise ValueError(f"need n > 2*size, got n={n}, size={size}")
    j = j.astype(float)
    n, s = float(n), float(size)
    if not math.isfinite((n + 2.0) * (n + 2.0) * s):
        raise ValueError(f"(n+2)^2 * size overflows float64 at n={n:.6g}, size={s:.6g}")
    c0 = np.sqrt(j * (s - j + 1) * (n - s - j + 1) / ((n - 2 * j + 2) * (n - 2 * j + 1) * s))
    c1 = np.full_like(j, math.sqrt(s / n))
    c2 = (n - 2 * s) / math.sqrt(n * s) * np.sqrt(
        j * (n - j + 1) / ((n - 2 * j + 2) * (n - 2 * j))
    )
    c3 = np.sqrt((n - j + 1) * (s - j) * (n - s - j) / ((n - 2 * j + 1) * (n - 2 * j) * s))
    return np.stack([c0, c1, c2, c3], axis=-1)


def _cap_rows(rows: int) -> None:
    """Reject a schedule or table of ``rows`` > MAX_ROWS rows, before it is allocated."""
    if rows > MAX_ROWS:
        raise ValueError(f"{rows} rows exceed cap MAX_ROWS = {MAX_ROWS}")


def phi_table(inst: ProblemInstance, stop: int, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (phi, phi_prime): rows j = start..stop-1 (stop at most k + 1) for levels k and k'."""
    _cap_rows(stop - start)
    j = np.arange(start, stop)
    return (
        linalg.freeze(phi_components(inst.n, inst.k, j)),
        linalg.freeze(phi_components(inst.n, inst.k_prime, j)),
    )


def live_rows(t: float, k: int) -> int:
    """How many weights the schedule keeps, j = 0..min(k, floor(t) + 1); at most MAX_ROWS."""
    if not t >= 1:
        raise ValueError(f"cutoff parameter must satisfy t >= 1, got {t}")
    live = min(k, math.floor(min(t, k)) + 1) + 1
    _cap_rows(live)
    return live


def _weights(t: float, start: int, stop: int) -> np.ndarray:
    return np.maximum(1.0 - np.arange(start, stop) / t, 0.0)


def gamma_schedule(t: float, k: int) -> np.ndarray:
    """The live weights gamma_j = max(1 - j/t, 0), j = 0..min(k, floor(t) + 1), read-only.

    Every index outside the array, j = -1 and j > k included, reads as 0.
    A later row j has g_{j-1} = g_j = g_{j+1} = 0, since j - 1 > t, so
    it adds exact zeros to Gamma and to the three difference norms.
    """
    return linalg.freeze(_weights(t, 0, live_rows(t, k)))


def tilde_tables(gammas, phi, phi_prime, before=0.0, after=0.0) -> tuple[np.ndarray, np.ndarray]:
    """Gamma-weighted coefficient vectors, one row per weight.

    Row j of each output is (g_{j-1} c0, g_j c1, g_j c2, g_{j+1} c3) for
    the corresponding row of phi or phi_prime, which have as many rows as
    there are weights.  ``before`` and ``after`` are the weights just
    outside ``gammas``, both 0 for a whole schedule.
    """
    g = np.concatenate(([before], gammas, [after]))
    weights = np.stack([g[:-2], g[1:-1], g[1:-1], g[2:]], axis=1)
    return weights * phi, weights * phi_prime


def assemble_adversary(gammas, transporters) -> np.ndarray:
    """Gamma = sum_j gamma_j Phi_j over the given weights; transporters[j] is Phi_j.

    The matrices must agree in shape; they add into zeros in order of j.
    """
    transporters = list(transporters)
    if len(transporters) != len(gammas):
        raise ValueError(
            f"need {len(gammas)} transporters, one per weight, got {len(transporters)}"
        )
    out = np.zeros(transporters[0].shape)
    for g, phi in zip(gammas, transporters):
        if phi.shape != out.shape:
            raise ValueError("transporters differ in shape")
        out += g * phi
    return out


def hadamard_psi_step(coeffs, inst: ProblemInstance) -> np.ndarray:
    """One entrywise product with the overlap Gram matrix, on coefficients.

    If M = sum_j c_j Phi_j then M had-product Psi = sum_j c'_j Phi_j with

        c'_j = c_{j-1} p_{j,0} q_{j,0} + c_j (p_{j,1} q_{j,1} + p_{j,2} q_{j,2})
               + c_{j+1} p_{j,3} q_{j,3},

    where p/q are the plain and primed coefficient rows and out-of-range
    c read as 0, missing trailing ones included.  The result has all
    k + 1 coefficients.  Iterating ell times yields the coefficients of
    the ell-fold entrywise power.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    k = inst.k
    if coeffs.ndim != 1 or len(coeffs) > k + 1:
        raise ValueError(f"need at most {k + 1} coefficients, got shape {coeffs.shape}")
    coeffs = np.pad(coeffs, (0, k + 1 - len(coeffs)))
    phi, phi_prime = phi_table(inst, k + 1)
    prod = phi * phi_prime  # entrywise p_{j,i} q_{j,i}
    out = coeffs * (prod[:, 1] + prod[:, 2])
    out[1:] += coeffs[:-1] * prod[1:, 0]
    out[:-1] += coeffs[1:] * prod[:-1, 3]
    return out


def gram_power_rows(inst: ProblemInstance, t: float, ell: int) -> int:
    """How many rows, j = 0..min(ell, k), the Gram-power bound reads; it needs t >= 2 ell."""
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    if t < 2 * ell:
        raise ValueError(f"bound needs t >= 2*ell, got t={t}, ell={ell}")
    return min(ell, inst.k) + 1


def gram_power_bound(d: float, ell: int) -> float:
    """Certified lower bound D^ell / 2 for the ell-fold entrywise Gram power (t >= 2 ell).

    D is the smallest overlap phi_j . phi'_j (`closed_rows`) of the `gram_power_rows` rows.
    """
    return d**ell / 2.0


def _row_past_k(g_k, inst: ProblemInstance) -> float:
    """The row of block k+1, which only the k' level has: g_k c0'_{k+1}.

    There tilde'_{k+1} = (g_k c0'_{k+1}, 0, 0, 0) and the level-k terms
    vanish, so the row reads g_k c0'_{k+1} in the forward state-generation
    norm and, phi'_{k+1} being a unit vector, in the reflection norm too;
    c0'_{k+1}^2 = (k+1)(k'-k)(n-k'-k) / ((n-2k)(n-2k-1) k').  It is 0 unless
    t > k, the only case in which the weight g_k of row k is positive.
    """
    if g_k == 0.0 or inst.k_prime == inst.k:
        return 0.0
    return float(g_k * phi_components(inst.n, inst.k_prime, inst.k + 1)[0])


def _rowwise_dot(a, b) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def reflection_row_norms(phi, phi_prime, tilde, tilde_prime) -> np.ndarray:
    """Spectral norm of B_j = phi'_j tilde'_j^T - tilde_j phi_j^T for each row j.

    The rows of B_j lie in span{phi_j, tilde'_j}, so with an orthonormal
    basis Q_j = [q1, q2] of that span ||B_j|| = ||B_j Q_j||.  q1 is
    phi_j / ||phi_j|| and q2 the residual of tilde'_j against q1 after two
    Gram-Schmidt passes, normalised (0 where that residual is 0).  B_j Q_j
    is summed one column of B_j at a time, each entry the same difference
    of products as in B_j, and ||B_j||^2 is the larger eigenvalue of the
    2x2 Gram matrix G of B_j Q_j:
    (g11 + g22)/2 + sqrt(((g11 - g22)/2)^2 + g12^2).
    """
    q1 = phi / np.sqrt(_rowwise_dot(phi, phi))[:, None]
    q2 = tilde_prime
    for _ in range(2):
        q2 = q2 - _rowwise_dot(q1, q2)[:, None] * q1
    size = np.sqrt(_rowwise_dot(q2, q2))[:, None]
    q2 = np.divide(q2, size, out=np.zeros_like(q2), where=size > 0.0)
    bq1 = np.zeros_like(phi)
    bq2 = np.zeros_like(phi)
    for m in range(phi.shape[1]):
        column = phi_prime * tilde_prime[:, m, None] - tilde * phi[:, m, None]
        bq1 += column * q1[:, m, None]
        bq2 += column * q2[:, m, None]
    g11, g22, g12 = _rowwise_dot(bq1, bq1), _rowwise_dot(bq2, bq2), _rowwise_dot(bq1, bq2)
    return np.sqrt((g11 + g22) / 2.0 + np.hypot((g11 - g22) / 2.0, g12))


class ClosedRows(NamedTuple):
    """Closed rows j = start..stop-1; a norm of Gamma is the maximum of its array.

    ``forward`` and ``reflection`` hold one more entry, the k' level's block
    k+1 (``_row_past_k``), when the rows end at row k.
    """

    forward: np.ndarray  # ||tilde'_j - g_j phi_j||, state generation
    reverse: np.ndarray  # ||g_j phi'_j - tilde_j||
    reflection: np.ndarray  # ||phi'_j tilde'_j^T - tilde_j phi_j^T|| (``reflection_row_norms``)
    membership: np.ndarray  # any single-element membership difference
    gamma: np.ndarray  # |g_j|
    overlap: np.ndarray  # phi_j . phi'_j, rounded as ``p @ q`` rounds it


def closed_rows(inst: ProblemInstance, t: float, start: int, stop: int) -> ClosedRows:
    """Every closed row j = start..stop-1 of the schedule at cutoff t.

    The weights just outside the block come from t, so a block's rows carry
    the bits they have in the whole schedule.  The membership row is the larger of
      | sqrt((k-j)(n-k'-j)) g_j - sqrt((k'-j)(n-k-j)) g_{j+1} | / (n-2j)
      | sqrt((k'-j)(n-k-j)) g_j - sqrt((k-j)(n-k'-j)) g_{j+1} | / (n-2j),
    which does not depend on which element is singled out.
    """
    live = live_rows(t, inst.k)
    if not 0 <= start < stop <= live:
        raise ValueError(f"need 0 <= start < stop <= {live} rows, got {start}..{stop}")
    gammas = _weights(t, start, stop)
    before = float(_weights(t, start - 1, start)[0]) if start else 0.0
    after = float(_weights(t, stop, stop + 1)[0]) if stop < live else 0.0
    phi, phi_prime = phi_table(inst, stop, start)
    tilde, tilde_prime = tilde_tables(gammas, phi, phi_prime, before, after)
    g = gammas[:, None]
    forward = np.linalg.norm(tilde_prime - g * phi, axis=1)
    reflection = reflection_row_norms(phi, phi_prime, tilde, tilde_prime)
    if stop == inst.k + 1:
        past_k = _row_past_k(gammas[-1], inst)
        forward, reflection = np.append(forward, past_k), np.append(reflection, past_k)
    n, k, kp = inst.n, inst.k, inst.k_prime
    j = np.arange(start, stop, dtype=float)
    small = np.sqrt((k - j) * (n - kp - j))
    large = np.sqrt((kp - j) * (n - k - j))
    g1 = np.append(gammas[1:], after)
    membership = np.maximum(abs(small * gammas - large * g1), abs(large * gammas - small * g1))
    return ClosedRows(
        forward=forward,
        reverse=np.linalg.norm(g * phi_prime - tilde, axis=1),
        reflection=reflection,
        membership=membership / (n - 2 * j),
        gamma=np.abs(gammas),
        overlap=np.vecdot(phi, phi_prime),
    )


# Gamma's norms against the difference operators over a whole schedule, as
# maxima of `closed_rows`.  The package calls none of them; the benchmark's
# tracer wraps them by name.
def norm_delta_state_gen(inst: ProblemInstance, t: float) -> tuple[float, float]:
    rows = closed_rows(inst, t, 0, live_rows(t, inst.k))
    return float(rows.forward.max()), float(rows.reverse.max())


def norm_delta_reflection(inst: ProblemInstance, t: float) -> float:
    return float(closed_rows(inst, t, 0, live_rows(t, inst.k)).reflection.max())


def norm_delta_membership(inst: ProblemInstance, t: float) -> float:
    return float(closed_rows(inst, t, 0, live_rows(t, inst.k)).membership.max())


class DualFeasibilityReport(NamedTuple):
    """The certificate quantities for one (instance, t, ell), named as `bounds` prints them."""

    n: int
    k: int
    k_prime: int
    eps: float
    t: float
    ell: int
    gamma_norm: float
    psi_power_bound: float
    membership_norm: float
    state_gen_norm: float  # the larger of state_gen_pair
    state_gen_pair: tuple  # (forward, reverse)
    reflection_norm: float
    feasibility_threshold: float
    feasible: bool
    theorem_regime: bool
    T1: float  # 1/membership_norm, inf where that is 0
    T2: float  # 1/state_gen_norm
    T3: float  # 1/reflection_norm


def _safe_inverse(x: float) -> float:
    return math.inf if x == 0.0 else 1.0 / x


def dual_feasibility_report(inst: ProblemInstance, t: float, ell: int) -> DualFeasibilityReport:
    """Assemble the closed-form certificate quantities and the feasibility flag.

    The constant-size requirement on the Gram-power norm is operationalised
    as D^ell/2 >= FEASIBILITY_THRESHOLD; out-of-regime instances are
    flagged, not rejected.  The schedule is folded through `closed_rows`
    in blocks of CHUNK_ROWS rows, keeping each row array's running maximum
    (and the minimum overlap D over rows j <= min(ell, k)), so the values
    are the whole schedule's to the bit.  A schedule past MAX_ROWS is
    refused before anything is allocated.
    """
    power_rows = gram_power_rows(inst, t, ell)
    live = live_rows(t, inst.k)
    top = dict.fromkeys(("forward", "reverse", "reflection", "membership", "gamma"), 0.0)
    d = math.inf
    for start in range(0, live, CHUNK_ROWS):
        rows = closed_rows(inst, t, start, min(start + CHUNK_ROWS, live))
        for name in top:
            top[name] = max(top[name], float(getattr(rows, name).max()))
        if start < power_rows:
            d = min(d, float(rows.overlap[: power_rows - start].min()))
    bound = gram_power_bound(d, ell)
    state_gen = max(top["forward"], top["reverse"])
    return DualFeasibilityReport(
        n=inst.n, k=inst.k, k_prime=inst.k_prime, eps=inst.eps, t=float(t), ell=ell,
        gamma_norm=top["gamma"],
        psi_power_bound=bound,
        membership_norm=top["membership"],
        state_gen_norm=state_gen,
        state_gen_pair=(top["forward"], top["reverse"]),
        reflection_norm=top["reflection"],
        feasibility_threshold=FEASIBILITY_THRESHOLD,
        feasible=bound >= FEASIBILITY_THRESHOLD,
        theorem_regime=inst.theorem_regime,
        T1=_safe_inverse(top["membership"]),
        T2=_safe_inverse(state_gen),
        T3=_safe_inverse(top["reflection"]),
    )


def theorem_tradeoff(
    n: float,
    k: float,
    eps: float,
    ell: float = 0,
    ell_prime: float = 0,
) -> dict:
    """Evaluate every branch of the headline trade-off at one parameter point.

    Scale factors hidden in the asymptotic statement are not modelled:
    each branch reports the bare min of its closed expressions.  The
    regime conditions n >= 5k and 1/k <= eps <= 1 are recorded as flags.
    An ell of 0 drops the copy-assisted state-generation term; ell +
    ell_prime = 0 likewise drops the assisted reflection term.  The cutoff
    uses c' = CPRIME.  Every value is a plain number or flag: a dropped
    term, one that overflows and one that divides by a k eps^2 that
    underflows to 0 all read math.inf.
    """
    if not all(map(math.isfinite, (n, k, eps, ell, ell_prime))):
        raise ValueError("n, k, eps, ell and ell_prime must be finite")
    if n <= 0 or k <= 0 or eps <= 0:
        raise ValueError("n, k, eps must be positive")
    if ell < 0 or ell_prime < 0:
        raise ValueError("ell and ell_prime must be nonnegative")

    root_nk = math.sqrt(n / k)
    k_eps2 = k * eps * eps
    copies_terms = {
        "k": float(k),
        "sqrt_k_over_eps": math.sqrt(k) / eps,
        "n_over_k_eps2": n / k_eps2 if k_eps2 > 0 else math.inf,
    }
    state_terms = {
        "sqrt_n_over_k_over_eps": root_nk / eps,
        "sqrt_k_over_ell_over_eps": math.sqrt(k / ell) / eps if ell > 0 else math.inf,
        "k_third_over_eps_two_thirds": k ** (1.0 / 3.0) / eps ** (2.0 / 3.0),
    }
    refl_terms = {
        "sqrt_n_over_k_over_eps": root_nk / eps,
        "sqrt_k_over_copies_over_eps": (
            math.sqrt(k / (ell + ell_prime)) / eps if ell + ell_prime > 0 else math.inf
        ),
    }
    membership = root_nk / eps
    state_bound = min(state_terms.values())
    refl_bound = min(refl_terms.values())
    return {
        "n": float(n),
        "k": float(k),
        "eps": float(eps),
        "ell": float(ell),
        "ell_prime": float(ell_prime),
        "cprime": CPRIME,
        "copies_terms": copies_terms,
        "copies_bound": min(copies_terms.values()),
        "state_generation_terms": state_terms,
        "state_generation_bound": state_bound,
        "reflection_terms": refl_terms,
        "reflection_bound": refl_bound,
        "membership_bound": membership,
        "fifth_case_threshold": root_nk,
        "fifth_case_reflection": math.sqrt(k / eps),
        "t_choice": max(2.0 * ell, CPRIME * ell_prime, 1.0 / (5.0 * eps)),
        "regime_n": n >= 5 * k,
        "regime_eps": (1.0 / k) <= eps <= 1.0,
        "weights": {
            "membership": _safe_inverse(membership),
            "state_generation": _safe_inverse(state_bound),
            "reflection": _safe_inverse(refl_bound),
        },
    }
