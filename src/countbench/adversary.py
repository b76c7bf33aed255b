"""Closed-form side of the certificate: coefficients, schedules, norms.

The certificate matrix is Gamma = sum_j gamma_j Phi_j with the weight
schedule gamma_j = max(1 - j/t, 0).  Its interplay with the oracle
difference operators reduces to arithmetic on plain read-only arrays:
the weights `gamma_schedule` returns, and the tables of 4-dimensional
unit vectors phi_j and phi'_j (one row per block index j, the primed
one with k' in place of k) that `phi_table` returns.  This module owns
all of that arithmetic, together with the feasibility report and the
headline trade-off evaluator, whose JSON-ready dict `bounds` prints.
Each row formula is one kernel that takes any run of consecutive rows:
the closed sides `verify` checks run it once on the whole schedule, and
the feasibility report walks the schedule in blocks of CHUNK_ROWS rows,
so a report's working memory does not grow with t.
It builds no matrix of the Johnson scheme and imports no `johnson`:
`assemble_adversary` sums given transporters, and `bruteforce` builds
them and the explicit Gamma.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

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
    (transporters and brute-force checks need k < k').
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
        return cls(n=n, k=k, k_prime=whole_k_prime(k, eps))

    @property
    def eps(self) -> float:
        return (self.k_prime - self.k) / self.k

    @property
    def theorem_regime(self) -> bool:
        """Whether (n, k, eps) sits in the headline-statement regime."""
        return self.n >= 5 * self.k and 1.0 / self.k <= self.eps <= 1.0


def whole_k_prime(k: int, eps: float) -> int:
    """k' = (1 + eps) k, which must be a whole number up to round-off.

    The round-off allowed is 1e-9 relative to k' (absolute below k' = 1):
    (1 + 0.1) * 10**8 evaluates to 110000000.00000001 and still names 110000000.
    """
    value = (1.0 + eps) * k
    rounded = round(value)
    if abs(value - rounded) > 1e-9 * max(1.0, abs(value)):
        raise ValueError(f"(1+eps)k = {value} is not an integer")
    return int(rounded)


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


def _live_rows(t: float, k: int) -> int:
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
    return linalg.freeze(_weights(t, 0, _live_rows(t, k)))


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


def _block_tables(inst: ProblemInstance, gammas, start=0, before=0.0, after=0.0) -> tuple:
    """(phi, phi_prime, tilde, tilde_prime) for the rows j = start.. that ``gammas`` weights.

    ``before`` and ``after`` are the weights just outside the block, as in
    `tilde_tables`; the defaults describe a whole schedule.
    """
    phi, phi_prime = phi_table(inst, start + len(gammas), start)
    return (phi, phi_prime, *tilde_tables(gammas, phi, phi_prime, before, after))


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


def _overlap_rows(inst: ProblemInstance, t: float, ell: int) -> int:
    """How many rows, j = 0..min(ell, k), the Gram-power bound reads; it needs t >= 2 ell."""
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    if t < 2 * ell:
        raise ValueError(f"bound needs t >= 2*ell, got t={t}, ell={ell}")
    return min(ell, inst.k) + 1


def _min_overlap(phi, phi_prime) -> float:
    """The smallest row overlap phi_j . phi'_j; vecdot rounds each as ``p @ q`` does."""
    return float(np.vecdot(phi, phi_prime).min())


def psi_power_lower_bound(inst: ProblemInstance, t: float, ell: int) -> float:
    """Certified lower bound D^ell / 2 for the ell-fold entrywise Gram power.

    Valid for schedules with t >= 2 ell; D is the smallest block overlap
    phi_j . phi'_j among j = 0..min(ell, k).
    """
    d = _min_overlap(*phi_table(inst, _overlap_rows(inst, t, ell)))
    return d**ell / 2.0


def _row_past_k(gammas, inst: ProblemInstance, start: int = 0) -> float:
    """The row of block k+1, which only the k' level has: g_k c0'_{k+1}.

    There tilde'_{k+1} = (g_k c0'_{k+1}, 0, 0, 0) and the level-k terms
    vanish, so the row reads g_k c0'_{k+1} in the forward state-generation
    norm and, phi'_{k+1} being a unit vector, in the reflection norm too;
    c0'_{k+1}^2 = (k+1)(k'-k)(n-k'-k) / ((n-2k)(n-2k-1) k').  It is 0 unless
    t > k, the only case in which g_k > 0.  ``gammas`` holds the weights
    of rows j = start.., so a block that ends before row k reads 0.
    """
    row = inst.k - start
    if len(gammas) <= row or gammas[row] == 0.0 or inst.k_prime == inst.k:
        return 0.0
    c0 = phi_components(inst.n, inst.k_prime, inst.k + 1)[0]
    return float(gammas[row] * c0)


def _state_gen_rows(gammas, tables) -> tuple[float, float]:
    """(max ||tilde_prime_j - g_j phi_j||, max ||g_j phi_prime_j - tilde_j||) over the given rows."""
    phi, phi_prime, tilde, tilde_prime = tables
    g = gammas[:, None]
    forward = float(np.max(np.linalg.norm(tilde_prime - g * phi, axis=1)))
    reverse = float(np.max(np.linalg.norm(g * phi_prime - tilde, axis=1)))
    return forward, reverse


def norm_delta_state_gen(gammas, inst: ProblemInstance) -> tuple[float, float]:
    """Norms of Gamma against the state-generation difference pair.

    Returns (max_j ||tilde_prime_j - g_j phi_j||, max_j ||g_j phi_prime_j - tilde_j||).
    The forward maximum also runs over the k' level's block k+1, where
    phi_{k+1} = 0 (``_row_past_k``); the reverse row there is 0.
    """
    forward, reverse = _state_gen_rows(gammas, _block_tables(inst, gammas))
    return max(forward, _row_past_k(gammas, inst)), reverse


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


def norm_delta_reflection(gammas, inst: ProblemInstance) -> float:
    """Norm of Gamma against the reflection difference operator.

    max over j of the spectral norm of the rank-two 4x4 matrix
    phi'_j tilde'_j^T - tilde_j phi_j^T, in closed form from its 2x2 Gram
    on the span of its rows (``reflection_row_norms``), with j running to
    k+1 on the k' level, where tilde_{k+1} = 0 (``_row_past_k``).
    """
    top = float(np.max(reflection_row_norms(*_block_tables(inst, gammas))))
    return max(top, _row_past_k(gammas, inst))


def norm_delta_membership(gammas, inst: ProblemInstance, start=0, after=0.0) -> float:
    """Norm of Gamma against any single-element membership difference.

    max over j of the larger of
      | sqrt((k-j)(n-k'-j)) g_j - sqrt((k'-j)(n-k-j)) g_{j+1} | / (n-2j)
      | sqrt((k'-j)(n-k-j)) g_j - sqrt((k-j)(n-k'-j)) g_{j+1} | / (n-2j);
    the value does not depend on which element is singled out.  Over a
    block, ``gammas`` weights the rows j = start.. and ``after`` is the
    weight after its last; the defaults describe a whole schedule.
    """
    n, k, kp = inst.n, inst.k, inst.k_prime
    g0 = gammas
    g1 = np.append(g0[1:], after)
    j = np.arange(start, start + len(g0), dtype=float)
    small = np.sqrt((k - j) * (n - kp - j))
    large = np.sqrt((kp - j) * (n - k - j))
    value = np.maximum(np.abs(small * g0 - large * g1), np.abs(large * g0 - small * g1))
    return float(np.max(value / (n - 2 * j)))


@dataclass(frozen=True)
class DualFeasibilityReport:
    """The five certificate quantities for one (instance, t, ell)."""

    instance: ProblemInstance
    t: float
    ell: int
    gamma_norm: float
    psi_power_bound: float
    membership_norm: float      # 1/T1
    state_gen_norm: float       # 1/T2 (max of the pair)
    state_gen_pair: tuple
    reflection_norm: float      # 1/T3
    feasibility_threshold: float
    feasible: bool
    theorem_regime: bool

    @property
    def t1(self) -> float:
        return _safe_inverse(self.membership_norm)

    @property
    def t2(self) -> float:
        return _safe_inverse(self.state_gen_norm)

    @property
    def t3(self) -> float:
        return _safe_inverse(self.reflection_norm)

    def as_dict(self) -> dict:
        out = asdict(self)
        out.update(out.pop("instance"), eps=self.instance.eps, T1=self.t1, T2=self.t2, T3=self.t3)
        return _finite_or_none(out)


def _safe_inverse(x: float) -> float:
    return math.inf if x == 0.0 else 1.0 / x


def _finite_or_none(value):
    """``value`` for JSON: every non-finite float, at any depth, becomes None."""
    if isinstance(value, dict):
        return {key: _finite_or_none(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(val) for val in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def dual_feasibility_report(inst: ProblemInstance, t: float, ell: int) -> DualFeasibilityReport:
    """Assemble the closed-form certificate quantities and the feasibility flag.

    The constant-size requirement on the Gram-power norm is operationalised
    as D^ell/2 >= FEASIBILITY_THRESHOLD; out-of-regime instances are
    flagged, not rejected.  The schedule is walked in blocks of CHUNK_ROWS
    rows, each with its own weights and coefficient tables, and the row
    kernels of the closed sides keep running maxima (and the minimum
    overlap D over rows j <= min(ell, k)), so the values are those of the
    whole-schedule functions to the bit.  A schedule past MAX_ROWS is
    refused before anything is allocated.
    """
    overlap_rows = _overlap_rows(inst, t, ell)
    live = _live_rows(t, inst.k)
    gamma_norm = forward = reverse = reflection = membership = 0.0
    d = math.inf
    before = 0.0
    for start in range(0, live, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, live)
        gammas = _weights(t, start, stop)
        after = float(_weights(t, stop, stop + 1)[0]) if stop < live else 0.0
        tables = _block_tables(inst, gammas, start, before, after)
        block_forward, block_reverse = _state_gen_rows(gammas, tables)
        forward, reverse = max(forward, block_forward), max(reverse, block_reverse)
        reflection = max(reflection, float(np.max(reflection_row_norms(*tables))))
        membership = max(membership, norm_delta_membership(gammas, inst, start, after))
        gamma_norm = max(gamma_norm, float(np.max(np.abs(gammas))))
        if start < overlap_rows:
            phi, phi_prime = tables[0][: overlap_rows - start], tables[1][: overlap_rows - start]
            d = min(d, _min_overlap(phi, phi_prime))
        before = float(gammas[-1])
    past_k = _row_past_k(gammas, inst, start)  # the last block holds row k, if it is live
    gen_pair = (max(forward, past_k), reverse)
    bound = d**ell / 2.0
    return DualFeasibilityReport(
        instance=inst,
        t=float(t),
        ell=ell,
        gamma_norm=gamma_norm,
        psi_power_bound=bound,
        membership_norm=membership,
        state_gen_norm=max(gen_pair),
        state_gen_pair=gen_pair,
        reflection_norm=max(reflection, past_k),
        feasibility_threshold=FEASIBILITY_THRESHOLD,
        feasible=bound >= FEASIBILITY_THRESHOLD,
        theorem_regime=inst.theorem_regime,
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
    uses c' = CPRIME.  The result is ready for JSON: a term that overflows,
    or divides by a k eps^2 that underflows to 0, reads None.
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
    return _finite_or_none(
        {
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
    )
