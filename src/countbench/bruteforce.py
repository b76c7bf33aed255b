"""Explicit matrices and the cross-check suite for every closed form.

Everything the closed-form engine claims is rebuilt here the hard way:
the overlap Gram matrix, the single-element membership differences, the four
lift transformations that expand matrix entries by superposition
vectors, and the superposition isometries V and V-hat, applied entrywise.
``verify`` runs one named check, building both sides explicitly and
reporting the worst discrepancy.

V_DECOMP and PHI_COMMUTE read the channel transporters Xi in block
coordinates (``_level_channels``), one row block at a time in chunks
of columns, splitting the ground axis into the uniform direction (Pi_0,
the mean over i) and its complement (Pi_1); a Frobenius norm of what
must vanish, with no eigensolve, decides each.
``build_xi`` forms one Xi at full size with the same split; the tests
gate the block pass against it, and the benchmark tracer wraps it by name.

Block ordering for lifted matrices is row-label-major: the lifted row
index (x, i) enumerates i = 1..n inside each x.  This makes the lift
composition identities hold entry for entry.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import adversary, johnson, linalg
from .adversary import ProblemInstance

# Largest lifted dimension C(n, k') * n the explicit checks will build.
SIZE_CAP = 20000

# Default tolerances: norm comparisons are eigensolver-limited, algebraic
# identities are exact in real arithmetic.
TOL_NORM = 1e-8
TOL_EXACT = 1e-10


class LiftKind(enum.Enum):
    """The four entry-expanding transformations.

    ROW kinds attach the superposition vector of the row label, COL kinds
    that of the column label; PSI appends a column vector, PSI_STAR a row
    covector.
    """

    ROW_PSI = "row-psi"
    ROW_PSI_STAR = "row-psi-star"
    COL_PSI = "col-psi"
    COL_PSI_STAR = "col-psi-star"


CHECK_IDS = (
    "PSI_COEFFS",
    "DELTA_GEN",
    "DELTA_REFL",
    "DELTA_MEMB",
    "V_DECOMP",
    "PHI_COMMUTE",
    "TABLES",
    "PROJECTORS",
    "NORM_GAMMA",
    "PSI_POWER",
)

CHECK_DESCRIPTIONS = {
    "PSI_COEFFS": "transporter coefficients of the Gram-Hadamard product match the four-term recurrence",
    "DELTA_GEN": "state-generation difference norms match the max vector-norm formulas",
    "DELTA_REFL": "reflection difference norm matches the max 4x4 rank-two norm formula",
    "DELTA_MEMB": "membership difference norm matches the two-branch formula, identically in the singled-out element",
    "V_DECOMP": "the superposition isometry decomposes over the four transporter channels",
    "PHI_COMMUTE": "level transporters commute with the channel transporters, signs included",
    "TABLES": "closed-form basis-change tables are orthogonal and match the constructed reference vectors",
    "PROJECTORS": "block projectors form a complete orthogonal idempotent family with the predicted ranks",
    "NORM_GAMMA": "the assembled certificate matrix has spectral norm equal to its top weight",
    "PSI_POWER": "the entrywise Gram power keeps the certificate norm above the overlap bound",
}

# Checks whose value does not depend on the schedule.  The instance memo
# keeps each one's results under its check function, so sweeps over t do
# not redo the heavy algebra.  Their check functions return results keyed
# by check id: one channel pass serves both V_DECOMP and PHI_COMMUTE.
_SCHEDULE_FREE = {"V_DECOMP", "PHI_COMMUTE", "TABLES", "PROJECTORS"}

# Channel labels (ell, m): ground-space component ell tensor block shift m.
XI_CHANNELS = ((1, -1), (0, 0), (1, 0), (1, 1))


@dataclass
class DiscrepancyReport:
    """Outcome of one cross-check on one instance."""

    check_id: str
    n: int
    k: int
    k_prime: int
    t: float
    ell: int
    closed_form: float
    brute_force: float
    discrepancy: float
    tolerance: float
    passed: bool
    wall_ms: float
    memoised: bool  # served from the instance memo; wall_ms is only the lookup
    details: dict = field(default_factory=dict)


@lru_cache(maxsize=None)
def psi_matrix(n: int, k: int) -> np.ndarray:
    """Rows are the uniform unit superpositions over each k-subset of {1..n}.

    Read-only: row x holds the bits of subset x's mask, divided by sqrt(k).
    """
    masks = johnson.subset_basis(n, k)
    out = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
    if k:
        out /= math.sqrt(k)
    return linalg.freeze(out)


@lru_cache(maxsize=8)
def psi_gram(inst: ProblemInstance) -> np.ndarray:
    """Overlap matrix, read-only: entry (x, y) is |x & y| / sqrt(k k')."""
    xm = johnson.subset_basis(inst.n, inst.k)
    ym = johnson.subset_basis(inst.n, inst.k_prime)
    overlap = np.bitwise_count(xm[:, None] & ym[None, :])
    return linalg.freeze(overlap / math.sqrt(inst.k * inst.k_prime))


def lift(m, kind: LiftKind, psi: np.ndarray) -> np.ndarray:
    """Expand each entry of ``m`` by the superposition vector of one side.

    ``psi`` is the ``psi_matrix`` of the side named by ``kind``: rows of
    ``m`` for ROW kinds, columns for COL kinds.  Its shape gives that
    side's subset count and n.  Lifted indices are label-major, i.e. row
    (x, i) and column (y, i) blocks of length n.
    """
    m = linalg.as_matrix(m)
    size, n = psi.shape
    rows, cols = m.shape
    if kind in (LiftKind.ROW_PSI, LiftKind.ROW_PSI_STAR):
        if rows != size:
            raise ValueError(f"row count {rows} does not match {size} subsets")
    elif cols != size:
        raise ValueError(f"column count {cols} does not match {size} subsets")
    if kind is LiftKind.ROW_PSI:
        return _v_apply(psi, m)
    if kind is LiftKind.ROW_PSI_STAR:
        return np.einsum("xy,xi->xyi", m, psi).reshape(rows, cols * n)
    if kind is LiftKind.COL_PSI:
        # C order, so that the reshape is a view rather than a copy.
        return np.einsum("xy,yi->xiy", m, psi, order="C").reshape(rows * n, cols)
    if kind is LiftKind.COL_PSI_STAR:
        return np.einsum("xy,yi->xyi", m, psi).reshape(rows, cols * n)
    raise ValueError(f"unknown lift kind {kind!r}")


def _kron_apply(block_op: np.ndarray, m: np.ndarray, n: int) -> np.ndarray:
    """(block_op tensor I_n) @ m for a lifted matrix m with row blocks of length n.

    One GEMM on m viewed as (rows, n * cols); no Kronecker product is formed.
    """
    cols = m.shape[1]
    return (block_op @ m.reshape(block_op.shape[1], n * cols)).reshape(-1, cols)


def _v_apply(psi: np.ndarray, m: np.ndarray) -> np.ndarray:
    """V @ m for the isometry V of the level whose ``psi_matrix`` is ``psi``.

    Row (x, i) of V holds psi_x[i] in column x and zeros elsewhere, so row
    (x, i) of V m is psi_x[i] m[x, :]; it is formed entrywise, without V.
    """
    return (psi[:, :, None] * m[:, None, :]).reshape(-1, m.shape[1])


def check_instance(inst: ProblemInstance) -> None:
    """Reject, naming it, an instance the explicit checks cannot take."""
    name = f"instance {inst.n},{inst.k},{inst.k_prime}"
    if inst.k_prime <= inst.k:
        raise ValueError(f"{name}: explicit checks need k < k'")
    if inst.n > johnson.MAX_GROUND_SET:
        raise ValueError(
            f"{name}: ground set size {inst.n} exceeds cap {johnson.MAX_GROUND_SET}"
        )
    lifted_dim = math.comb(inst.n, inst.k_prime) * inst.n
    if lifted_dim > SIZE_CAP:
        raise ValueError(
            f"{name}: lifted dimension C(n,k')*n = {lifted_dim} exceeds cap {SIZE_CAP}"
        )


@lru_cache(maxsize=8)
def _instance_memo(inst: ProblemInstance) -> dict:
    """Schedule-free check results of one instance, keyed by check function.

    Rejects an instance the explicit checks cannot take before anything
    is allocated.
    """
    check_instance(inst)
    return {}


def _xi_is_declared_zero(j: int, ell: int, m: int, level_max: int) -> bool:
    if j < 0 or j > level_max or j + m < 0 or j + m > level_max:
        return True
    if j == 0 and (ell, m) in ((1, -1), (1, 0)):
        return True
    if j == level_max and (ell, m) == (1, 1):
        return True
    return False


def _xi_raw(inst: ProblemInstance, j: int, ell: int, m: int, hatted: bool) -> np.ndarray:
    """The raw channel morphism (E_{j+m} tensor Pi_ell) V E_j of a non-border channel.

    V E_j is formed entrywise by ``_v_apply``.  Pi_0 replaces each
    length-n block by its mean, Pi_1 keeps the remainder.
    """
    level = inst.k_prime if hatted else inst.k
    projectors = johnson.irrep_projectors(inst.n, level)
    v_e = _v_apply(psi_matrix(inst.n, level), projectors[j])
    cols = v_e.shape[1]
    blocks = _kron_apply(projectors[j + m], v_e, inst.n).reshape(-1, inst.n, cols)
    mean = blocks.mean(axis=1, keepdims=True)
    part = blocks - mean if ell else np.broadcast_to(mean, blocks.shape)
    return part.reshape(-1, cols)


def build_xi(
    inst: ProblemInstance, j: int, ell: int, m: int, hatted: bool = False
) -> np.ndarray:
    """Channel transporter Xi_j^{ell,m} on the k level (or k' when hatted).

    Normalises (E_{j+m} tensor Pi_ell) V E_j to a partial isometry; the
    declared border cases come back as exact zero matrices.  A non-border
    channel with a near-zero normaliser raises instead of guessing.
    """
    if (ell, m) not in XI_CHANNELS:
        raise ValueError(f"invalid channel (ell, m) = ({ell}, {m})")
    level_max = inst.k_prime if hatted else inst.k
    if not (0 <= j <= level_max):
        raise ValueError(f"need 0 <= j <= {level_max}, got j={j}")
    if _xi_is_declared_zero(j, ell, m, level_max):
        size = math.comb(inst.n, level_max)
        return np.zeros((size * inst.n, size))
    raw = _xi_raw(inst, j, ell, m, hatted)
    return raw / _channel_normaliser(linalg.spectral_norm(raw), j, ell, m, hatted)


def _channel_normaliser(scale: float, j: int, ell: int, m: int, hatted: bool) -> float:
    """``scale``, the norm ||K|| of a non-border channel K; a near-zero one raises.

    ``build_xi`` passes the spectral norm of the full-size channel.  The
    channel pass passes ||K||_F / sqrt(d_j) of its core: K maps block j,
    of dimension d_j, equivariantly, so K^T K is a scalar on it and that
    is the same norm, read with no eigensolve.
    """
    if scale < johnson.DEGENERATE_SCALE:
        raise ArithmeticError(
            f"channel (j={j}, ell={ell}, m={m}, hatted={hatted}) is unexpectedly "
            f"degenerate: normaliser {scale:.3e}"
        )
    return scale


# ---------------------------------------------------------------------------
# Individual checks.  Each returns (closed, brute, discrepancy, details,
# tolerance_kind) where tolerance_kind is "norm" or "exact".
# ---------------------------------------------------------------------------


def _check_psi_coeffs(inst: ProblemInstance, t: float, ell: int):
    closed = adversary.hadamard_psi_step(adversary.gamma_schedule(t, inst.k), inst)
    had = adversary.adversary_matrix(inst, t) * psi_gram(inst)
    brute = np.array(
        [
            float(np.sum(johnson.transporter(inst.n, inst.k, inst.k_prime, j) * had))
            / int(round(float(np.trace(e_j))))
            for j, e_j in enumerate(johnson.irrep_projectors(inst.n, inst.k))
        ]
    )
    gaps = np.abs(brute - closed)
    worst = int(np.argmax(gaps))
    return float(closed[worst]), float(brute[worst]), float(gaps[worst]), {}, "norm"


def _check_delta_gen(inst: ProblemInstance, t: float, ell: int):
    closed = adversary.norm_delta_state_gen(adversary.gamma_schedule(t, inst.k), inst)
    gamma = adversary.adversary_matrix(inst, t)
    brute_fwd = _lift_difference_norm(gamma, LiftKind.ROW_PSI, LiftKind.COL_PSI, inst)
    brute_rev = _lift_difference_norm(gamma, LiftKind.ROW_PSI_STAR, LiftKind.COL_PSI_STAR, inst)
    gaps = (abs(brute_fwd - closed[0]), abs(brute_rev - closed[1]))
    side = int(np.argmax(gaps))
    return (
        float(closed[side]),
        float((brute_fwd, brute_rev)[side]),
        float(max(gaps)),
        {},
        "norm",
    )


def _lift_difference_norm(
    gamma: np.ndarray, row_kind: LiftKind, col_kind: LiftKind, inst: ProblemInstance
) -> float:
    """Spectral norm of lift(gamma, row_kind) - lift(gamma, col_kind).

    Only the ROW lift is held whole.  The COL lift is subtracted into it
    one row block of gamma at a time: row x of gamma lifts to rows
    x n .. x n + n - 1 of a PSI lift and to row x of a PSI_STAR lift.
    Each block has ceil(rows / n) rows of gamma, so its lift is about
    the size of gamma.  The subtraction is entrywise, so the difference
    is bit for bit the one of the two whole lifts.
    """
    n = inst.n
    diff = lift(gamma, row_kind, psi_matrix(n, inst.k))
    psi_hat = psi_matrix(n, inst.k_prime)
    per_row = n if col_kind is LiftKind.COL_PSI else 1
    step = -(-len(gamma) // n)
    for start in range(0, len(gamma), step):
        block = gamma[start : start + step]
        diff[start * per_row : (start + len(block)) * per_row] -= lift(block, col_kind, psi_hat)
    return linalg.spectral_norm(diff)


def _check_delta_refl(inst: ProblemInstance, t: float, ell: int):
    closed = adversary.norm_delta_reflection(adversary.gamma_schedule(t, inst.k), inst)
    brute, residual = _reflection_lift_norm(inst, adversary.adversary_matrix(inst, t))
    return closed, brute, abs(brute - closed), {"structure_residual": residual}, "norm"


def _reflection_remainder_grams(
    inst: ProblemInstance, gamma: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """The two remainder Grams of the lifted reflection difference, and a scale.

    The difference's (x, y) block is gamma[x, y] (psi_x psi_x^T - psi_y
    psi_y^T), with row blocks (x, i) and column blocks (y, i) as in
    ``lift``.  By the lift composition identities it is
    D = V A + B V-hat^T with A = lift(gamma, ROW_PSI_STAR) and
    B = -lift(gamma, COL_PSI), and for any gamma both A V-hat and -V^T B
    equal gamma o P, P = ``psi_gram``.  So
    D = V A (I - V-hat V-hat^T) + (I - V V^T) B V-hat^T: two pieces with
    orthogonal ranges and orthogonal row spaces, and ||D||^2 is the larger
    of the top eigenvalues of their level-sized Grams

        C = (gamma gamma^T) o (Psi Psi^T) - (gamma o P)(gamma o P)^T,
        E = (gamma^T gamma) o (Psi-hat Psi-hat^T) - (gamma o P)^T (gamma o P).

    The subtraction cancels at most k/k' of each diagonal entry, since
    <psi_x, psi-hat_y>^2 <= k/k'.  gamma is rescaled by ``linalg.gram_safe``
    first; returns (C, E, scale) with ||D|| = scale * sqrt(lambda_max).
    """
    gamma, scale = linalg.gram_safe(gamma)
    psi, psi_hat = psi_matrix(inst.n, inst.k), psi_matrix(inst.n, inst.k_prime)
    overlap = gamma * psi_gram(inst)
    c = (gamma @ gamma.T) * (psi @ psi.T)
    c -= overlap @ overlap.T
    e = (gamma.T @ gamma) * (psi_hat @ psi_hat.T)
    e -= overlap.T @ overlap
    return c, e, scale


def _reflection_lift_norm(inst: ProblemInstance, gamma: np.ndarray) -> tuple[float, float]:
    """Norm of the lifted reflection difference, and its structure residual.

    For an S_n-equivariant gamma, C is a scalar on each block of level k
    and E on each block of level k', so ``linalg.block_scalars`` reads
    them with no eigensolve: the norm is scale * sqrt(max_j m_j) over the
    blocks of both levels.  The structure residual is the larger of the
    two Grams' residuals ||M - sum_j m_j E_j||_F, relative to max_j m_j;
    by Weyl's inequality it bounds the relative error of max_j m_j as the
    top eigenvalue, and ``verify`` fails the row when it exceeds TOL_EXACT.
    A gamma that is not equivariant leaves a large residual.
    """
    c, e, scale = _reflection_remainder_grams(inst, gamma)
    top = residual = 0.0
    for gram, level in ((c, inst.k), (e, inst.k_prime)):
        m, off = linalg.block_scalars(gram, johnson.irrep_projectors(inst.n, level))
        top, residual = max(top, float(m.max())), max(residual, off)
    return scale * math.sqrt(top), residual / top if top > 0.0 else residual


def _check_delta_memb(inst: ProblemInstance, t: float, ell: int):
    closed = adversary.norm_delta_membership(adversary.gamma_schedule(t, inst.k), inst)
    per_i = _membership_norms(inst, adversary.adversary_matrix(inst, t))
    gaps = np.abs(per_i - closed)
    worst = int(np.argmax(gaps))
    details = {"spread_over_i": float(per_i.max() - per_i.min()), "per_i": per_i.tolist()}
    return closed, float(per_i[worst]), float(gaps[worst]), details, "norm"


def _membership_norms(inst: ProblemInstance, gamma: np.ndarray) -> np.ndarray:
    """Spectral norms of gamma o Delta_i for the elements i = 1..n.

    Delta_i marks the pairs (x, y) that disagree on membership of i, so
    gamma o Delta_i is zero outside two blocks: rows x that hold i against
    columns y that do not, and the reverse.  The blocks share no row and no
    column, so the norm is the larger of the two blocks' norms.  Each kind
    of block is stacked over i and goes to ``linalg.spectral_norm`` as one
    stack.
    """
    bits = 1 << np.arange(inst.n)[:, None]
    in_x = (johnson.subset_basis(inst.n, inst.k) & bits) != 0
    in_y = (johnson.subset_basis(inst.n, inst.k_prime) & bits) != 0
    norms = np.zeros(inst.n)
    for rows, cols in ((in_x, ~in_y), (~in_x, in_y)):
        # Row i of each index array lists the subsets on that side of element i + 1.
        r = np.nonzero(rows)[1].reshape(inst.n, -1)
        c = np.nonzero(cols)[1].reshape(inst.n, -1)
        norms = np.maximum(norms, linalg.spectral_norm(gamma[r[:, :, None], c[:, None, :]]))
    return norms


def _block_bases(projectors: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases Q_j of all blocks from one eigendecomposition.

    L = sum_j j E_j has the eigenvalues 0..k exactly, since the E_j are
    orthogonal projectors that sum to I, and eigh lists them in ascending
    order.  So Q_j holds the eigenvectors whose eigenvalue rounds to j,
    and the blocks stand side by side.  Returns the eigenvectors and the
    column offsets: Q_j is ``q_all[:, edges[j]:edges[j + 1]]``.
    """
    level = len(projectors) - 1
    values, q_all = np.linalg.eigh(sum(j * e_j for j, e_j in enumerate(projectors)))
    # edges[j] is the first eigenvalue that rounds to j or above; one that
    # rounds below 0 or above k falls into block 0 or k and fails its count.
    edges = np.searchsorted(np.rint(values), np.arange(level + 2) - 0.5)
    edges[0], edges[-1] = 0, len(values)
    for j, e_j in enumerate(projectors):
        count = edges[j + 1] - edges[j]
        rank = int(round(float(np.trace(e_j))))
        if count != rank:
            raise ArithmeticError(
                f"block {j} of level {level} has a {count}-dimensional range, "
                f"trace {rank}"
            )
    return q_all, edges


def _level_channels(n: int, level: int, hatted: bool):
    """Channel cores and the V_DECOMP residual norm of one level.

    In the block bases Q_j, and with the ground axis split into its Pi_0
    coordinate (sum over i, divided by sqrt(n)) and its Pi_1 part, the
    isometry V becomes a grid of cores K_{r,ell,j} = (Q_r^T tensor Pi_ell)
    V Q_j.  This change of basis is an isometry, so the residual
    R = V - sum c Xi keeps its norms: each non-border channel core is
    scaled by f = 1 - c/||K||, every other core is left as it is (f = 1).

    By Schur's lemma, K^T K is a scalar on column block j, so the
    normaliser is ||K|| = ||K||_F / sqrt(d_j) (``_channel_normaliser``),
    read off squared Frobenius norms of the cores, summed per column of
    Q_all as the pass forms them; no Gram and no eigensolve.  The
    residual's norm is ||R||_F, the square root of the sum of
    f^2 ||K_{r,ell,j}||_F^2 over all cores; it bounds ||R|| with no
    structure assumption, and R must vanish.

    The pass runs one row block r at a time, and each row block in
    chunks of w columns of Q_r, with w = N // n for N subsets, so a
    chunk's n x w x N buffer is no larger than an N x N matrix.  Row (x, i)
    of V holds psi_x[i] in column x, so ground coordinate i of a chunk
    Q_c of Q_r is (psi[S_i, i] o Q_c[S_i])^T Q_all[S_i], with S_i the
    subsets that hold i; the others have psi_x[i] = 0.  The Pi_0
    coordinate is kept for the whole row block, d_r x N.  Returns the
    block bases, the normalised channel cores K/||K|| that
    ``_check_channels`` reads, read-only and keyed by (j, ell, m) with
    rows (a, i) as in ``_kron_apply`` (every core of level k; on level k'
    those with j, j + m < k', which any k < k' reads) and ||R||_F.
    """
    coeffs = adversary.phi_components(n, level, np.arange(level + 1))
    q_all, edges = _block_bases(johnson.irrep_projectors(n, level))
    dims = np.diff(edges)
    psi = psi_matrix(n, level)
    size = len(psi)
    members = [np.flatnonzero(psi[:, i]) for i in range(n)]
    blocks = [slice(edges[j], edges[j + 1]) for j in range(level + 1)]
    width = max(1, size // n)
    # Level k' keeps the cores with j, j + m < k', the ones any k < k' reads.
    top = level if hatted else level + 1
    # The residual's squared Frobenius norm.
    residual = 0.0
    channels = {}
    for r, rows in enumerate(blocks):
        d_r = rows.stop - rows.start
        # The Pi_0 coordinate of the whole row block, no larger than N x N.
        pi0 = np.empty((d_r, size))
        # The Pi_1 cores this row block keeps, filled chunk by chunk.
        cores = {
            (r - m, 1, m): np.empty((d_r, n, edges[r - m + 1] - edges[r - m]))
            for el, m in XI_CHANNELS
            if el and not _xi_is_declared_zero(r - m, el, m, level) and max(r - m, r) < top
        }
        # The Pi_1 slots' squared entries, summed per column of Q_all.
        pi1_squares = np.zeros(size)
        for lo in range(0, d_r, width):
            at = slice(lo, min(lo + width, d_r))
            q_c = q_all[:, rows][:, at]
            # Ground coordinate i, then its Pi_1 part.
            part = np.empty((n, q_c.shape[1], size))
            for i, s_i in enumerate(members):
                np.matmul((psi[s_i, i, None] * q_c[s_i]).T, q_all[s_i], out=part[i])
            np.sum(part, axis=0, out=pi0[at])
            part -= pi0[at] / n
            for (j, el, m), core in cores.items():
                core[at] = part[:, :, blocks[j]].swapaxes(0, 1)
            np.square(part, out=part)
            pi1_squares += part.sum(axis=(0, 1))
            # Drop this chunk's buffer before the next one is allocated.
            del part
        pi0 /= math.sqrt(n)
        pi0_squares = np.einsum("ac,ac->c", pi0, pi0)
        for group, squares in enumerate((pi0_squares, pi1_squares)):
            block_squares = np.add.reduceat(squares, edges[:-1])
            factor = np.ones(level + 1)
            for comp, (el, m) in enumerate(XI_CHANNELS):
                j = r - m
                if el != group or _xi_is_declared_zero(j, el, m, level):
                    continue
                norm = math.sqrt(block_squares[j] / dims[j])
                scale = _channel_normaliser(norm, j, el, m, hatted)
                if max(j, r) < top:
                    core = cores[j, el, m] if el else pi0[:, blocks[j]].copy()
                    core /= scale
                    channels[j, el, m] = linalg.freeze(core.reshape(-1, core.shape[-1]))
                factor[j] = 1.0 - coeffs[j, comp] / scale
            residual += float(factor**2 @ block_squares)
    bases = [q_all[:, rows] for rows in blocks]
    return bases, channels, math.sqrt(residual)


@lru_cache(maxsize=1)
def _hatted_level_channels(n: int, level: int):
    """``_level_channels`` of a k' level, memoised: it depends only on (n, k').

    Every instance on that level reads the same cores, and the sweep runs
    level-major, so one entry serves them all until
    ``release_channel_pass`` drops it.
    """
    return _level_channels(n, level, hatted=True)


def release_channel_pass(inst: ProblemInstance) -> None:
    """Drop the memoised k' channel pass once ``inst`` holds its channel result.

    For the last instance on a k' level: once its instance memo holds
    the V_DECOMP and PHI_COMMUTE results, nothing reads that pass again.
    """
    if _check_channels in _instance_memo(inst):
        _hatted_level_channels.cache_clear()


def clear_memos() -> None:
    """Empty every memo of this module.

    That is the instance memos, the per-level memos under them, and the
    superposition rows and overlap matrices: every lru-cached function,
    so a memo added here is cleared as well.
    """
    for value in list(globals().values()):
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def _check_channels(inst: ProblemInstance, t: float, ell: int):
    """V_DECOMP and PHI_COMMUTE from one pass in block coordinates per level.

    Each value is a Frobenius norm of something that must vanish, and
    bounds its spectral norm; no eigensolve runs.  V_DECOMP is
    ||V - sum c Xi||_F, the worse of the two levels.  For PHI_COMMUTE:
    ``johnson.transporter`` builds Phi_j compressed to the two j-th
    blocks, so Phi_j = Q_j S_j Qhat_j^T with S_j = Q_j^T Phi_j Qhat_j, and
    each channel's commutation difference (Phi_{j+m} tensor I) Xihat -
    Xi Phi_j has the norms of the core difference
    (S_{j+m} tensor I) Khat/||Khat|| - (K/||K||) S_j; the largest counts.
    """
    # The larger k' pass first, so that the k pass's result does not sit under its peak.
    bases_hat, channels_hat, residual_hat = _hatted_level_channels(inst.n, inst.k_prime)
    bases, channels, residual = _level_channels(inst.n, inst.k, hatted=False)
    residual = max(residual, residual_hat)
    s = [
        q.T @ johnson.transporter(inst.n, inst.k, inst.k_prime, j) @ q_hat
        for j, (q, q_hat) in enumerate(zip(bases, bases_hat))
    ]
    worst = 0.0
    for (j, el, m), xi in channels.items():
        moved = _kron_apply(s[j + m], channels_hat[j, el, m], inst.n if el else 1)
        worst = max(worst, float(np.linalg.norm(moved - xi @ s[j])))
    return {
        "V_DECOMP": (0.0, residual, residual, {}, "norm"),
        "PHI_COMMUTE": (0.0, worst, worst, {}, "norm"),
    }


def _table_vector_gaps(n: int, k: int, j: int) -> float:
    refs = johnson.reference_vectors(n, k, j)
    t2, t4 = johnson.basis_change_tables(n, k, j)
    gap = float(np.max(np.abs(t2 @ t2.T - np.eye(2))))
    if refs.w_out is not None:
        built = np.array(
            [
                [refs.w_out @ refs.v, refs.w_out @ refs.v_tilde],
                [refs.w_in @ refs.v, refs.w_in @ refs.v_tilde],
            ]
        )
        gap = max(gap, float(np.max(np.abs(built - t2))))
    else:
        # j = k: the one-fixed partners degenerate and w_out coincides with v,
        # so only the top-left table entry remains comparable.
        gap = max(gap, abs(1.0 - t2[0, 0]))
    if t4 is not None:
        gap = max(gap, float(np.max(np.abs(t4 @ t4.T - np.eye(4)))))
        w_rows = [refs.w_empty, refs.w_c, refs.w_d, refs.w_cd]
        v_cols = [refs.v_minus, refs.v, refs.v_zero, refs.v_plus]
        for a, w in enumerate(w_rows):
            if w is None:
                continue
            for b, v in enumerate(v_cols):
                if v is None:
                    continue
                gap = max(gap, abs(float(w @ v) - t4[a, b]))
    return gap


@lru_cache(maxsize=8)
def _level_table_gap(n: int, level: int) -> float:
    """The worst TABLES gap over the blocks of one level, memoised per level."""
    return max(_table_vector_gaps(n, level, j) for j in range(level + 1))


def _check_tables(inst: ProblemInstance, t: float, ell: int):
    gap = max(_level_table_gap(inst.n, level) for level in (inst.k, inst.k_prime))
    return {"TABLES": (0.0, gap, gap, {}, "exact")}


@lru_cache(maxsize=8)
def _projector_family_gap(n: int, level: int) -> tuple[float, bool]:
    """The PROJECTORS gap and rank test of one level's family, memoised per level."""
    projs = johnson.irrep_projectors(n, level)
    size = projs[0].shape[0]
    gap = float(np.max(np.abs(sum(projs) - np.eye(size))))
    rank_ok = True
    for j, e in enumerate(projs):
        gap = max(gap, float(np.max(np.abs(e @ e - e))))
        gap = max(gap, float(np.max(np.abs(e - e.T))))
        if int(round(float(np.trace(e)))) != johnson.block_dimension(n, j):
            rank_ok = False
        for other in projs[j + 1 :]:
            gap = max(gap, float(np.max(np.abs(e @ other))))
    return gap, rank_ok


def _check_projectors(inst: ProblemInstance, t: float, ell: int):
    gap_x, ok_x = _projector_family_gap(inst.n, inst.k)
    gap_y, ok_y = _projector_family_gap(inst.n, inst.k_prime)
    gap = max(gap_x, gap_y)
    details = {"ranks_match": ok_x and ok_y}
    # A rank mismatch is a hard failure regardless of the numeric gap: the
    # gap of at least 1 lies above TOL_EXACT.
    if not (ok_x and ok_y):
        gap = max(gap, 1.0)
    return {"PROJECTORS": (0.0, gap, gap, details, "exact")}


def _check_norm_gamma(inst: ProblemInstance, t: float, ell: int):
    closed = float(np.max(np.abs(adversary.gamma_schedule(t, inst.k))))
    brute = linalg.spectral_norm(adversary.adversary_matrix(inst, t))
    return closed, brute, abs(brute - closed), {}, "norm"


def _check_psi_power(inst: ProblemInstance, t: float, ell: int):
    bound = adversary.psi_power_lower_bound(inst, t, ell)
    brute = linalg.spectral_norm(adversary.adversary_matrix(inst, t) * psi_gram(inst) ** ell)
    shortfall = max(0.0, bound - brute)
    return bound, brute, shortfall, {}, "norm"


# A detail each of these checks reports, held to TOL_EXACT on top of the
# discrepancy: DELTA_MEMB's spread over the singled-out element and
# DELTA_REFL's structure residual relative to its Gram scalars.
_DETAIL_BOUNDS = {
    "DELTA_MEMB": "spread_over_i",
    "DELTA_REFL": "structure_residual",
}

_CHECK_FUNCS = {
    "PSI_COEFFS": _check_psi_coeffs,
    "DELTA_GEN": _check_delta_gen,
    "DELTA_REFL": _check_delta_refl,
    "DELTA_MEMB": _check_delta_memb,
    "V_DECOMP": _check_channels,
    "PHI_COMMUTE": _check_channels,
    "TABLES": _check_tables,
    "PROJECTORS": _check_projectors,
    "NORM_GAMMA": _check_norm_gamma,
    "PSI_POWER": _check_psi_power,
}


def verify(
    check_id: str,
    inst: ProblemInstance,
    t: float = 1.0,
    ell: int = 0,
) -> DiscrepancyReport:
    """Run one cross-check, building both sides explicitly.

    PSI_POWER reads ``ell`` (and requires t >= 2 ell); the schedule-free
    checks ignore ``t`` and are memoised per instance.  A report served
    from that memo has ``memoised`` set, and its ``wall_ms`` covers only
    the lookup; the first report for the instance paid the cost.  V_DECOMP
    and PHI_COMMUTE share one channel pass, so whichever runs first pays
    for both.  Below the instance memo, the work that depends on one level
    only is memoised per level: the k' channel pass (one entry), and the
    TABLES and PROJECTORS gaps, so instances that share a level and run
    back to back do it once.  ``release_channel_pass`` and ``clear_memos``
    end these memos once a sweep is past their level.  The report's
    ``discrepancy`` is the worst gap found.  A row also needs one detail
    within TOL_EXACT (``_DETAIL_BOUNDS``): the spread of DELTA_MEMB's
    per-element values and DELTA_REFL's relative structure residual.
    Both tolerances are read at call time.
    """
    if check_id not in _CHECK_FUNCS:
        raise ValueError(f"unknown check id {check_id!r}; known: {CHECK_IDS}")
    memo = _instance_memo(inst)
    check = _CHECK_FUNCS[check_id]
    schedule_free = check_id in _SCHEDULE_FREE
    memoised = schedule_free and check in memo
    start = time.perf_counter()
    if schedule_free:
        if not memoised:
            memo[check] = check(inst, t, ell)
        closed, brute, gap, details, kind = memo[check][check_id]
    else:
        closed, brute, gap, details, kind = check(inst, t, ell)
    wall_ms = (time.perf_counter() - start) * 1000.0
    tolerance = TOL_NORM if kind == "norm" else TOL_EXACT
    passed = gap <= tolerance
    if check_id in _DETAIL_BOUNDS:
        passed = passed and details[_DETAIL_BOUNDS[check_id]] <= TOL_EXACT
    return DiscrepancyReport(
        check_id=check_id,
        n=inst.n,
        k=inst.k,
        k_prime=inst.k_prime,
        t=float(t),
        ell=int(ell),
        closed_form=float(closed),
        brute_force=float(brute),
        discrepancy=float(gap),
        tolerance=float(tolerance),
        passed=bool(passed),
        wall_ms=wall_ms,
        memoised=memoised,
        details=details,
    )
