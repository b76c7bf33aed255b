"""Explicit matrices and the cross-check suite for every closed form.

Everything the closed-form engine claims is rebuilt here the hard way:
the certificate Gamma itself (``adversary_matrix``, summed from the
``johnson`` transporters by ``adversary.assemble_adversary``), the
overlap Gram matrix, the single-element membership differences, the
lifted state-generation differences that expand each entry of Gamma by
the superposition vectors of its row and column labels, and the
superposition isometries V and V-hat, applied entrywise.
``verify`` runs one named check, building both sides explicitly and
reporting the worst discrepancy; ``_CHECKS`` is the one table of what
each check is.  ``sweep`` runs many instances' rows.

Memos: work that depends on one level only is memoised per level, the
overlap Gram and the channel norms per instance, Gamma and the closed
rows per (instance, t).  ``sweep`` alone ends them.  Per n it first
builds the ``johnson`` projector families, largest level first, and
reads each level's family once into its ``_level`` record (the ranks
d_j, the class table, the block bases and the PROJECTORS gap and ranks)
and builds each instance's Phi_j.  Then it frees the families, so no
family lies under any row, and runs every row but DELTA_GEN, then, with
the memos emptied, every DELTA_GEN row, and empties them again.  A
schedule-free row that missed no memo is reported ``memoised``.

V_DECOMP and PHI_COMMUTE read the channel transporters Xi in block
coordinates (``_level_channels``), one ground element i at a time,
splitting the ground axis into the uniform direction (Pi_0, the mean
slot, formed once) and its complement (Pi_1, each slot less the mean);
a Frobenius norm of what must vanish, with no eigensolve, decides each.
``build_xi`` forms one Xi at full size with the same split; the tests
gate the block pass against it, and the benchmark tracer wraps it by name.
``_live_channels`` is the one table of the channels not declared zero,
which ``build_xi``, the block pass and the tests read.

Work the symmetry makes identical is done once.  DELTA_MEMB takes the
norm at element n alone and certifies every other element i by how far
Gamma moves under the transposition (i n).  One eigh of sum_j j E_j per
level gives the block bases that both the channel pass and PROJECTORS
read.  Each E_j is constant on the pairs (x, y) with one |x & y|, so
DELTA_REFL reads its block scalars from the class sums of its Grams and
a (k+1) x (k+1) class table of the family, not from the family.

Block ordering for lifted matrices is label-major: the lifted row index
(x, i) enumerates i = 1..n inside each x, and the lifted column index
(y, i) inside each y.  This makes the lift composition identities hold
entry for entry.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import adversary, johnson, linalg
from .adversary import ProblemInstance

# Largest lifted dimension C(n, k') * n the explicit checks will build.
SIZE_CAP = 20000

# Default tolerances: norm comparisons are eigensolver-limited, algebraic
# identities are exact in real arithmetic.
TOL_NORM = 1e-8
TOL_EXACT = 1e-10


# Entries per band of rows of a level-sized matrix in the class-sum readout.
_BAND_ENTRIES = 1 << 16

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
    memoised: bool  # schedule-free and missed no memo: wall_ms was only lookups
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


@lru_cache(maxsize=1)
def psi_gram(inst: ProblemInstance) -> np.ndarray:
    """Overlap matrix, read-only, memoised per instance: entry (x, y) is |x & y| / sqrt(k k')."""
    xm = johnson.subset_basis(inst.n, inst.k)
    ym = johnson.subset_basis(inst.n, inst.k_prime)
    overlap = np.bitwise_count(xm[:, None] & ym[None, :])
    return linalg.freeze(overlap / math.sqrt(inst.k * inst.k_prime))


def adversary_matrix(inst: ProblemInstance, t: float) -> np.ndarray:
    """Explicit Gamma for one instance and cutoff, via the cached transporters."""
    if inst.k_prime <= inst.k:
        raise ValueError("explicit assembly needs k < k'")
    gammas = adversary.gamma_schedule(t, inst.k)
    transporters = [
        johnson.transporter(inst.n, inst.k, inst.k_prime, j) for j in range(len(gammas))
    ]
    return adversary.assemble_adversary(gammas, transporters)


@lru_cache(maxsize=1)
def _adversary_matrix(inst: ProblemInstance, t: float) -> np.ndarray:
    """Gamma of one instance and cutoff, read-only, memoised.

    A sweep runs the checks of one (instance, t) back to back, so one
    entry serves the six checks that read Gamma.
    """
    return linalg.freeze(adversary_matrix(inst, t))


@lru_cache(maxsize=1)
def _closed_rows(inst: ProblemInstance, t: float) -> adversary.ClosedRows:
    """``adversary.closed_rows`` over one whole schedule, read-only; memoised as Gamma is."""
    rows = adversary.closed_rows(inst, t, 0, adversary.live_rows(t, inst.k))
    return adversary.ClosedRows(*map(linalg.freeze, rows))


def lift(gamma: np.ndarray, inst: ProblemInstance, reverse: bool) -> np.ndarray:
    """The lifted state-generation difference of ``gamma``, one C-order array.

    Entry (x, y, i) is gamma[x, y] psi_x[i] - gamma[x, y] psi-hat_y[i],
    the difference of two rounded products, with psi_x a row of the
    k level's ``psi_matrix`` and psi-hat_y one of the k' level's.  Forward,
    the rows are (x, i) and the columns y; reverse, the rows are x and the
    columns (y, i).  The array is filled one block of ceil(rows / n) rows
    of gamma at a time, so the product it subtracts is about the size of
    gamma.  A zero product keeps the sign it has in the one-sided lifts
    that ``tests/dense_reference.py`` defines: einsum writes it as +0, a
    plain product with the sign of the gamma entry.
    """
    n = inst.n
    psi, psi_hat = psi_matrix(n, inst.k), psi_matrix(n, inst.k_prime)
    rows, cols = gamma.shape
    out = np.empty((rows, cols, n) if reverse else (rows, n, cols))
    step = -(-rows // n)
    for start in range(0, rows, step):
        part = slice(start, start + step)
        g, block = gamma[part], out[part]
        if reverse:
            np.einsum("xy,xi->xyi", g, psi[part], out=block)
            block -= np.einsum("xy,yi->xyi", g, psi_hat)
        else:
            np.multiply(psi[part, :, None], g[:, None, :], out=block)
            block -= np.einsum("xy,yi->xiy", g, psi_hat, order="C")
    return out.reshape(rows, cols * n) if reverse else out.reshape(rows * n, cols)


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


def _live_channels(level: int) -> list[tuple[int, int, int, int]]:
    """``(comp, j, ell, m)``, comp indexing ``XI_CHANNELS``, of each channel not declared zero.

    Blocks j and j + m must lie in 0..level, and (1, 0) at j = 0 is zero:
    block 0 is the uniform vector, which Pi_1 removes.
    """
    return [
        (comp, j, ell, m)
        for comp, (ell, m) in enumerate(XI_CHANNELS)
        for j in range(level + 1)
        if 0 <= j + m <= level and (j, ell, m) != (0, 1, 0)
    ]


def _xi_raw(inst: ProblemInstance, j: int, ell: int, m: int, hatted: bool) -> np.ndarray:
    """The raw channel morphism (E_{j+m} tensor Pi_ell) V E_j of a non-border channel.

    Row (x, i) of V holds psi_x[i] in column x, so V E_j is formed
    entrywise, without V, and E_{j+m} tensor I_n as one GEMM on V E_j
    viewed as (subsets, n * cols), without a Kronecker product.  Pi_0
    replaces each length-n block by its mean, Pi_1 keeps the remainder.
    """
    level = inst.k_prime if hatted else inst.k
    projectors = johnson.irrep_projectors(inst.n, level)
    psi = psi_matrix(inst.n, level)
    cols = projectors[j].shape[1]
    v_e = (psi[:, :, None] * projectors[j][:, None, :]).reshape(len(psi), -1)
    blocks = (projectors[j + m] @ v_e).reshape(-1, inst.n, cols)
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
    if (j, ell, m) not in {live[1:] for live in _live_channels(level_max)}:
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
# Individual checks.  Each returns one row (closed, brute, discrepancy,
# details); its ``_CHECKS`` entry says which tolerance holds it.
# ---------------------------------------------------------------------------


def _check_psi_coeffs(inst: ProblemInstance, t: float, ell: int):
    """<Phi_j, Gamma o P> / d_j against the Gram-Hadamard step, for each block j.

    Every Phi_j is built before Gamma is assembled, and Gamma o P is formed
    afresh for each j in one buffer and multiplied by Phi_j in place, so
    that the memoised Gamma adds no array of its size to this check's peak.
    d_j is read from the level record.
    """
    closed = adversary.hadamard_psi_step(adversary.gamma_schedule(t, inst.k), inst)
    phis = [johnson.transporter(inst.n, inst.k, inst.k_prime, j) for j in range(inst.k + 1)]
    dims = _level(inst.n, inst.k).dims
    gamma, overlap = _adversary_matrix(inst, t), psi_gram(inst)
    had = np.empty_like(gamma)
    brute = []
    for phi, d_j in zip(phis, dims):
        np.multiply(gamma, overlap, out=had)
        had *= phi
        brute.append(float(np.sum(had)) / int(d_j))
    brute = np.array(brute)
    gaps = np.abs(brute - closed)
    worst = int(np.argmax(gaps))
    return float(closed[worst]), float(brute[worst]), float(gaps[worst]), {}


def _check_delta_gen(inst: ProblemInstance, t: float, ell: int):
    """The two lifted differences' norms against the largest forward and reverse closed rows."""
    rows = _closed_rows(inst, t)
    closed = (float(rows.forward.max()), float(rows.reverse.max()))
    gamma = _adversary_matrix(inst, t)
    # Each difference goes straight into spectral_norm, which drops it once
    # its Gram exists, so no lifted array lies under the eigensolve.
    brute_fwd = linalg.spectral_norm(lift(gamma, inst, reverse=False))
    brute_rev = linalg.spectral_norm(lift(gamma, inst, reverse=True))
    gaps = (abs(brute_fwd - closed[0]), abs(brute_rev - closed[1]))
    side = int(np.argmax(gaps))
    return float(closed[side]), float((brute_fwd, brute_rev)[side]), float(max(gaps)), {}


def _check_delta_refl(inst: ProblemInstance, t: float, ell: int):
    """The lifted reflection difference's norm against the largest closed reflection row."""
    closed = float(_closed_rows(inst, t).reflection.max())
    brute, residual = _reflection_lift_norm(inst, _adversary_matrix(inst, t))
    return closed, brute, abs(brute - closed), {"structure_residual": residual}


def _reflection_remainder_grams(
    inst: ProblemInstance, gamma: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """The two remainder Grams of the lifted reflection difference, and a scale.

    The difference's (x, y) block is gamma[x, y] (psi_x psi_x^T - psi_y
    psi_y^T), with row blocks (x, i) and column blocks (y, i), label-major.
    By the lift composition identities it is D = V A + B V-hat^T with
    A[x, (y, i)] = gamma[x, y] psi_x[i] and B[(x, i), y] = -gamma[x, y]
    psi-hat_y[i], and for any gamma both A V-hat and -V^T B
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
    and E on each block of level k', so ``_block_scalars`` reads them from
    their class sums with no eigensolve: the norm is scale * sqrt(max_j
    m_j) over the blocks of both levels.  The structure residual is the
    larger of the two Grams' residuals ||M - sum_j m_j E_j||_F, relative to max_j m_j;
    by Weyl's inequality it bounds the relative error of max_j m_j as the
    top eigenvalue, and ``verify`` fails the row when it exceeds TOL_EXACT.
    A gamma that is not equivariant leaves a large residual.
    """
    c, e, scale = _reflection_remainder_grams(inst, gamma)
    top = residual = 0.0
    for gram, level in ((c, inst.k), (e, inst.k_prime)):
        m, off = _block_scalars(gram, inst.n, level)
        top, residual = max(top, float(m.max())), max(residual, off)
    return scale * math.sqrt(top), residual / top if top > 0.0 else residual


def _class_bands(masks: np.ndarray):
    """Each band of rows of a level-sized matrix, and the classes |x & y| of its pairs (x, y).

    A band holds about ``_BAND_ENTRIES`` entries, which bounds the
    temporaries of the readers that walk the bands.
    """
    step = max(1, _BAND_ENTRIES // len(masks))
    for lo in range(0, len(masks), step):
        band = slice(lo, lo + step)
        yield band, np.bitwise_count(masks[band, None] & masks)


def _class_sums(matrices, masks: np.ndarray, level: int) -> np.ndarray:
    """S[i, c], the sum of ``matrices[i]`` over the pairs (x, y) of a level with |x & y| = c.

    Each class's entries of a band are gathered into one array and added
    pairwise, and the bands' sums add up in order.  np.bincount(weights=)
    and np.sum(where=) add one entry at a time, which put DELTA_REFL's
    gaps at about 3e-13.
    """
    sums = np.zeros((len(matrices), level + 1))
    for band, classes in _class_bands(masks):
        runs = [np.flatnonzero(classes == c) for c in range(level + 1)]
        for i, matrix in enumerate(matrices):
            values = matrix[band].ravel()
            sums[i] += [np.sum(values[run]) for run in runs]
    return sums


class _Level(NamedTuple):
    """What the rows read of one level's projector family, once it is freed."""

    dims: np.ndarray  # d_j, the rounded trace of E_j
    classes: np.ndarray  # classes[j, c]: the mean of E_j over the pairs with |x & y| = c
    q_all: np.ndarray  # the block bases side by side: Q_j is q_all[:, edges[j]:edges[j + 1]]
    edges: np.ndarray
    projector_gap: float
    ranks_match: bool  # each d_j is ``johnson.block_dimension(n, j)``


@lru_cache(maxsize=None)
def _level(n: int, level: int) -> _Level:
    """Everything the rows read of one level's family, read off it once; memoised per level.

    The block bases Q_j come from one eigendecomposition: L = sum_j j E_j
    has the eigenvalues 0..k exactly, since the E_j are orthogonal
    projectors that sum to I, and eigh lists them in ascending order, so
    Q_j holds the eigenvectors whose eigenvalue rounds to j and the blocks
    stand side by side.  V_DECOMP's channel pass and PROJECTORS read them.
    If Q is orthogonal and each E_j is Q_j Q_j^T, the family is symmetric,
    idempotent, mutually orthogonal and sums to Q Q^T = I; so the
    PROJECTORS gap is the largest of ||Q^T Q - I||_F and
    ||E_j - Q_j Q_j^T||_F, two N^3 products in all.

    Each E_j lies in the Bose-Mesner algebra of the Johnson scheme: its
    entry (x, y) depends on |x & y| = c alone.  So E_j is e_j(c) on the
    pairs of class c, read here as the mean over the class; a level holds
    N C(level, c) C(n - level, level - c) pairs of class c.
    """
    family = johnson.irrep_projectors(n, level)
    dims = np.array([round(float(np.trace(e))) for e in family])
    values, q_all = np.linalg.eigh(sum(j * e_j for j, e_j in enumerate(family)))
    # edges[j] is the first eigenvalue that rounds to j or above; one that
    # rounds below 0 or above k falls into block 0 or k and fails its count.
    edges = np.searchsorted(np.rint(values), np.arange(level + 2) - 0.5)
    edges[0], edges[-1] = 0, len(values)
    for j, (count, rank) in enumerate(zip(np.diff(edges), dims)):
        if count != rank:
            raise ArithmeticError(
                f"block {j} of level {level} has a {count}-dimensional range, "
                f"trace {rank}"
            )
    diff = q_all.T @ q_all
    diff[np.diag_indices_from(diff)] -= 1.0
    gap = float(np.linalg.norm(diff))
    for j, e in enumerate(family):
        q_j = q_all[:, edges[j] : edges[j + 1]]
        diff = q_j @ q_j.T
        diff -= e
        gap = max(gap, float(np.linalg.norm(diff)))
    del diff  # dropped before the class sums run
    ranks_match = all(d_j == johnson.block_dimension(n, j) for j, d_j in enumerate(dims))
    masks = johnson.subset_basis(n, level)
    pairs = [len(masks) * math.comb(level, c) * math.comb(n - level, level - c)
             for c in range(level + 1)]
    classes = _class_sums(family, masks, level) / np.array(pairs, dtype=float)
    frozen = map(linalg.freeze, (dims, classes, q_all, edges))
    return _Level(*frozen, gap, ranks_match)


def _block_scalars(gram: np.ndarray, n: int, level: int) -> tuple[np.ndarray, float]:
    """The scalars of a Gram on the blocks of one level, and the residual, from class sums.

    For a family E_j of ranks d_j that sum to I, m_j = <M, E_j> / d_j
    and the residual is ||M - sum_j m_j E_j||_F.  An S_n-equivariant Gram
    on a Johnson level is sum_j m_j E_j by Schur's lemma, and for any
    symmetric M, Weyl's inequality bounds |lambda_max(M) - max_j m_j| by
    that residual: the pair is a certified top eigenvalue, read with no
    eigensolve.  E_j is e_j(c) on the pairs of class c (``_level``),
    so <M, E_j> = sum_c e_j(c) S_c over the class sums S_c of M, and
    sum_j m_j E_j is f(c) = sum_j m_j e_j(c) on class c.  ``gram`` is
    overwritten by the residual M - f, one band of rows at a time.
    """
    record = _level(n, level)
    masks = johnson.subset_basis(n, level)
    m = record.classes @ _class_sums([gram], masks, level)[0] / record.dims
    fit = m @ record.classes
    for band, classes in _class_bands(masks):
        gram[band] -= fit[classes.astype(np.intp)]
    return m, float(np.linalg.norm(gram))


def _check_delta_memb(inst: ProblemInstance, t: float, ell: int):
    """DELTA_MEMB at element n against the top closed membership row; a bound for every other i.

    The norm of gamma o Delta_i differs from that of gamma o Delta_n by at
    most the transposition gap f_i (``_membership_norm``), so
    |per_n - closed| + max_i f_i bounds the worst gap over all i, and
    2 max_i f_i the spread of the per-element norms.
    """
    closed = float(_closed_rows(inst, t).membership.max())
    per_n, gaps = _membership_norm(inst, _adversary_matrix(inst, t))
    moved = float(gaps.max())
    details = {"spread_over_i": 2.0 * moved}
    return closed, per_n, abs(per_n - closed) + moved, details


def _membership_norm(inst: ProblemInstance, gamma: np.ndarray) -> tuple[float, np.ndarray]:
    """The spectral norm of gamma o Delta_n, and the gaps f_i for i = 1..n-1.

    Delta_i marks the pairs (x, y) that disagree on membership of i, so
    gamma o Delta_i is zero outside two blocks: rows x that hold i against
    columns y that do not, and the reverse.  The blocks share no row and no
    column, so the norm is the larger of the two blocks' norms.  The
    transposition tau = (i n) maps the blocks of n onto those of i, so
    gamma[tau R, tau C] is block (R, C) of element i up to an order of its
    rows and columns, and
    f_i = max over the two blocks of ||gamma[tau R, tau C] - gamma[R, C]||_F
    bounds | ||gamma o Delta_i|| - ||gamma o Delta_n|| |.  For an S_n-
    equivariant gamma every f_i is 0 up to round-off.

    Row i - 1 of a level's ``moved`` is the index of each subset's image
    under (i n), read off the masks by swapping bits i - 1 and n - 1.  The
    loop over i gathers one image block at a time.  gamma is rescaled by
    ``linalg.gram_safe`` first, so that the sums of squares neither
    underflow nor overflow.
    """
    gamma, scale = linalg.gram_safe(gamma)
    top = 1 << (inst.n - 1)
    bits = np.arange(inst.n - 1)[:, None]
    held, moved = [], []
    for level in (inst.k, inst.k_prime):
        masks = johnson.subset_basis(inst.n, level)
        # Bits i - 1 and n - 1 differ iff (i n) moves the subset.
        differ = ((masks >> bits) ^ (masks >> (inst.n - 1))) & 1
        images = masks ^ differ * ((1 << bits) | top)
        order = np.argsort(masks)
        moved.append(order[np.searchsorted(masks, images, sorter=order)])
        held.append((masks & top) != 0)
    (x_in, y_in), (x_moved, y_moved) = held, moved
    sides = ((x_in, ~y_in), (~x_in, y_in))
    blocks = [gamma[np.ix_(r, c)] for r, c in sides]
    norm = max(linalg.spectral_norm(block) for block in blocks)
    gaps = np.zeros(inst.n - 1)
    for i in range(inst.n - 1):
        for (r, c), block in zip(sides, blocks):
            image = gamma[np.ix_(x_moved[i, r], y_moved[i, c])]
            image -= block
            gaps[i] = max(gaps[i], np.linalg.norm(image))
    return scale * norm, scale * gaps


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
    with no K^T K and no eigensolve.  ||R||_F, the square root of the sum
    of f^2 ||K_{r,ell,j}||_F^2 over all cores, bounds ||R|| with no
    structure assumption, and R must vanish.

    Row (x, i) of V holds psi_x[i] in column x, so ground coordinate i of
    V in the block bases is the N x N slot A_i = X_i^T X_i, with X_i the
    rows Q_all[S_i] of the subsets S_i that hold i, each scaled by
    sqrt(psi_x[i]).  The mean slot M = Q_all^T diag(sum_i psi[:, i] / n)
    Q_all is formed once: sqrt(n) M is the Pi_0 coordinate and A_i - M the
    Pi_1 part of slot i.  Each slot is one symmetric product (BLAS syrk)
    in one reused N x N buffer, which yields slot i of every kept Pi_1
    core and the slot's squared (r, j) block sums.  Returns the
    normalised cores K/||K|| that ``_channel_norms`` reads, read-only,
    keyed by (j, ell, m) and shaped (a, i, b) (every core of level k; on
    level k' those with j, j + m < k', which any k < k' reads), and ||R||_F.
    """
    coeffs = adversary.phi_components(n, level, np.arange(level + 1))
    record = _level(n, level)
    q_all, edges, dims = record.q_all, record.edges, record.dims
    psi = psi_matrix(n, level)
    blocks = [slice(edges[j], edges[j + 1]) for j in range(level + 1)]

    def block_sums(a):
        return np.add.reduceat(np.add.reduceat(a, edges[:-1], axis=0), edges[:-1], axis=1)

    # Level k' keeps the cores with j, j + m < k', the ones any k < k' reads.
    top = level if hatted else level + 1
    live = _live_channels(level)
    # The kept cores, (a, i, b) (one Pi_0 row per a), views of one buffer
    # allocated before the N x N buffers, so that those are freed at the
    # top of the heap.
    shapes = {
        (j, el, m): (dims[j + m], n if el else 1, dims[j])
        for _, j, el, m in live
        if max(j, j + m) < top
    }
    sizes = [math.prod(shape) for shape in shapes.values()]
    parts = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
    cores = {key: part.reshape(shape) for (key, shape), part in zip(shapes.items(), parts)}
    # One N x N buffer: the rows of the mean slot M, then M squared, then each slot.
    slot = q_all * np.sqrt(psi.sum(axis=1) / n)[:, None]
    mean = slot.T @ slot
    # squares[ell, r, j] is ||K_{r,ell,j}||_F^2; the Pi_0 coordinate is sqrt(n) M.
    squares = np.zeros((2, level + 1, level + 1))
    squares[0] = n * block_sums(np.square(mean, out=slot))
    for (j, el, m), core in cores.items():
        if not el:
            np.multiply(mean[blocks[j], blocks[j]], math.sqrt(n), out=core[:, 0])
    for i in range(n):
        s_i = np.flatnonzero(psi[:, i])
        rows = q_all[s_i]
        rows *= np.sqrt(psi[s_i, i, None])
        np.matmul(rows.T, rows, out=slot)
        # Dropped before the next element's gather is allocated.
        del rows
        slot -= mean
        for (j, el, m), core in cores.items():
            if el:
                core[:, i] = slot[blocks[j + m], blocks[j]]
        squares[1] += block_sums(np.square(slot, out=slot))
    factor = np.ones_like(squares)
    for comp, j, el, m in live:
        r = j + m
        scale = _channel_normaliser(math.sqrt(squares[el, r, j] / dims[j]), j, el, m, hatted)
        if (j, el, m) in cores:
            cores[j, el, m] /= scale
        factor[el, r, j] = 1.0 - coeffs[j, comp] / scale
    residual = math.sqrt(float(np.sum(factor**2 * squares)))
    return {key: linalg.freeze(core) for key, core in cores.items()}, residual


@lru_cache(maxsize=1)
def _hatted_level_channels(n: int, level: int):
    """``_level_channels`` of a k' level, memoised: it depends only on (n, k').

    Every instance on that level reads the same cores, and ``sweep`` runs
    them back to back, so one entry serves them all.
    """
    return _level_channels(n, level, hatted=True)


def _memos() -> list:
    """Every lru-cached function of this module, so a memo added here is found as well."""
    return [value for value in list(globals().values()) if hasattr(value, "cache_info")]


def clear_memos() -> None:
    """Empty every memo of this module; ``sweep`` calls it after each phase."""
    for memo in _memos():
        memo.cache_clear()


def _memo_misses() -> int:
    """The misses of every memo of this module so far, summed."""
    return sum(memo.cache_info().misses for memo in _memos())


@lru_cache(maxsize=1)
def _channel_norms(inst: ProblemInstance) -> tuple[float, float, int]:
    """V_DECOMP's and PHI_COMMUTE's values from one pass in block coordinates per level.

    Each value is a Frobenius norm of something that must vanish, and
    bounds its spectral norm; no eigensolve runs.  V_DECOMP is
    ||V - sum c Xi||_F, the worse of the two levels.  For PHI_COMMUTE:
    ``johnson.transporter`` builds Phi_j compressed to the two j-th
    blocks, so Phi_j = Q_j S_j Qhat_j^T with S_j = Q_j^T Phi_j Qhat_j, and
    each channel's commutation difference (Phi_{j+m} tensor I) Xihat -
    Xi Phi_j has the norms of the core difference
    (S_{j+m} tensor I) Khat/||Khat|| - (K/||K||) S_j; the largest counts.
    The difference is formed one ground slice i at a time, and the squared
    Frobenius norms of its slices add up, so no core-sized temporary is held.
    Also returns how many channels PHI_COMMUTE compared.
    """
    # The larger k' pass first, so that the k pass's result does not sit under its peak.
    channels_hat, residual_hat = _hatted_level_channels(inst.n, inst.k_prime)
    channels, residual = _level_channels(inst.n, inst.k, hatted=False)
    x, y = _level(inst.n, inst.k), _level(inst.n, inst.k_prime)
    s = [
        x.q_all[:, x.edges[j] : x.edges[j + 1]].T
        @ johnson.transporter(inst.n, inst.k, inst.k_prime, j)
        @ y.q_all[:, y.edges[j] : y.edges[j + 1]]
        for j in range(inst.k + 1)
    ]
    worst = 0.0
    for (j, el, m), core in channels.items():
        # Cores are (a, i, b): one ground slice i of both at a time.
        core_hat = channels_hat[j, el, m]
        square = 0.0
        for i in range(core.shape[1]):
            moved = s[j + m] @ core_hat[:, i]
            moved -= core[:, i] @ s[j]
            square += float(np.vdot(moved, moved))
        worst = max(worst, math.sqrt(square))
    return max(residual, residual_hat), worst, len(channels)


def _check_v_decomp(inst: ProblemInstance, t: float, ell: int):
    residual = _channel_norms(inst)[0]
    return 0.0, residual, residual, {}


def _check_phi_commute(inst: ProblemInstance, t: float, ell: int):
    _, worst, compared = _channel_norms(inst)
    # Level k keeps every live core.  A channel left uncompared fails the
    # row, as PROJECTORS fails a rank mismatch: the gap of at least 1 lies
    # above TOL_NORM.
    gap = worst if compared == len(_live_channels(inst.k)) else max(worst, 1.0)
    return 0.0, worst, gap, {"channels_compared": compared}


def _table_vector_gaps(n: int, k: int, j: int) -> float:
    refs = johnson.reference_vectors(n, k, j)
    t2, t4 = johnson.basis_change_tables(n, k, j)
    # Entry (a, b) is <w_a, v_b>, if both exist.  At j = k the one-fixed
    # partners degenerate and w_out coincides with v.
    w_out = refs.v if refs.w_out is None else refs.w_out
    tables = [(t2, (w_out, refs.w_in), (refs.v, refs.v_tilde))]
    if t4 is not None:
        rows = (refs.w_empty, refs.w_c, refs.w_d, refs.w_cd)
        tables.append((t4, rows, (refs.v_minus, refs.v, refs.v_zero, refs.v_plus)))
    gap = 0.0
    for table, rows, cols in tables:
        gap = max(gap, float(np.max(np.abs(table @ table.T - np.eye(len(table))))))
        for a, w in enumerate(rows):
            for b, v in enumerate(cols):
                if w is not None and v is not None:
                    gap = max(gap, abs(float(w @ v) - table[a, b]))
    return gap


@lru_cache(maxsize=None)
def _level_table_gap(n: int, level: int) -> float:
    """The worst TABLES gap over the blocks of one level, memoised per level."""
    return max(_table_vector_gaps(n, level, j) for j in range(level + 1))


def _check_tables(inst: ProblemInstance, t: float, ell: int):
    gap = max(_level_table_gap(inst.n, level) for level in (inst.k, inst.k_prime))
    return 0.0, gap, gap, {}


def _check_projectors(inst: ProblemInstance, t: float, ell: int):
    levels = [_level(inst.n, level) for level in (inst.k_prime, inst.k)]
    gap = max(record.projector_gap for record in levels)
    ranks_match = all(record.ranks_match for record in levels)
    # A rank mismatch is a hard failure regardless of the numeric gap: the
    # gap of at least 1 lies above TOL_EXACT.
    if not ranks_match:
        gap = max(gap, 1.0)
    return 0.0, gap, gap, {"ranks_match": ranks_match}


def _check_norm_gamma(inst: ProblemInstance, t: float, ell: int):
    """||Gamma|| against the largest closed row |gamma_j|."""
    closed = float(_closed_rows(inst, t).gamma.max())
    brute = linalg.spectral_norm(_adversary_matrix(inst, t))
    return closed, brute, abs(brute - closed), {}


def _check_psi_power(inst: ProblemInstance, t: float, ell: int):
    """||Gamma o P^ell|| must reach D^ell/2, D the least closed overlap of rows j <= min(ell, k)."""
    overlap = _closed_rows(inst, t).overlap[: adversary.gram_power_rows(inst, t, ell)]
    bound = adversary.gram_power_bound(float(overlap.min()), ell)
    brute = linalg.spectral_norm(_adversary_matrix(inst, t) * psi_gram(inst) ** ell)
    return bound, brute, max(0.0, bound - brute), {}


class _Check(NamedTuple):
    """What one check is: ``verify`` and ``sweep`` read nothing else about it."""

    run: Callable  # (inst, t, ell) -> (closed, brute, discrepancy, details)
    tolerance: str  # "norm" (TOL_NORM, eigensolver-limited) or "exact" (TOL_EXACT)
    reads_schedule: bool  # False: the row is the same at every t
    reads_level: bool  # the row reads the ``_level`` records of its two levels
    bounded_detail: str | None  # a detail also held to TOL_EXACT
    description: str


# DELTA_MEMB bounds the spread over the singled-out element and DELTA_REFL
# its structure residual relative to its Gram scalars, on top of the gap.
_CHECKS = {
    "PSI_COEFFS": _Check(_check_psi_coeffs, "norm", True, True, None,
        "transporter coefficients of the Gram-Hadamard product match the four-term recurrence"),
    "DELTA_GEN": _Check(_check_delta_gen, "norm", True, False, None,
        "state-generation difference norms match the max vector-norm formulas"),
    "DELTA_REFL": _Check(_check_delta_refl, "norm", True, True, "structure_residual",
        "reflection difference norm matches the max 4x4 rank-two norm formula"),
    "DELTA_MEMB": _Check(_check_delta_memb, "norm", True, False, "spread_over_i",
        "membership difference norm matches the two-branch formula, "
        "identically in the singled-out element"),
    "V_DECOMP": _Check(_check_v_decomp, "norm", False, True, None,
        "the superposition isometry decomposes over the four transporter channels"),
    "PHI_COMMUTE": _Check(_check_phi_commute, "norm", False, True, None,
        "level transporters commute with the channel transporters, signs included"),
    "TABLES": _Check(_check_tables, "exact", False, False, None,
        "closed-form basis-change tables are orthogonal and match the constructed reference vectors"),
    "PROJECTORS": _Check(_check_projectors, "exact", False, True, None,
        "block projectors form a complete orthogonal idempotent family with the predicted ranks"),
    "NORM_GAMMA": _Check(_check_norm_gamma, "norm", True, False, None,
        "the assembled certificate matrix has spectral norm equal to its top weight"),
    "PSI_POWER": _Check(_check_psi_power, "norm", True, False, None,
        "the entrywise Gram power keeps the certificate norm above the overlap bound"),
}
CHECK_IDS = tuple(_CHECKS)
CHECK_DESCRIPTIONS = {check_id: check.description for check_id, check in _CHECKS.items()}
_SCHEDULE_FREE = frozenset(cid for cid, check in _CHECKS.items() if not check.reads_schedule)


def verify(
    check_id: str,
    inst: ProblemInstance,
    t: float = 1.0,
    ell: int = 0,
) -> DiscrepancyReport:
    """Run one cross-check, building both sides explicitly.

    PSI_POWER reads ``ell`` (and requires t >= 2 ell); the schedule-free
    checks ignore ``t``.  The report's ``discrepancy`` is the worst gap
    found, or for DELTA_MEMB a bound on it.  DELTA_MEMB and DELTA_REFL
    also need their ``bounded_detail`` within TOL_EXACT.  Both tolerances
    are read at call time.  A schedule-free row that missed no memo (see
    the module docstring) is ``memoised``: its ``wall_ms`` was only
    lookups, and an earlier row paid the cost.
    """
    if check_id not in _CHECKS:
        raise ValueError(f"unknown check id {check_id!r}; known: {CHECK_IDS}")
    check_instance(inst)
    check = _CHECKS[check_id]
    misses = None if check.reads_schedule else _memo_misses()
    start = time.perf_counter()
    closed, brute, gap, details = check.run(inst, t, ell)
    wall_ms = (time.perf_counter() - start) * 1000.0
    memoised = misses is not None and _memo_misses() == misses
    tolerance = TOL_NORM if check.tolerance == "norm" else TOL_EXACT
    passed = gap <= tolerance
    if check.bounded_detail is not None:
        passed = passed and details[check.bounded_detail] <= TOL_EXACT
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


def _build_levels(group, t_values, checks) -> None:
    """Build one n's projector families, largest level first, and read off what its rows need.

    Once a level's family is built, the Phi_j of each instance whose k
    level it is come first (its k' family, larger, is built already): all
    k + 1 for the channel pass and PSI_COEFFS, else as many as its Gammas
    read.  Then comes the level's ``_level`` record, if a chosen check
    reads one (``_Check.reads_level``); a TABLES run alone builds none.
    After this no row of the n reads a family.  The order was picked by
    peak RSS: with each Phi_j built after its k level's bases, (14,3,4)
    read 136 MB where it reads 114 MB.
    """
    checks = set(checks)
    n = group[0].n
    every_phi = not checks.isdisjoint({"PSI_COEFFS", "V_DECOMP", "PHI_COMMUTE"})
    gammas = any(_CHECKS[check].reads_schedule for check in checks)
    records = any(_CHECKS[check].reads_level for check in checks)
    for level in sorted({lv for inst in group for lv in (inst.k, inst.k_prime)}, reverse=True):
        for inst in (inst for inst in group if inst.k == level):
            if every_phi:
                phis = inst.k + 1
            else:
                live = (adversary.live_rows(t, inst.k) for t in t_values)
                phis = max(live, default=0) if gammas else 0
            for j in range(phis):
                johnson.transporter(n, inst.k, inst.k_prime, j)
        if records:
            _level(n, level)


def sweep(instances, t_values, checks, build_s=None) -> list[DiscrepancyReport]:
    """Every (check, instance, t) row, in run order; each memo ends here.

    Every instance is admitted before any row runs.  Instances run
    level-major, by (n, k', k), so those that share a level run back to
    back and its memoised work is done once.  Each n takes one build step
    and two row phases:

    1. ``_build_levels`` builds its projector families, largest first,
       and each instance's Phi_j, and reads each level's ``_level``
       record if a chosen check reads one; then the families are freed,
       so no family lies under any row;
    2. its rows but DELTA_GEN: the cutoff rows, then the schedule-free
       rows;
    3. after ``clear_memos``, its DELTA_GEN rows, whose lifted differences
       are the largest arrays of the sweep; they sum Gamma again from the
       cached Phi_j, and ``clear_memos`` ends them.

    Inside a phase each instance runs t-major, so its memos serve t >= 2.
    PSI_POWER runs at ell = floor(t / 2).  A dict passed as ``build_s``
    receives each n's build-step seconds, which no row's time includes.
    """
    for inst in instances:
        check_instance(inst)
    rows = [
        (check, float(t), int(t) // 2 if check == "PSI_POWER" else 0)
        for t in t_values
        for check in checks
    ]

    def rows_of(ids):
        return [row for row in rows if row[0] in ids]

    cutoff = rows_of(set(CHECK_IDS) - _SCHEDULE_FREE - {"DELTA_GEN"})
    free = rows_of(_SCHEDULE_FREE)
    delta_gen = rows_of({"DELTA_GEN"})
    groups: dict[int, list] = {}
    for inst in sorted(instances, key=lambda i: (i.n, i.k_prime, i.k)):
        groups.setdefault(inst.n, []).append(inst)
    reports = []

    def run(group, phase_rows):
        for inst in group:
            # ``verify`` as a module global, so a wrapper set on the module sees each row.
            reports.extend(verify(check, inst, t, ell) for check, t, ell in phase_rows)

    for index, (n, group) in enumerate(groups.items()):
        # An n's Johnson objects serve no larger n.  The memos keep their
        # miss counts across a clear, which the benchmark's warm-cache gate
        # reads after a traced sweep has returned.
        if index:
            johnson.clear_caches()
        start = time.perf_counter()
        _build_levels(group, t_values, checks)
        johnson.drop_projector_families()
        if build_s is not None:
            build_s[n] = time.perf_counter() - start
        run(group, cutoff)
        run(group, free)
        clear_memos()
        run(group, delta_gen)
        clear_memos()
    return reports
