"""Dense references that only the tests use.

``subsets`` enumerates the k-subsets of {1..n} in lexicographic order with
``itertools``, independently of the package's bit masks, and ``index_of``
ranks one of them.  ``psi_matrix`` is the per-subset loop that defines the superposition
rows; ``bruteforce.psi_matrix`` reads them off the subset bit masks and
is gated against this loop bit for bit.

The channel checks build every Xi channel at full size, the definition
the block-coordinate channel pass of ``bruteforce`` is gated against.
``build_projection_pair`` gives the dense Pi_0 and Pi_1 that the Xi
builder applies as a block mean and its remainder.
``channel_checks`` takes the Frobenius norms of the full-size residual
and commutation differences, with no structure assumed, so it gates the
package's sums of squares over the block cores.  ``frobenius_residual``
takes the residual of one level with the block pass's normalisers, which
a non-equivariant superposition tells apart from the spectral ones.
The one-sided lifts expand each entry of a matrix by the superposition
vector of its row label (``row_psi``, ``row_psi_star``) or its column
label (``col_psi``, ``col_psi_star``), as a column vector (PSI) or a row
covector (PSI_STAR); lifted indices are label-major, row (x, i) and
column (y, i).  ``bruteforce.lift`` forms DELTA_GEN's two differences,
row_psi - col_psi and row_psi_star - col_psi_star, in one array each, and
is gated against these bit for bit; ``isometry`` is row_psi of an
identity, and ``kron_apply`` applies a block operator tensor I_n.
The rank-one lifts expand each entry of a matrix by the n-by-n block
psi psi^T of one side's superposition vector.  The package never forms
them, nor any other lifted array for DELTA_REFL: it reads the norm of
their difference off the Johnson blocks of two level-sized remainder
Grams built from gamma, the superposition rows and the overlap matrix.
They stay here as the definition that split and readout are gated
against, with the same label-major block ordering.
``remainder_gram_norm`` is the exact-eigenvalue norm of the split, for a
gamma that is not equivariant, where the block readout does not apply.
``delta_membership_mask`` is the 0/1 matrix Delta_i whose entrywise product
with gamma defines the membership difference; the package takes that norm
from two blocks of gamma instead.
``projector_family_gap`` tests each defining property of a projector
family pairwise, the definition that PROJECTORS' two products over the
shared block eigenbasis are gated against.
"""

import itertools
import math

import numpy as np

from countbench import adversary, bruteforce, johnson, linalg


def subsets(n: int, k: int) -> list:
    """The k-subsets of {1..n} as sorted tuples, in lexicographic order."""
    return list(itertools.combinations(range(1, n + 1), k))


def index_of(n: int, k: int, subset) -> int:
    """Position of ``subset`` in ``subsets(n, k)``."""
    return subsets(n, k).index(tuple(sorted(subset)))


def psi_matrix(n: int, k: int) -> np.ndarray:
    """Rows are the uniform unit superpositions over each k-subset of {1..n}."""
    level = subsets(n, k)
    out = np.zeros((len(level), n))
    if k == 0:
        return out
    for idx, subset in enumerate(level):
        for e in subset:
            out[idx, e - 1] = 1.0
    return out / math.sqrt(k)


def row_psi(m, psi) -> np.ndarray:
    """Row (x, i) is psi[x, i] m[x, :]; ``psi`` is the ``psi_matrix`` of m's row level."""
    return (psi[:, :, None] * m[:, None, :]).reshape(-1, m.shape[1])


def row_psi_star(m, psi) -> np.ndarray:
    """Column (y, i) of row x is m[x, y] psi[x, i]; ``psi`` as in ``row_psi``."""
    return np.einsum("xy,xi->xyi", m, psi).reshape(len(m), -1)


def col_psi(m, psi) -> np.ndarray:
    """Row (x, i) of column y is m[x, y] psi[y, i]; ``psi`` is that of m's column level."""
    return np.einsum("xy,yi->xiy", m, psi, order="C").reshape(-1, m.shape[1])


def col_psi_star(m, psi) -> np.ndarray:
    """Column (y, i) of row x is m[x, y] psi[y, i]; ``psi`` as in ``col_psi``."""
    return np.einsum("xy,yi->xyi", m, psi).reshape(len(m), -1)


def kron_apply(block_op: np.ndarray, m: np.ndarray, n: int) -> np.ndarray:
    """(block_op tensor I_n) @ m for a lifted m with row blocks of length n, as one GEMM."""
    cols = m.shape[1]
    return (block_op @ m.reshape(block_op.shape[1], n * cols)).reshape(-1, cols)


def _rank_one_lift(m, n: int, k: int, rows_side: bool) -> np.ndarray:
    m = linalg.as_matrix(m)
    psi = psi_matrix(n, k)
    rows, cols = m.shape
    if (rows if rows_side else cols) != len(subsets(n, k)):
        raise ValueError(f"shape {m.shape} does not match the {k}-subsets of [{n}]")
    spec = "xy,xi,xj->xiyj" if rows_side else "xy,yi,yj->xiyj"
    return np.einsum(spec, m, psi, psi, optimize=True).reshape(rows * n, cols * n)


def row_psi_psi_star(m, n: int, k: int) -> np.ndarray:
    """Block (x, y) of the result is m[x, y] psi_x psi_x^T; rows are k-subsets."""
    return _rank_one_lift(m, n, k, rows_side=True)


def col_psi_psi_star(m, n: int, k: int) -> np.ndarray:
    """Block (x, y) of the result is m[x, y] psi_y psi_y^T; columns are k-subsets."""
    return _rank_one_lift(m, n, k, rows_side=False)


def delta_membership_mask(inst, i: int) -> np.ndarray:
    """0/1 matrix marking pairs (x, y) that disagree on membership of i."""
    if not (1 <= i <= inst.n):
        raise ValueError(f"element must lie in [{inst.n}], got {i}")
    bit = 1 << (i - 1)
    in_x = (johnson.subset_basis(inst.n, inst.k) & bit) != 0
    in_y = (johnson.subset_basis(inst.n, inst.k_prime) & bit) != 0
    return (in_x[:, None] ^ in_y[None, :]).astype(float)


def projector_family_gap(n: int, projectors) -> tuple[float, bool]:
    """The largest entry of sum E_j - I, E_j^2 - E_j, E_j - E_j^T and E_i E_j (i < j),
    and whether each E_j's rounded trace is ``johnson.block_dimension(n, j)``."""
    gap = float(np.max(np.abs(sum(projectors) - np.eye(len(projectors[0])))))
    rank_ok = True
    for j, e in enumerate(projectors):
        gap = max(gap, float(np.max(np.abs(e @ e - e))), float(np.max(np.abs(e - e.T))))
        if int(round(float(np.trace(e)))) != johnson.block_dimension(n, j):
            rank_ok = False
        for other in projectors[j + 1 :]:
            gap = max(gap, float(np.max(np.abs(e @ other))))
    return gap, rank_ok


def remainder_gram_norm(inst, gamma) -> float:
    """The lifted reflection difference's norm from the top eigenvalues of its remainder Grams."""
    c, e, scale = bruteforce._reflection_remainder_grams(inst, gamma)
    top = max(np.linalg.eigvalsh(c)[-1], np.linalg.eigvalsh(e)[-1], 0.0)
    return scale * math.sqrt(top)


def build_projection_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(Pi_0, Pi_1): the uniform-direction projector on R^n and its complement."""
    if n < 2:
        raise ValueError("need n >= 2")
    pi0 = np.full((n, n), 1.0 / n)
    return pi0, np.eye(n) - pi0


def unit_norm_error(tables) -> float:
    """Largest deviation from 1 of the row norms of a (phi, phi_prime) pair."""
    norms = np.concatenate([np.linalg.norm(rows, axis=1) for rows in tables])
    return float(np.max(np.abs(norms - 1.0)))


def isometry(inst, hatted: bool = False) -> np.ndarray:
    """The superposition isometry V (V-hat when hatted) as a dense matrix."""
    psi = bruteforce.psi_matrix(inst.n, inst.k_prime if hatted else inst.k)
    return row_psi(np.eye(len(psi)), psi)


def frobenius_residual(inst, hatted: bool = False) -> float:
    """||V - sum c Xi||_F on one level, each Xi normalised by ||raw||_F / sqrt(d_j).

    That is the channel pass's normaliser, here applied to the full-size
    raw channels of ``bruteforce._xi_raw``.  For an equivariant V it is
    the spectral norm that ``build_xi`` divides by; for a planted,
    non-equivariant superposition it is not, and this is the value the
    block pass must still reproduce.
    """
    level = inst.k_prime if hatted else inst.k
    coeffs = adversary.phi_components(inst.n, level, np.arange(level + 1))
    residual = isometry(inst, hatted)
    for comp, j, el, m in bruteforce._live_channels(level):
        raw = bruteforce._xi_raw(inst, j, el, m, hatted)
        scale = np.linalg.norm(raw) / math.sqrt(johnson.block_dimension(inst.n, j))
        residual -= coeffs[j, comp] / scale * raw
    return float(np.linalg.norm(residual))


def channel_checks(inst) -> dict:
    """V_DECOMP and PHI_COMMUTE values from the explicit Xi channel matrices.

    Each Xi, plain and hatted, is built at full size by ``build_xi`` and
    subtracted with its coefficient from the residual of its level's
    isometry; the V_DECOMP value is the residual's Frobenius norm, the
    worse of the two levels.  For j <= k the plain and hatted pair of a
    channel gives its PHI_COMMUTE difference
    (Phi_{j+m} tensor I) Xihat - Xi Phi_j, and the PHI_COMMUTE value is the
    largest Frobenius norm of these.
    """
    coeffs = adversary.phi_components(inst.n, inst.k, np.arange(inst.k + 1))
    coeffs_hat = adversary.phi_components(inst.n, inst.k_prime, np.arange(inst.k_prime + 1))
    residual = isometry(inst)
    residual_hat = isometry(inst, hatted=True)
    live = bruteforce._live_channels(inst.k)
    worst = 0.0
    for comp, j, el, m in bruteforce._live_channels(inst.k_prime):
        xi_hat = bruteforce.build_xi(inst, j, el, m, hatted=True)
        residual_hat -= coeffs_hat[j, comp] * xi_hat
        if (comp, j, el, m) not in live:
            continue
        xi = bruteforce.build_xi(inst, j, el, m)
        residual -= coeffs[j, comp] * xi
        phi_moved = johnson.transporter(inst.n, inst.k, inst.k_prime, j + m)
        diff = kron_apply(phi_moved, xi_hat, inst.n)
        diff -= xi @ johnson.transporter(inst.n, inst.k, inst.k_prime, j)
        worst = max(worst, float(np.linalg.norm(diff)))
    v_decomp = float(max(np.linalg.norm(residual), np.linalg.norm(residual_hat)))
    return {"V_DECOMP": v_decomp, "PHI_COMMUTE": worst}
