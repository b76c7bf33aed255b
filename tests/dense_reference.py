"""Dense references that only the tests use.

The rank-one lifts expand each entry of a matrix by the n-by-n block
psi psi^T of one side's superposition vector.  The package never forms
them: DELTA_REFL takes its norm from the factored product of the
single-vector lifts.  They stay here as the definition the factored
form is gated against, with the same label-major block ordering as
``bruteforce.lift``.
"""

import numpy as np

from countbench import bruteforce, johnson, linalg


def _rank_one_lift(m, side_basis: johnson.SubsetBasis, rows_side: bool) -> np.ndarray:
    m = linalg.as_matrix(m)
    n = side_basis.n
    psi = bruteforce.psi_matrix(side_basis.n, side_basis.k)
    rows, cols = m.shape
    if (rows if rows_side else cols) != len(side_basis):
        raise ValueError(f"shape {m.shape} does not match basis size {len(side_basis)}")
    spec = "xy,xi,xj->xiyj" if rows_side else "xy,yi,yj->xiyj"
    return np.einsum(spec, m, psi, psi, optimize=True).reshape(rows * n, cols * n)


def row_psi_psi_star(m, basis_x: johnson.SubsetBasis) -> np.ndarray:
    """Block (x, y) of the result is m[x, y] psi_x psi_x^T."""
    return _rank_one_lift(m, basis_x, rows_side=True)


def col_psi_psi_star(m, basis_y: johnson.SubsetBasis) -> np.ndarray:
    """Block (x, y) of the result is m[x, y] psi_y psi_y^T."""
    return _rank_one_lift(m, basis_y, rows_side=False)


def unit_norm_error(table) -> float:
    """Largest deviation from 1 of the norms of a PhiTable's coefficient rows."""
    norms = np.concatenate(
        [np.linalg.norm(table.phi, axis=1), np.linalg.norm(table.phi_prime, axis=1)]
    )
    return float(np.max(np.abs(norms - 1.0)))
