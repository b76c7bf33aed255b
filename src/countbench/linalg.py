"""Dense real linear-algebra kernel shared by the whole workbench.

Matrices are plain 2-D float64 numpy arrays in row-major order.  The
routines are thin wrappers around LAPACK (via numpy) that pin down the
conventions everything downstream relies on: spectral norms computed
through the smaller Gram matrix and a relative singular-value cutoff for
rank decisions.
"""

from __future__ import annotations

import math

import numpy as np

# Relative cutoff below which a singular value does not count toward rank.
# The scheme matrices built downstream have integer-combinatorial entries
# with well separated singular values, so the exact value is uncritical.
DEFAULT_RANK_TOL = 1e-10

# Largest entry magnitudes whose squares are normal floats and whose Gram
# sums cannot overflow for any matrix that fits in memory.
_GRAM_SAFE_LOW = 2.0**-400
_GRAM_SAFE_HIGH = 2.0**400


def freeze(a: np.ndarray) -> np.ndarray:
    """``a`` as a C-contiguous, read-only array, for values a cache hands out."""
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def as_matrix(values) -> np.ndarray:
    """Coerce ``values`` to a nonempty 2-D float64 array with finite entries."""
    m = np.asarray(values, dtype=float)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"matrix must be a nonempty 2-D array, got shape {m.shape}")
    # Two reductions rather than np.isfinite(m), which would allocate an
    # input-sized bool array: max and min propagate NaN and reach +-inf.
    if not (math.isfinite(m.max()) and math.isfinite(m.min())):
        raise ValueError("matrix contains non-finite entries")
    return m


def spectral_norm(values) -> float:
    """Largest singular value of a matrix.

    Computed from the symmetric eigendecomposition of m m^T or m^T m,
    whichever is smaller; accurate to about 1e-10 relative for the top
    singular value.  A matrix whose Gram would underflow or overflow is
    rescaled first (``gram_safe``).
    """
    m, scale = gram_safe(as_matrix(values))
    if m.shape[0] <= m.shape[1]:
        gram = m @ m.T
    else:
        gram = m.T @ m
    return scale * gram_norm(gram)


def gram_safe(m: np.ndarray) -> tuple[np.ndarray, float]:
    """``(m / scale, scale)``, with ``scale`` a power of two that keeps the Gram finite.

    ``m`` itself and 1.0 while max|m| lies in [2^-400, 2^400]: the squares
    of the largest entries are then normal floats and no Gram entry
    overflows, so such inputs take the unscaled path bit for bit.  Beyond
    that range, the power of two that brings max|m| into [1, 2); dividing
    by it and multiplying a norm back are exact.
    """
    # Two reductions rather than np.abs(m), which would copy m.
    top = max(float(m.max()), -float(m.min()))
    if top == 0.0 or _GRAM_SAFE_LOW <= top <= _GRAM_SAFE_HIGH:
        return m, 1.0
    scale = math.ldexp(1.0, math.frexp(top)[1] - 1)
    return m / scale, scale


def gram_norm(gram: np.ndarray) -> float:
    """Square root of the top eigenvalue of a symmetric positive semidefinite matrix.

    Reads the lower triangle only.  A top eigenvalue that round-off takes
    below zero reads 0.
    """
    top = float(np.linalg.eigvalsh(gram)[-1])
    return float(np.sqrt(max(top, 0.0)))


def orthonormal_column_basis(values) -> np.ndarray:
    """Orthonormal basis of the column space of a matrix.

    A singular value counts toward the rank iff it exceeds
    ``DEFAULT_RANK_TOL`` times the largest one.  A zero matrix yields a
    0-column result rather than an error.
    """
    m = as_matrix(values)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((m.shape[0], 0))
    rank = int(np.count_nonzero(s > DEFAULT_RANK_TOL * s[0]))
    return np.ascontiguousarray(u[:, :rank])
