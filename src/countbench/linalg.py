"""Dense real linear-algebra kernel shared by the whole workbench.

Matrices are plain 2-D float64 numpy arrays in row-major order.  The
routines are thin wrappers around LAPACK (via numpy) that pin down the
conventions everything downstream relies on: spectral norms, also of a
stack, through the smaller Gram (the package's only ``eigvalsh``), a
relative singular-value cutoff for rank decisions, and the readout of a
Gram that is a scalar on each block of a projector family.
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

# Entries per band of rows in ``block_scalars``: the band's scaled
# projector rows are its only temporary.
_BAND_ENTRIES = 1 << 16


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


def spectral_norm(values) -> float | np.ndarray:
    """Largest singular value of a matrix, or of each matrix in a stack.

    A 2-D input gives a float, a stack (..., r, c) an array of shape (...).
    Computed from the symmetric eigendecomposition of m m^T or m^T m,
    whichever is smaller; accurate to about 1e-10 relative.  An input whose
    Grams would underflow or overflow is rescaled first, a stack by one
    power of two (``gram_safe``).
    """
    m = np.asarray(values, dtype=float)
    # A stack is checked as one row of all its entries.
    as_matrix(m.reshape(1, -1) if m.ndim > 2 else m)
    m, scale = gram_safe(m)
    m_t = m.swapaxes(-1, -2)
    gram = m @ m_t if m.shape[-2] <= m.shape[-1] else m_t @ m
    # eigvalsh reads the lower triangle only; round-off can take a zero
    # top eigenvalue below zero, which reads 0.
    norms = scale * np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))
    return float(norms) if m.ndim == 2 else norms


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


def block_scalars(gram: np.ndarray, projectors) -> tuple[np.ndarray, float]:
    """The scalars of a Gram on the blocks of a projector family, and the residual.

    For orthogonal projectors E_j of ranks d_j that sum to I, returns
    m_j = <M, E_j> / d_j for each j and ||M - sum_j m_j E_j||_F.  An
    S_n-equivariant Gram on a Johnson level is sum_j m_j E_j by Schur's
    lemma, and for any symmetric M, Weyl's inequality bounds
    |lambda_max(M) - max_j m_j| by that residual: the pair is a certified
    top eigenvalue, read in O((k+1) N^2) with no eigensolve.  ``gram``
    is overwritten by the residual, one band of rows at a time, so no
    second N x N array is formed.
    """
    m = np.array([np.vdot(gram, e) / round(float(np.trace(e))) for e in projectors])
    step = max(1, _BAND_ENTRIES // len(gram))
    for lo in range(0, len(gram), step):
        band = gram[lo : lo + step]
        for m_j, e in zip(m, projectors):
            band -= m_j * e[lo : lo + step]
    return m, float(np.linalg.norm(gram))


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
