"""Subset association scheme: bases, block projectors, transporters.

The space spanned by all k-subsets of {1..n} carries the natural
permutation action and, for n >= 2k, splits into k+1 irreducible blocks
(one per two-row shape), the j-th of which also appears once on every
other level j <= k <= n-k.  This module builds that machinery
explicitly:

* subset bit masks in lexicographic order,
* set-inclusion operators between levels,
* the orthogonal projectors E_0..E_k onto the irreducible blocks, as a
  tuple of matrices, and their predicted ranks,
* the norm-one transporters Phi_j between the j-th blocks of two
  levels, sign-fixed so that the large-level reference vector maps onto
  the small-level one,
* the fixed-element reference vectors (one and two fixed elements) and
  the closed-form orthogonal tables expressing one family in the other.

Construction is pure.  The subset masks, projectors, transporters and
reference vectors are cached and returned read-only; the inclusion matrices,
read once by each projector family and transporter built from them, are
rebuilt on each call, so that none outlives its reader.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import linalg

# Combinatorial explosion guard for subset enumeration.
MAX_GROUND_SET = 20

# A transporter whose raw inclusion morphism has spectral norm below this
# is degenerate; constructing it would mean guessing a sign.
DEGENERATE_SCALE = 1e-8


@lru_cache(maxsize=None)
def subset_basis(n: int, k: int) -> np.ndarray:
    """Bit masks of the k-subsets of {1..n} in lexicographic order, read-only.

    Bit e-1 of a mask is set iff element e is in the subset.
    """
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if n > MAX_GROUND_SET:
        raise ValueError(f"ground set size {n} exceeds cap {MAX_GROUND_SET}")
    masks = [
        sum(1 << (e - 1) for e in subset)
        for subset in itertools.combinations(range(1, n + 1), k)
    ]
    return linalg.freeze(np.array(masks, dtype=np.int64))


def inclusion_matrix(n: int, k: int, j: int) -> np.ndarray:
    """0/1 matrix W with W[x, s] = 1 iff the j-subset s is contained in x.

    Not cached: its readers, ``irrep_projectors`` and ``transporter``, are,
    and a cached W would stay live under every later peak.
    """
    if not (0 <= j <= k <= n):
        raise ValueError(f"need 0 <= j <= k <= n, got n={n}, k={k}, j={j}")
    rows = subset_basis(n, k)
    cols = subset_basis(n, j)
    w = (rows[:, None] & cols[None, :]) == cols[None, :]
    return w.astype(float)


def block_dimension(n: int, j: int) -> int:
    """Predicted rank C(n, j) - C(n, j-1) of E_j; the measured one is its rounded trace."""
    return math.comb(n, j) - (math.comb(n, j - 1) if j >= 1 else 0)


@lru_cache(maxsize=None)
def irrep_projectors(n: int, k: int) -> tuple[np.ndarray, ...]:
    """Read-only (E_0, ..., E_k) from nested column spaces of inclusion operators.

    E_j = P_j - P_{j-1}, where P_j projects onto the column space of
    inclusion_matrix(n, k, j).  Requires n >= 2k, the regime in which the
    level decomposes multiplicity-free into blocks j = 0..k.
    inclusion_matrix(n, k, k) is the identity, so P_k = I takes no SVD.
    """
    if n < 2 * k:
        raise ValueError(f"projector decomposition needs n >= 2k, got n={n}, k={k}")
    projectors = []
    size = math.comb(n, k)
    prev = np.zeros((size, size))
    for j in range(k):
        q = linalg.orthonormal_column_basis(inclusion_matrix(n, k, j))
        p = q @ q.T
        p = (p + p.T) / 2.0
        projectors.append(linalg.freeze(p - prev))
        prev = p
    projectors.append(linalg.freeze(np.eye(size) - prev))
    return tuple(projectors)


@lru_cache(maxsize=None)
def transporter(n: int, k: int, k_prime: int, j: int) -> np.ndarray:
    """Read-only Phi_j from block j of level k' onto block j of level k.

    It compresses the set-inclusion morphism W to one block.  E_j W Ehat_j
    is equivariant, hence a scalar multiple of the unique transporter;
    dividing by its only nonzero singular value makes it a partial
    isometry, and the sign is fixed by <v, Phi vhat> > 0 for the
    reference vectors of the two levels, which forces Phi vhat = v.
    """
    if not (0 <= j <= k < k_prime <= n - k_prime):
        raise ValueError(
            f"need 0 <= j <= k < k' <= n - k', got n={n}, k={k}, k'={k_prime}, j={j}"
        )
    e = irrep_projectors(n, k)[j]
    e_hat = irrep_projectors(n, k_prime)[j]
    contains = inclusion_matrix(n, k_prime, k).T  # [x, y] = 1 iff x subset of y
    raw = e @ contains @ e_hat
    scale = linalg.spectral_norm(raw)
    if scale < DEGENERATE_SCALE:
        raise ArithmeticError(
            f"degenerate inclusion morphism at (n={n}, k={k}, k'={k_prime}, j={j}): "
            f"scale {scale:.3e} below {DEGENERATE_SCALE:.0e}, sign undetermined"
        )
    phi = raw / scale
    v = reference_vectors(n, k, j).v
    v_hat = reference_vectors(n, k_prime, j).v
    if float(v @ phi @ v_hat) < 0.0:
        phi = -phi
    return linalg.freeze(phi)


# ---------------------------------------------------------------------------
# Reference vectors.
#
# Each vector is a sum of signed terms built by ``_signed_sum``: the
# alternating top pairs ({n}-{n-1}) box ({n-2}-{n-3}) box ..., then fixed
# elements, then all subsets of a given size of a free set, as a disjoint
# union.  Its integer coefficients are read off each subset's bit mask,
# for all terms of a sum in one pass; terms add as integers and ``_unit``
# normalises once, a positive multiple, so signs match the defining sums.
# ---------------------------------------------------------------------------


def _bits(elements) -> int:
    return sum(1 << (e - 1) for e in elements)


def _signed_sum(masks, terms, fixed, size: int) -> np.ndarray:
    """Coefficients of a sum of terms ({a1}-{b1}) box ... box {fixed} box (size-subsets of free).

    Each of ``terms`` is a pair (pairs, free), every one with as many pairs.
    The coefficient of subset x in one term is [x within the support]
    [fixed within x] [|x & free| = size] times bit_a(x) - bit_b(x) per
    pair (a, b), which is 0 when x holds both elements of the pair or
    neither.  The terms are rows of one integer array, summed at the end.
    """
    pair_bits = np.array(
        [[[1 << (a - 1), 1 << (b - 1)] for a, b in pairs] for pairs, _ in terms],
        dtype=np.int64,
    ).reshape(len(terms), -1, 2)
    fixed_bits = _bits(fixed)
    free_bits = np.array([_bits(free) for _, free in terms], dtype=np.int64)[:, None]
    support = np.bitwise_or.reduce(pair_bits.reshape(len(terms), -1), axis=1)[:, None]
    support |= fixed_bits | free_bits
    # The factors are disjoint iff their bit counts add up to the support's.
    parts = 2 * pair_bits.shape[1] + fixed_bits.bit_count() + np.bitwise_count(free_bits)
    if np.any(np.bitwise_count(support) != parts):
        raise RuntimeError("disjoint-union factors overlap")
    coeff = (
        ((masks & ~support) == 0)
        & ((masks & fixed_bits) == fixed_bits)
        & (np.bitwise_count(masks & free_bits) == size)
    ).astype(np.int64)
    for a, b in pair_bits.transpose(1, 2, 0)[:, :, :, None]:
        coeff *= ((masks & a) != 0).astype(np.int64) - ((masks & b) != 0)
    return coeff.sum(axis=0)


def _unit(coeff) -> np.ndarray:
    vec = coeff.astype(float)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ArithmeticError("reference sum collapsed to the zero vector")
    return linalg.freeze(vec / norm)


@dataclass(frozen=True)
class ReferenceVectors:
    """Unit reference vectors of level k with 0, 1, or 2 fixed elements.

    ``v`` always exists.  The one-fixed family (fixed element b = n-2j)
    exists for j <= k-1; ``w_out``/``w_in`` are supported on subsets
    avoiding/containing b and span the same plane as {v, v_tilde}.  The
    two-fixed family (fixed c = n-2j+2, d = n-2j+1) exists for j >= 1;
    its members v_plus and w_cd additionally need j <= k-1.  Subscripts
    minus/zero/plus track the block index j-1 / j / j+1; v_tilde also
    lives in block j+1.
    """

    v: np.ndarray
    v_tilde: np.ndarray | None
    w_out: np.ndarray | None
    w_in: np.ndarray | None
    v_minus: np.ndarray | None
    v_zero: np.ndarray | None
    v_plus: np.ndarray | None
    w_empty: np.ndarray | None
    w_c: np.ndarray | None
    w_d: np.ndarray | None
    w_cd: np.ndarray | None


def _validate_reference_params(n: int, k: int, j: int) -> None:
    if not (0 <= j <= k):
        raise ValueError(f"need 0 <= j <= k, got j={j}, k={k}")
    if n < 2 * k + 1:
        raise ValueError(f"need n >= 2k+1, got n={n}, k={k}")


@lru_cache(maxsize=None)
def reference_vectors(n: int, k: int, j: int) -> ReferenceVectors:
    _validate_reference_params(n, k, j)
    term = partial(_signed_sum, subset_basis(n, k))

    top = [(n - 2 * i + 2, n - 2 * i + 1) for i in range(1, j + 1)]
    a0 = n - 2 * j  # elements 1..a0 are the unfixed ground set
    b, c, d = a0, a0 + 2, a0 + 1
    ground = set(range(1, a0 + 1))

    v = _unit(term([(top, ground)], (), k - j))

    v_tilde = w_out = w_in = None
    if j <= k - 1:
        w_out = _unit(term([(top, ground - {b})], (), k - j))
        w_in = _unit(term([(top, ground - {b})], (b,), k - j - 1))
        v_tilde = _unit(
            term([(top + [(a, b)], ground - {a, b}) for a in ground - {b}], (), k - j - 1)
        )

    v_minus = v_zero = v_plus = w_empty = w_c = w_d = w_cd = None
    if j >= 1:
        sub = top[:-1]
        wide = ground | {c, d}
        w_empty = _unit(term([(sub, ground)], (), k - j + 1))
        w_c = _unit(term([(sub, ground)], (c,), k - j))
        w_d = _unit(term([(sub, ground)], (d,), k - j))
        v_minus = _unit(term([(sub, wide)], (), k - j + 1))
        v_zero = _unit(
            term(
                [(sub + [(a, e)], wide - {a, e}) for a in ground for e in (c, d)],
                (),
                k - j,
            )
        )
        if j <= k - 1:
            w_cd = _unit(term([(sub, ground)], (c, d), k - j - 1))
            v_plus = _unit(
                term(
                    [
                        (sub + [(a, c), (a2, d)], ground - {a, a2})
                        for a in ground
                        for a2 in ground
                        if a != a2
                    ],
                    (),
                    k - j - 1,
                )
            )

    return ReferenceVectors(
        v=v, v_tilde=v_tilde, w_out=w_out, w_in=w_in,
        v_minus=v_minus, v_zero=v_zero, v_plus=v_plus,
        w_empty=w_empty, w_c=w_c, w_d=w_d, w_cd=w_cd,
    )


# The lru-cached functions as defined here.  ``clear_caches`` clears these
# objects, not whatever the module attributes hold: a caller may have
# replaced an attribute with a wrapper that has no cache of its own.
_CACHED = (subset_basis, irrep_projectors, transporter, reference_vectors)


def clear_caches() -> None:
    """Empty every lru-cached function of this module."""
    for cached in _CACHED:
        cached.cache_clear()


def basis_change_tables(n: int, k: int, j: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Closed-form coefficient tables between the reference families.

    Returns (T2, T4).  T2[a, b] = <w_a, v_b> for rows (w_out, w_in) and
    columns (v, v_tilde); T4 likewise for rows (w_empty, w_c, w_d, w_cd)
    and columns (v_minus, v, v_zero, v_plus).  Both are orthogonal; T4
    is None for j = 0, where the two-fixed family does not exist.
    """
    _validate_reference_params(n, k, j)
    a = n - 2 * j
    kk = k - j
    nn = n - k - j
    t2 = np.array(
        [
            [math.sqrt(nn / a), math.sqrt(kk / a)],
            [math.sqrt(kk / a), -math.sqrt(nn / a)],
        ]
    )
    if j == 0:
        return linalg.freeze(t2), None
    q = n - 2 * k
    t4 = np.array(
        [
            [
                math.sqrt((nn + 1) * nn / ((a + 2) * (a + 1))),
                0.0,
                math.sqrt(2 * (kk + 1) * nn / ((a + 2) * a)),
                math.sqrt((kk + 1) * kk / ((a + 1) * a)),
            ],
            [
                math.sqrt((kk + 1) * (nn + 1) / ((a + 2) * (a + 1))),
                1.0 / math.sqrt(2.0),
                -q / math.sqrt(2.0 * (a + 2) * a),
                -math.sqrt(kk * nn / ((a + 1) * a)),
            ],
            [
                math.sqrt((kk + 1) * (nn + 1) / ((a + 2) * (a + 1))),
                -1.0 / math.sqrt(2.0),
                -q / math.sqrt(2.0 * (a + 2) * a),
                -math.sqrt(kk * nn / ((a + 1) * a)),
            ],
            [
                math.sqrt((kk + 1) * kk / ((a + 2) * (a + 1))),
                0.0,
                -math.sqrt(2 * kk * (nn + 1) / ((a + 2) * a)),
                math.sqrt((nn + 1) * nn / ((a + 1) * a)),
            ],
        ]
    )
    return linalg.freeze(t2), linalg.freeze(t4)
