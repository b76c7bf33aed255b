"""Subset association scheme: bases, block projectors, transporters.

The space spanned by all k-subsets of {1..n} carries the natural
permutation action and, for n >= 2k, splits into k+1 irreducible blocks
(one per two-row shape), the j-th of which also appears once on every
other level j <= k <= n-k.  This module builds that machinery
explicitly:

* subset bit masks in lexicographic order,
* set-inclusion operators between levels,
* the orthogonal projectors E_0..E_k onto the irreducible blocks, as a
  tuple of views of one (k+1) x N x N array, and their predicted ranks,
* the norm-one transporters Phi_j between the j-th blocks of two
  levels, sign-fixed so that the large-level reference vector maps onto
  the small-level one,
* the fixed-element reference vectors (one and two fixed elements) and
  the closed-form orthogonal tables expressing one family in the other.

Construction is pure.  The subset masks, projectors, transporters and
reference vectors are cached and returned read-only; the inclusion matrices,
read once by each projector family and transporter built from them, are
rebuilt on each call, so that none outlives its reader.  The memos count
their misses across ``cache_clear``, so each count is every build so far,
and ``drop_projector_families`` empties the largest one alone, leaving
the Phi_j built from it cached.  Each family is one array, so dropping
it frees one block of memory.  ``bruteforce.sweep`` builds an n's
families in one step, largest level first, reads off what its rows need
(block bases, PROJECTORS gaps and ranks, class tables, Phi_j) and drops
them before the n's first row, so no row reads a family.  The reference
vectors of one (n, k, j) are summed in one integer pass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from . import linalg

# Combinatorial explosion guard for subset enumeration.
MAX_GROUND_SET = 20

# A transporter whose raw inclusion morphism has spectral norm below this
# is degenerate; constructing it would mean guessing a sign.
DEGENERATE_SCALE = 1e-8


def _memo(fn):
    """``lru_cache(maxsize=None)`` whose ``cache_info()`` keeps counting across ``cache_clear``.

    A plain lru_cache resets its hits and misses when it is cleared; this
    one carries them over, so ``misses`` counts every build since import.
    """
    cached = lru_cache(maxsize=None)(fn)
    carried = (0, 0)  # the hits and misses before the last clear

    @wraps(fn)
    def memo(*args):
        return cached(*args)

    def cache_info():
        info = cached.cache_info()
        return info._replace(hits=info.hits + carried[0], misses=info.misses + carried[1])

    def cache_clear():
        nonlocal carried
        carried = cache_info()[:2]
        cached.cache_clear()

    memo.cache_info, memo.cache_clear = cache_info, cache_clear
    return memo


@_memo
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


@_memo
def irrep_projectors(n: int, k: int) -> tuple[np.ndarray, ...]:
    """Read-only (E_0, ..., E_k) from nested column spaces of inclusion operators.

    E_j = P_j - P_{j-1}, where P_j projects onto the column space of
    inclusion_matrix(n, k, j).  Requires n >= 2k, the regime in which the
    level decomposes multiplicity-free into blocks j = 0..k.
    inclusion_matrix(n, k, k) is the identity, so P_k = I takes no SVD.
    The E_j are views of one (k+1) x N x N array, so a family is one
    block of memory, and freeing it returns that block whole.
    """
    if n < 2 * k:
        raise ValueError(f"projector decomposition needs n >= 2k, got n={n}, k={k}")
    size = math.comb(n, k)
    family = np.empty((k + 1, size, size))
    prev = np.zeros((size, size))
    for j in range(k):
        q = linalg.orthonormal_column_basis(inclusion_matrix(n, k, j))
        p = q @ q.T
        p = (p + p.T) / 2.0
        np.subtract(p, prev, out=family[j])
        prev = p
    # E_k = I - P_{k-1}, with I written into E_k's own slot: a separate
    # identity would be one N x N array more at the family's peak.
    last = family[k]
    last.fill(0.0)
    np.fill_diagonal(last, 1.0)
    np.subtract(last, prev, out=last)
    return tuple(linalg.freeze(family))


@_memo
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
# Each vector is a sum of signed terms: the alternating top pairs
# ({n}-{n-1}) box ({n-2}-{n-3}) box ..., then fixed elements, then all
# subsets of a given size of a free set, as a disjoint union.  Its integer
# coefficients are read off each subset's bit mask, for every term of every
# vector of one (n, k, j) in one pass (``_signed_sums``); terms add as
# integers and each vector is normalised once, a positive multiple, so
# signs match the defining sums.  Elements and sets are written as bit
# masks throughout: element e is bit e - 1.
# ---------------------------------------------------------------------------


def _signed_sums(masks, sums) -> np.ndarray:
    """Integer coefficients of sums of terms ({a1}-{b1}) box ... box {fixed} box (size-subsets of free).

    Each of ``sums`` is (terms, fixed, size), and each of its terms a pair
    (pairs, free), with the elements a, b and the sets fixed, free as bit
    masks.  The coefficient of subset x in one term is [x within the
    support] [fixed within x] [|x & free| = size] times bit_a(x) - bit_b(x)
    per pair (a, b), which is 0 when x holds both elements of the pair or
    neither.  The terms of all sums are rows of one integer array, padded
    to one pair count with pairs (0, 0), whose factor reads 1; row s of the
    result adds up the terms of sum s.
    """
    rows = [(pairs, fixed, free, size) for terms, fixed, size in sums for pairs, free in terms]
    width = max(len(pairs) for pairs, *_ in rows)
    pair_bits = np.array(
        [pairs + [(0, 0)] * (width - len(pairs)) for pairs, *_ in rows], dtype=np.int64
    ).reshape(len(rows), width, 2)
    fixed, free, size = np.array([row[1:] for row in rows], dtype=np.int64).T[:, :, None]
    support = np.bitwise_or.reduce(pair_bits.reshape(len(rows), -1), axis=1)[:, None]
    support |= fixed | free
    # The factors are disjoint iff their bit counts add up to the support's.
    parts = np.bitwise_count(pair_bits).sum(axis=(1, 2))[:, None]
    parts += np.bitwise_count(fixed) + np.bitwise_count(free)
    if np.any(np.bitwise_count(support) != parts):
        raise RuntimeError("disjoint-union factors overlap")
    # One term's coefficients are -1, 0 or 1; the sums add up in int64.
    coeff = (
        ((masks & ~support) == 0)
        & ((masks & fixed) == fixed)
        & (np.bitwise_count(masks & free) == size)
    ).view(np.int8)
    for a, b in pair_bits.transpose(1, 2, 0)[:, :, :, None]:
        coeff *= ((masks & a) != 0).view(np.int8) - ((masks & b) != 0).view(np.int8) + (a == 0)
    starts = np.cumsum([0] + [len(terms) for terms, *_ in sums[:-1]])
    return np.add.reduceat(coeff, starts, axis=0, dtype=np.int64)


def _units(coeff) -> np.ndarray:
    """The rows of an integer array, each divided by its norm; read-only.

    The squares of integer coefficients add up exactly, so each norm is
    the correctly rounded square root of an exact sum, in any order.
    """
    squares = np.einsum("ij,ij->i", coeff, coeff)
    if np.any(squares == 0):
        raise ArithmeticError("reference sum collapsed to the zero vector")
    return linalg.freeze(coeff / np.sqrt(squares.astype(float))[:, None])
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


@_memo
def reference_vectors(n: int, k: int, j: int) -> ReferenceVectors:
    _validate_reference_params(n, k, j)
    top = [(1 << (n - 2 * i + 1), 1 << (n - 2 * i)) for i in range(1, j + 1)]
    a0 = n - 2 * j  # elements 1..a0 are the unfixed ground set
    b, c, d = 1 << (a0 - 1), 1 << (a0 + 1), 1 << a0
    ground = (1 << a0) - 1
    elements = [1 << e for e in range(a0)]

    # Each vector's (terms, fixed, size), all summed in one pass.
    sums = {"v": ([(top, ground)], 0, k - j)}
    if j <= k - 1:
        sums["w_out"] = ([(top, ground & ~b)], 0, k - j)
        sums["w_in"] = ([(top, ground & ~b)], b, k - j - 1)
        sums["v_tilde"] = (
            [(top + [(a, b)], ground & ~(a | b)) for a in elements if a != b], 0, k - j - 1
        )
    if j >= 1:
        sub = top[:-1]
        wide = ground | c | d
        sums["w_empty"] = ([(sub, ground)], 0, k - j + 1)
        sums["w_c"] = ([(sub, ground)], c, k - j)
        sums["w_d"] = ([(sub, ground)], d, k - j)
        sums["v_minus"] = ([(sub, wide)], 0, k - j + 1)
        sums["v_zero"] = (
            [(sub + [(a, e)], wide & ~(a | e)) for a in elements for e in (c, d)], 0, k - j
        )
        if j <= k - 1:
            sums["w_cd"] = ([(sub, ground)], c | d, k - j - 1)
            sums["v_plus"] = (
                [
                    (sub + [(a, c), (a2, d)], ground & ~(a | a2))
                    for a in elements
                    for a2 in elements
                    if a != a2
                ],
                0,
                k - j - 1,
            )

    vectors = _units(_signed_sums(subset_basis(n, k), list(sums.values())))
    fields = dict.fromkeys(ReferenceVectors.__dataclass_fields__)
    return ReferenceVectors(**(fields | dict(zip(sums, vectors))))


# The memos as defined here.  ``clear_caches`` and ``drop_projector_families``
# clear these objects, not whatever the module attributes hold: a caller may
# have replaced an attribute with a wrapper that has no cache of its own.
_CACHED = (subset_basis, irrep_projectors, transporter, reference_vectors)
_FAMILIES = irrep_projectors


def clear_caches() -> None:
    """Empty every memo of this module."""
    for cached in _CACHED:
        cached.cache_clear()


def drop_projector_families() -> None:
    """Empty the projector-family memo alone; the Phi_j built from the families stay cached."""
    _FAMILIES.cache_clear()


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
