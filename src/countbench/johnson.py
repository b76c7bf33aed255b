"""Subset association scheme: bases, block projectors, transporters.

The space spanned by all k-subsets of {1..n} carries the natural
permutation action and, for n >= 2k, splits into k+1 irreducible blocks
(one per two-row shape), the j-th of which also appears once on every
other level j <= k <= n-k.  This module builds that machinery
explicitly:

* ordered subset bases with O(1) rank lookup,
* set-inclusion operators between levels,
* the orthogonal projectors E_0..E_k onto the irreducible blocks,
* the norm-one transporters Phi_j between the j-th blocks of two
  levels, sign-fixed so that the large-level reference vector maps onto
  the small-level one,
* the fixed-element reference vectors (one and two fixed elements) and
  the closed-form orthogonal tables expressing one family in the other.

Everything is cached and returned read-only; construction is pure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg

# Combinatorial explosion guard for subset enumeration.
MAX_GROUND_SET = 20

# A transporter whose raw inclusion morphism has spectral norm below this
# is degenerate; constructing it would mean guessing a sign.
DEGENERATE_SCALE = 1e-8


class SubsetBasis:
    """All k-subsets of {1..n} in lexicographic order, with rank lookup."""

    __slots__ = ("n", "k", "order", "masks", "_index")

    def __init__(self, n: int, k: int):
        if not (0 <= k <= n):
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
        if n > MAX_GROUND_SET:
            raise ValueError(f"ground set size {n} exceeds cap {MAX_GROUND_SET}")
        self.n = n
        self.k = k
        self.order = tuple(itertools.combinations(range(1, n + 1), k))
        self._index = {s: i for i, s in enumerate(self.order)}
        self.masks = linalg.freeze(
            np.array([_mask(s) for s in self.order], dtype=np.int64)
        )

    def index_of(self, subset) -> int:
        key = tuple(sorted(subset))
        try:
            return self._index[key]
        except KeyError:
            raise ValueError(f"{key} is not a {self.k}-subset of [{self.n}]") from None

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self):
        return iter(self.order)

    def __repr__(self) -> str:
        return f"SubsetBasis(n={self.n}, k={self.k}, size={len(self.order)})"


def _mask(subset) -> int:
    m = 0
    for e in subset:
        m |= 1 << (e - 1)
    return m


@lru_cache(maxsize=None)
def subset_basis(n: int, k: int) -> SubsetBasis:
    return SubsetBasis(n, k)


@lru_cache(maxsize=None)
def inclusion_matrix(n: int, k: int, j: int) -> np.ndarray:
    """0/1 matrix W with W[x, s] = 1 iff the j-subset s is contained in x."""
    if not (0 <= j <= k <= n):
        raise ValueError(f"need 0 <= j <= k <= n, got n={n}, k={k}, j={j}")
    rows = subset_basis(n, k).masks
    cols = subset_basis(n, j).masks
    w = (rows[:, None] & cols[None, :]) == cols[None, :]
    return linalg.freeze(w.astype(float))


@dataclass(frozen=True)
class ProjectorFamily:
    """Orthogonal projectors E_0..E_k onto the irreducible blocks of one level."""

    n: int
    k: int
    projectors: tuple

    def dimension(self, j: int) -> int:
        """Rank of E_j, read off as the trace rounded to nearest integer."""
        return int(round(float(np.trace(self.projectors[j]))))

    def expected_dimension(self, j: int) -> int:
        return math.comb(self.n, j) - (math.comb(self.n, j - 1) if j >= 1 else 0)


@lru_cache(maxsize=None)
def irrep_projectors(n: int, k: int) -> ProjectorFamily:
    """Projector family built from nested column spaces of inclusion operators.

    E_j = P_j - P_{j-1}, where P_j projects onto the column space of
    inclusion_matrix(n, k, j).  Requires n >= 2k, the regime in which the
    level decomposes multiplicity-free into blocks j = 0..k.
    """
    if n < 2 * k:
        raise ValueError(f"projector decomposition needs n >= 2k, got n={n}, k={k}")
    projectors = []
    prev = np.zeros((math.comb(n, k), math.comb(n, k)))
    for j in range(k + 1):
        q = linalg.orthonormal_column_basis(inclusion_matrix(n, k, j))
        p = q @ q.T
        p = (p + p.T) / 2.0
        projectors.append(linalg.freeze(p - prev))
        prev = p
    return ProjectorFamily(n=n, k=k, projectors=tuple(projectors))


@dataclass(frozen=True)
class Transporter:
    """Norm-one morphism from the j-th block of level k' onto that of level k."""

    n: int
    k: int
    k_prime: int
    j: int
    matrix: np.ndarray
    scale: float  # singular value of the raw inclusion morphism


@lru_cache(maxsize=None)
def transporter(n: int, k: int, k_prime: int, j: int) -> Transporter:
    """Build Phi_j by compressing the set-inclusion morphism to one block.

    E_j W Ehat_j is equivariant, hence a scalar multiple of the unique
    transporter; dividing by its only nonzero singular value makes it a
    partial isometry, and the sign is fixed by <v, Phi vhat> > 0 for the
    reference vectors of the two levels, which forces Phi vhat = v.
    """
    if not (0 <= j <= k < k_prime <= n - k_prime):
        raise ValueError(
            f"need 0 <= j <= k < k' <= n - k', got n={n}, k={k}, k'={k_prime}, j={j}"
        )
    e = irrep_projectors(n, k).projectors[j]
    e_hat = irrep_projectors(n, k_prime).projectors[j]
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
    return Transporter(n=n, k=k, k_prime=k_prime, j=j, matrix=linalg.freeze(phi), scale=scale)


# ---------------------------------------------------------------------------
# Reference vectors.
#
# Formal sums of subsets are dicts {frozenset: coefficient}.  The alternating
# top pairs ({n}-{n-1}) box ({n-2}-{n-3}) box ... expand to 2^j signed
# j-subsets; disjoint unions multiply coefficients.  Each vector below is the
# indicated combinatorial sum normalised to unit length (a positive multiple,
# so signs match the defining sums).
# ---------------------------------------------------------------------------


def _fixed(*elements) -> dict:
    return {frozenset(elements): 1.0}


def _minus(a: int, b: int) -> dict:
    return {frozenset({a}): 1.0, frozenset({b}): -1.0}


def _subset_sum(universe, size: int) -> dict:
    if size < 0:
        return {}
    return {frozenset(c): 1.0 for c in itertools.combinations(sorted(universe), size)}


def _box(*factors) -> dict:
    out = {frozenset(): 1.0}
    for factor in factors:
        nxt: dict = {}
        for sa, ca in out.items():
            for sb, cb in factor.items():
                union = sa | sb
                if len(union) != len(sa) + len(sb):
                    raise RuntimeError("disjoint-union factors overlap")
                nxt[union] = nxt.get(union, 0.0) + ca * cb
        out = nxt
    return out


def _add(terms_list) -> dict:
    out: dict = {}
    for terms in terms_list:
        for s, c in terms.items():
            out[s] = out.get(s, 0.0) + c
    return out


def _alternating_pairs(n: int, j: int) -> dict:
    pairs = [_minus(n - 2 * i + 2, n - 2 * i + 1) for i in range(1, j + 1)]
    return _box(*pairs) if pairs else {frozenset(): 1.0}


def _to_unit_vector(terms: dict, basis: SubsetBasis) -> np.ndarray:
    vec = np.zeros(len(basis))
    for s, c in terms.items():
        if c != 0.0:
            vec[basis.index_of(tuple(sorted(s)))] += c
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

    n: int
    k: int
    j: int
    b: int
    c: int
    d: int
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
    basis = subset_basis(n, k)
    unit = lambda terms: _to_unit_vector(terms, basis)

    top = _alternating_pairs(n, j)
    a0 = n - 2 * j  # elements 1..a0 are the unfixed ground set
    b, c, d = a0, a0 + 2, a0 + 1

    v = unit(_box(top, _subset_sum(range(1, a0 + 1), k - j)))

    v_tilde = w_out = w_in = None
    if j <= k - 1:
        w_out = unit(_box(top, _subset_sum(range(1, a0), k - j)))
        w_in = unit(_box(top, _fixed(b), _subset_sum(range(1, a0), k - j - 1)))
        v_tilde = unit(
            _box(
                top,
                _add(
                    _box(_minus(a, b), _subset_sum(set(range(1, a0)) - {a}, k - j - 1))
                    for a in range(1, a0)
                ),
            )
        )

    v_minus = v_zero = v_plus = w_empty = w_c = w_d = w_cd = None
    if j >= 1:
        sub = _alternating_pairs(n, j - 1)
        wide = range(1, a0 + 3)  # 1..n-2j+2, includes c and d
        w_empty = unit(_box(sub, _subset_sum(range(1, a0 + 1), k - j + 1)))
        w_c = unit(_box(sub, _fixed(c), _subset_sum(range(1, a0 + 1), k - j)))
        w_d = unit(_box(sub, _fixed(d), _subset_sum(range(1, a0 + 1), k - j)))
        v_minus = unit(_box(sub, _subset_sum(wide, k - j + 1)))
        v_zero = unit(
            _box(
                sub,
                _add(
                    itertools.chain.from_iterable(
                        (
                            _box(_minus(a, c), _subset_sum(set(wide) - {a, c}, k - j)),
                            _box(_minus(a, d), _subset_sum(set(wide) - {a, d}, k - j)),
                        )
                        for a in range(1, a0 + 1)
                    )
                ),
            )
        )
        if j <= k - 1:
            w_cd = unit(
                _box(sub, _fixed(c, d), _subset_sum(range(1, a0 + 1), k - j - 1))
            )
            v_plus = unit(
                _box(
                    sub,
                    _add(
                        _box(
                            _minus(a, c),
                            _minus(a2, d),
                            _subset_sum(set(range(1, a0 + 1)) - {a, a2}, k - j - 1),
                        )
                        for a in range(1, a0 + 1)
                        for a2 in range(1, a0 + 1)
                        if a != a2
                    ),
                )
            )

    return ReferenceVectors(
        n=n, k=k, j=j, b=b, c=c, d=d, v=v,
        v_tilde=v_tilde, w_out=w_out, w_in=w_in,
        v_minus=v_minus, v_zero=v_zero, v_plus=v_plus,
        w_empty=w_empty, w_c=w_c, w_d=w_d, w_cd=w_cd,
    )


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
