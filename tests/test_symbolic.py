"""Exact identities of the closed forms, proved for every admissible (n, s, j).

The hypothesis tests evaluate these identities in floats at sampled
points; here sympy proves them as identities of rational functions: the
unit norm of the channel coefficients, the orthogonality of the
basis-change tables T2 and T4, and the k' level's row past k.  The
coefficients carry square roots and signs, so each one enters squared,
and a float test ties each symbolic table to the code.
"""

import numpy as np
import pytest
import sympy

from countbench import adversary, johnson

# n > 2s and 0 <= j <= s, written as n = 2s + q and j = s - r with s, q > 0
# and r >= 0, so that sympy can decide the sign of every denominator.
s = sympy.Symbol("s", positive=True)
q = sympy.Symbol("q", positive=True)
r = sympy.Symbol("r", nonnegative=True)
n = 2 * s + q
j = s - r


def squared_components(n, s, j):
    """The squares of the components (c0, c1, c2, c3) of ``adversary.phi_components``."""
    return (
        j * (s - j + 1) * (n - s - j + 1) / ((n - 2 * j + 2) * (n - 2 * j + 1) * s),
        s / n,
        (n - 2 * s) ** 2 / (n * s) * j * (n - j + 1) / ((n - 2 * j + 2) * (n - 2 * j)),
        (n - j + 1) * (s - j) * (n - s - j) / ((n - 2 * j + 1) * (n - 2 * j) * s),
    )


SQUARED = squared_components(n, s, j)


def test_denominators_are_positive():
    for square in SQUARED:
        _, den = sympy.fraction(sympy.factor(square))
        assert den.is_positive, den


def test_unit_norm_is_an_identity():
    assert sympy.cancel(sum(SQUARED) - 1) == 0


# Every level with n <= 12: s >= 1 and n > 2s; the test takes each 0 <= j <= s.
LEVELS = [(nv, sv) for nv in range(3, 13) for sv in range(1, (nv - 1) // 2 + 1)]


@pytest.mark.parametrize("nv, sv", LEVELS)
def test_squared_components_match_the_code(nv, sv):
    blocks = np.arange(sv + 1)
    got = adversary.phi_components(nv, sv, blocks) ** 2
    want = np.array(
        [
            [float(c.subs({s: sv, q: nv - 2 * sv, r: sv - jv})) for c in SQUARED]
            for jv in blocks
        ]
    )
    assert np.max(np.abs(got - want)) <= 1e-15


# The basis-change tables of ``johnson.basis_change_tables`` depend on
# (n, k, j) only through q = n - 2k and r = k - j: a = n - 2j = q + 2r,
# k - j = r and n - k - j = q + r.  Each entry is written as its sign and
# its square.
a, kk, nn = q + 2 * r, r, q + r
HALF = sympy.Rational(1, 2)
T2 = (
    ((1, nn / a), (1, kk / a)),
    ((1, kk / a), (-1, nn / a)),
)
T4 = (
    (
        (1, (nn + 1) * nn / ((a + 2) * (a + 1))),
        (0, 0),
        (1, 2 * (kk + 1) * nn / ((a + 2) * a)),
        (1, (kk + 1) * kk / ((a + 1) * a)),
    ),
    (
        (1, (kk + 1) * (nn + 1) / ((a + 2) * (a + 1))),
        (1, HALF),
        (-1, q**2 / (2 * (a + 2) * a)),
        (-1, kk * nn / ((a + 1) * a)),
    ),
    (
        (1, (kk + 1) * (nn + 1) / ((a + 2) * (a + 1))),
        (-1, HALF),
        (-1, q**2 / (2 * (a + 2) * a)),
        (-1, kk * nn / ((a + 1) * a)),
    ),
    (
        (1, (kk + 1) * kk / ((a + 2) * (a + 1))),
        (0, 0),
        (-1, 2 * kk * (nn + 1) / ((a + 2) * a)),
        (1, (nn + 1) * nn / ((a + 1) * a)),
    ),
)


def _table(entries) -> sympy.Matrix:
    return sympy.Matrix([[sign * sympy.sqrt(square) for sign, square in row] for row in entries])


@pytest.mark.parametrize("entries", [T2, T4], ids=["T2", "T4"])
def test_table_squares_have_positive_denominators(entries):
    for row in entries:
        for _, square in row:
            _, den = sympy.fraction(sympy.factor(square))
            assert den.is_positive, den


@pytest.mark.parametrize("entries", [T2, T4], ids=["T2", "T4"])
def test_tables_are_orthogonal(entries):
    # With q > 0 and r >= 0 every radicand is a product of positive factors,
    # so sympy splits each square root and the products cancel exactly.
    table = _table(entries)
    gap = (table * table.T - sympy.eye(len(entries))).applyfunc(sympy.cancel)
    assert gap == sympy.zeros(len(entries))


@pytest.mark.parametrize("nv, sv", LEVELS)
def test_tables_match_the_code(nv, sv):
    for jv in range(sv + 1):
        point = {q: nv - 2 * sv, r: sv - jv}
        for entries, got in zip((T2, T4), johnson.basis_change_tables(nv, sv, jv)):
            if got is None:
                assert jv == 0
                continue
            want = np.array([[float(entry.subs(point)) for entry in row] for row in _table(entries).tolist()])
            assert np.max(np.abs(got - want)) <= 1e-15


# The row past k (``adversary._row_past_k``): block k+1 of level k' carries
# c0'_{k+1}, component c0 of that level at j = k + 1.  Here k >= 0,
# k' = k + 1 + d with d >= 0, and n = 2k' + q.
k = sympy.Symbol("k", nonnegative=True)
d = sympy.Symbol("d", nonnegative=True)
k_prime = k + 1 + d
n_k = 2 * k_prime + q
ROW_PAST_K = (k + 1) * (k_prime - k) * (n_k - k_prime - k) / ((n_k - 2 * k) * (n_k - 2 * k - 1) * k_prime)


def test_row_past_k_is_c0_at_block_k_plus_one():
    c0_squared = squared_components(n_k, k_prime, k + 1)[0]
    assert sympy.cancel(c0_squared - ROW_PAST_K) == 0
    num, den = sympy.fraction(sympy.factor(ROW_PAST_K))
    assert num.is_positive and den.is_positive, (num, den)


@pytest.mark.parametrize("nv, kv, kpv", [(nv, kv, kpv) for nv, kpv in LEVELS for kv in range(kpv)])
def test_row_past_k_matches_the_code(nv, kv, kpv):
    got = adversary.phi_components(nv, kpv, kv + 1)[0] ** 2
    want = float(ROW_PAST_K.subs({k: kv, d: kpv - kv - 1, q: nv - 2 * kpv}))
    assert abs(got - want) <= 1e-15
