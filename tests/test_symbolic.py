"""Exact identities of the closed forms, proved for every admissible (n, s, j).

The hypothesis tests evaluate these identities in floats at sampled
points; here sympy proves them as identities of rational functions.  The
coefficients carry square roots and signs, so each one enters squared.
"""

import numpy as np
import pytest
import sympy

from countbench import adversary

# n > 2s and 0 <= j <= s, written as n = 2s + q and j = s - r with s, q > 0
# and r >= 0, so that sympy can decide the sign of every denominator.
s = sympy.Symbol("s", positive=True)
q = sympy.Symbol("q", positive=True)
r = sympy.Symbol("r", nonnegative=True)
n = 2 * s + q
j = s - r

# The squares of the components (c0, c1, c2, c3) of ``adversary.phi_components``.
SQUARED = (
    j * (s - j + 1) * (n - s - j + 1) / ((n - 2 * j + 2) * (n - 2 * j + 1) * s),
    s / n,
    (n - 2 * s) ** 2 / (n * s) * j * (n - j + 1) / ((n - 2 * j + 2) * (n - 2 * j)),
    (n - j + 1) * (s - j) * (n - s - j) / ((n - 2 * j + 1) * (n - 2 * j) * s),
)


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
