"""Mutation kills: every one-line defect in a closed form fails a brute-force row.

Each mutant perturbs one closed-form function of ``adversary`` or
``johnson``, or one row array of ``adversary.closed_rows``, by
monkeypatch, and all ten checks run on the listed
(instance, t) rows, PSI_POWER at ell = t // 2 as in the default sweep.
A mutant counts as killed only by the ``verify`` rows that fail; the set
of failing checks must be exactly the recorded one.  Each mutant gets a
small instance and t on which its row is live: t = 5 > k puts block
k + 1 of (8,2,3) into the forward state-generation maximum, and t = 5
makes tilde'_1 of (6,1,2) decide it.

The relative perturbation is 1e-6 unless the row says otherwise.
The Gram-power bound D^ell/2 is an inequality, so its rows scale the
overlaps phi_j . phi'_j, which at ell = 1 scales the bound alike, and
record the smallest inflation PSI_POWER catches on the default sweep:
27.6%, on (10,2,3) at t = 2, ell = 1, where the bound 0.48512 meets the
norm 0.61911.
"""

import numpy as np
import pytest

from countbench import adversary, bruteforce, johnson
from countbench.adversary import ProblemInstance

REL = 1e-6


def _coefficients(edit):
    """Plant ``edit(rows, j, n, size)`` into every ``phi_components`` result."""

    def plant(monkeypatch):
        original = adversary.phi_components

        def planted(n, size, j):
            out = np.array(original(n, size, j), dtype=float)
            edit(out.reshape(-1, 4), np.atleast_1d(j).astype(float), float(n), float(size))
            return out

        monkeypatch.setattr(adversary, "phi_components", planted)

    return plant


def _c0_numerator(rows, j, n, size):
    # c0^2 = j (size-j+1)(n-size-j+1) / ((n-2j+2)(n-2j+1) size): numerator + 1e-6.
    rows[:, 0] = np.sqrt(rows[:, 0] ** 2 + REL / ((n - 2 * j + 2) * (n - 2 * j + 1) * size))


def _column(col, factor, row=None):
    def edit(rows, j, n, size):
        rows[slice(None) if row is None else j == row, col] *= factor

    return edit


def _tilde_prime_row_one(monkeypatch):
    original = adversary.tilde_tables

    def planted(gammas, phi, phi_prime, *halo):
        tilde, tilde_prime = original(gammas, phi, phi_prime, *halo)
        tilde_prime = tilde_prime.copy()
        tilde_prime[1] *= 1 + REL
        return tilde, tilde_prime

    monkeypatch.setattr(adversary, "tilde_tables", planted)


def _hadamard_next_term(monkeypatch):
    # The c_{j+1} p_{j,3} q_{j,3} term of hadamard_psi_step, times 1 + 1e-6.
    original = adversary.hadamard_psi_step

    def planted(coeffs, inst):
        out = original(coeffs, inst)
        c = np.pad(np.asarray(coeffs, dtype=float), (0, inst.k + 1 - len(coeffs)))
        phi, phi_prime = adversary.phi_table(inst, inst.k + 1)
        out[:-1] += REL * c[1:] * (phi * phi_prime)[:-1, 3]
        return out

    monkeypatch.setattr(adversary, "hadamard_psi_step", planted)


def _closed_rows(edit):
    """Plant ``edit(rows, start)``, which returns edited rows, into every ``closed_rows`` result."""

    def plant(monkeypatch):
        original = adversary.closed_rows

        def planted(inst, t, start, stop):
            return edit(original(inst, t, start, stop), start)

        monkeypatch.setattr(adversary, "closed_rows", planted)

    return plant


def _membership_row_one(rows, start):
    # Row j = 1 of the membership rows, times 1 + 1e-6.
    membership = rows.membership.copy()
    if start <= 1 < start + len(membership):
        membership[1 - start] *= 1 + REL
    return rows._replace(membership=membership)


def _overlaps_scaled(factor):
    return lambda rows, start: rows._replace(overlap=rows.overlap * factor)


def _scaled(module, name, factor):
    def plant(monkeypatch):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: original(*args) * factor)

    return plant


def _table_entry(which, a, b):
    def plant(monkeypatch):
        original = johnson.basis_change_tables

        def planted(n, k, j):
            tables = list(original(n, k, j))
            if tables[which] is not None:
                tables[which] = tables[which].copy()
                tables[which][a, b] *= 1 + REL
            return tuple(tables)

        monkeypatch.setattr(johnson, "basis_change_tables", planted)

    return plant


# (id, plant, rows (n, k, k', t), the checks whose rows fail).
MUTANTS = [
    ("c0 numerator +1e-6, all j", _coefficients(_c0_numerator), [((6, 1, 2), 1.0), ((6, 1, 2), 2.0)],
     {"V_DECOMP", "PSI_COEFFS", "DELTA_GEN", "DELTA_REFL"}),
    ("c2 sign flipped", _coefficients(_column(2, -1.0)),
     [((8, 2, 3), t) for t in (1.0, 2.0, 3.0, 5.0)], {"V_DECOMP"}),
    ("c3 row j=1", _coefficients(_column(3, 1 + REL, row=1)), [((8, 2, 3), 2.0), ((8, 2, 3), 3.0)],
     {"V_DECOMP", "DELTA_GEN", "DELTA_REFL", "PSI_COEFFS"}),
    ("c3 row j=0", _coefficients(_column(3, 1 + REL, row=0)), [((6, 1, 2), 1.0), ((6, 1, 2), 2.0)],
     {"V_DECOMP", "DELTA_GEN", "DELTA_REFL", "PSI_COEFFS"}),
    ("tilde' row j=1", _tilde_prime_row_one, [((6, 1, 2), 5.0), ((10, 3, 4), 2.0)],
     {"DELTA_GEN", "DELTA_REFL"}),
    ("hadamard_psi_step c_{j+1} term", _hadamard_next_term, [((6, 1, 2), 2.0)], {"PSI_COEFFS"}),
    ("DELTA_MEMB row j=1", _closed_rows(_membership_row_one), [((6, 1, 2), 3.0)], {"DELTA_MEMB"}),
    ("_row_past_k", _scaled(adversary, "_row_past_k", 1 + REL), [((8, 2, 3), 5.0)], {"DELTA_GEN"}),
    ("T4[0,3]", _table_entry(1, 0, 3), [((6, 1, 2), 1.0)], {"TABLES"}),
    ("T2[0,1]", _table_entry(0, 0, 1), [((6, 1, 2), 1.0)], {"TABLES"}),
    ("c0 sign flipped", _coefficients(_column(0, -1.0)), [((6, 1, 2), 1.0)], {"V_DECOMP"}),
    ("c1 sign flipped", _coefficients(_column(1, -1.0)), [((6, 1, 2), 1.0)], {"V_DECOMP"}),
    ("c3 sign flipped", _coefficients(_column(3, -1.0)), [((6, 1, 2), 1.0)], {"V_DECOMP"}),
    ("Gram-power bound +27.7%", _closed_rows(_overlaps_scaled(1.277)), [((10, 2, 3), 2.0)],
     {"PSI_POWER"}),
    ("Gram-power bound +27.5%, not caught", _closed_rows(_overlaps_scaled(1.275)),
     [((10, 2, 3), 2.0)], set()),
]


@pytest.fixture(autouse=True)
def fresh_memos():
    bruteforce.clear_memos()
    yield
    bruteforce.clear_memos()


def _failing_checks(rows) -> set:
    failing = set()
    for triple, t in rows:
        inst = ProblemInstance(*triple)
        for check in bruteforce.CHECK_IDS:
            ell = int(t) // 2 if check == "PSI_POWER" else 0
            if not bruteforce.verify(check, inst, t=t, ell=ell).passed:
                failing.add(check)
    return failing


def test_the_rows_pass_unmutated():
    assert _failing_checks({row for _, _, rows, _ in MUTANTS for row in rows}) == set()


@pytest.mark.parametrize("plant, rows, killed_by", [m[1:] for m in MUTANTS], ids=[m[0] for m in MUTANTS])
def test_mutant_fails_exactly_the_recorded_checks(monkeypatch, plant, rows, killed_by):
    plant(monkeypatch)
    assert _failing_checks(rows) == killed_by
