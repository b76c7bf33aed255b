"""Independent evaluation of the certificate norms that `countbench bounds` reports.

Applies the formulas stated in the `countbench.adversary` docstrings over
all block indices j = 0..k at once with batched numpy, without calling
the package.  The bounds-grid gate compares the program's output against
these values.
"""

from __future__ import annotations

import numpy as np


def _phi_rows(n: int, size: int, k: int) -> np.ndarray:
    """Rows j = 0..k of (c0, c1, c2, c3) on the level of `size`-subsets."""
    j = np.arange(k + 1, dtype=float)
    n, s = float(n), float(size)
    c0 = np.sqrt(j * (s - j + 1) * (n - s - j + 1) / ((n - 2 * j + 2) * (n - 2 * j + 1) * s))
    c1 = np.full_like(j, np.sqrt(s / n))
    c2 = (n - 2 * s) / np.sqrt(n * s) * np.sqrt(j * (n - j + 1) / ((n - 2 * j + 2) * (n - 2 * j)))
    c3 = np.sqrt((n - j + 1) * (s - j) * (n - s - j) / ((n - 2 * j + 1) * (n - 2 * j) * s))
    return np.stack([c0, c1, c2, c3], axis=1)


def certificate_norms(n: int, k: int, k_prime: int, t: float, ell: int) -> dict:
    """The dual-feasibility norms for one instance and cutoff, keyed as in the report."""
    phi = _phi_rows(n, k, k)
    phi_p = _phi_rows(n, k_prime, k)
    j = np.arange(k + 1)
    # gamma_j = max(1 - j/t, 0) for j = -1..k+1, with the out-of-range ends 0.
    g = np.zeros(k + 3)
    g[1:-1] = np.maximum(1.0 - j / t, 0.0)
    g_prev, g_cur, g_next = g[:-2], g[1:-1], g[2:]
    weights = np.stack([g_prev, g_cur, g_cur, g_next], axis=1)
    tilde, tilde_p = weights * phi, weights * phi_p

    forward = np.linalg.norm(tilde_p - g_cur[:, None] * phi, axis=1).max()
    reverse = np.linalg.norm(g_cur[:, None] * phi_p - tilde, axis=1).max()

    refl = phi_p[:, :, None] * tilde_p[:, None, :] - tilde[:, :, None] * phi[:, None, :]
    reflection = np.linalg.svd(refl, compute_uv=False)[:, 0].max()

    small = np.sqrt((k - j) * (n - k_prime - j).astype(float))
    large = np.sqrt((k_prime - j) * (n - k - j).astype(float))
    memb = np.maximum(
        np.abs(small * g_cur - large * g_next), np.abs(large * g_cur - small * g_next)
    ) / (n - 2 * j)

    overlap = np.sum(phi[: min(ell, k) + 1] * phi_p[: min(ell, k) + 1], axis=1)
    return {
        "gamma_norm": float(np.abs(g_cur).max()),
        "psi_power_bound": float(overlap.min() ** ell / 2.0),
        "membership_norm": float(memb.max()),
        "state_gen_forward": float(forward),
        "state_gen_reverse": float(reverse),
        "reflection_norm": float(reflection),
    }
