"""Test helpers between `simulate.trial` outcomes and `simulate.Batch` columns."""

import numpy as np

from countbench import simulate
from countbench.simulate import DECIDE_LARGE, DECIDE_SMALL


def pack(outcomes, setup) -> simulate.Batch:
    """``outcomes`` of ``trial`` on ``setup`` as the columns `run_batch` returns.

    Each outcome's ``correct`` and ``true_size`` are checked to be what the
    columns say, so two packed lists are equal iff their columns are.
    """
    k, k_prime, resource = setup[:3]
    large, says_large, failed, statistic, cost = [], [], [], [], []
    for out in outcomes:
        assert out.true_size in (k, k_prime) and out.resource == resource
        assert out.decision in (DECIDE_SMALL, DECIDE_LARGE)
        assert not (out.failed and out.decision == DECIDE_LARGE)
        truth = DECIDE_LARGE if out.true_size == k_prime else DECIDE_SMALL
        assert out.correct == (out.decision == truth and not out.failed)
        large.append(out.true_size == k_prime)
        says_large.append(out.decision == DECIDE_LARGE)
        failed.append(out.failed)
        statistic.append(out.statistic)
        cost.append(out.cost)
    arrays = (
        np.array(large, dtype=bool),
        np.array(says_large, dtype=bool),
        np.array(failed, dtype=bool),
        np.array(statistic, dtype=float),
        np.array(cost, dtype=np.int64),
    )
    return simulate.Batch(k, k_prime, resource, *arrays)


def columns(batch: simulate.Batch) -> tuple:
    """Every field of ``batch`` as plain values, statistics as their float64 bits, for ``==``."""
    return (
        batch.k,
        batch.k_prime,
        batch.resource,
        batch.large.tolist(),
        batch.says_large.tolist(),
        batch.failed.tolist(),
        batch.statistic.view(np.uint64).tolist(),
        batch.cost.tolist(),
    )
