"""Test helpers between `simulate.trial` outcomes and `simulate.Batch` columns."""

import numpy as np

from countbench import simulate


def pack(outcomes, setup) -> simulate.Batch:
    """``outcomes`` of ``trial`` on ``setup``, one row each, as the `Batch` `run_batch` returns."""
    k, k_prime, resource = setup[:3]
    dtypes = bool, bool, bool, float, np.int64
    fields = zip(*outcomes)
    return simulate.Batch(k, k_prime, resource, *map(np.array, fields, dtypes))


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
