"""Pure-Python DTW accumulation: the oracle for the vectorized kernels."""

from __future__ import annotations

import numpy as np


def accumulate_python(
    distance: np.ndarray,
    weights: np.ndarray | None = None,
    free_query_start: bool = False,
) -> np.ndarray:
    """The seed repository's pure-Python DTW accumulation (double loop).

    The equivalence tests assert that :func:`repro.core.dtw.accumulate_cost`
    and :func:`repro.core.dtw.accumulate_cost_batch` reproduce it bit for
    bit, and ``benchmarks/bench_dtw.py`` times it as the baseline.
    """
    rows, cols = distance.shape
    if weights is None:
        weighted = distance
    else:
        weighted = distance * weights
    cost = np.full((rows, cols), np.inf, dtype=float)
    cost[0, 0] = weighted[0, 0]
    if free_query_start:
        cost[0, :] = weighted[0, :]
    else:
        for j in range(1, cols):
            cost[0, j] = cost[0, j - 1] + weighted[0, j]
    for i in range(1, rows):
        cost[i, 0] = cost[i - 1, 0] + weighted[i, 0]
        row_prev = cost[i - 1]
        row_curr = cost[i]
        for j in range(1, cols):
            best_prev = min(row_prev[j - 1], row_prev[j], row_curr[j - 1])
            row_curr[j] = weighted[i, j] + best_prev
    return cost
