"""Pure-Python DTW accumulation and backtrack: oracles for the library kernels."""

from __future__ import annotations

import numpy as np


def accumulate_python(
    distance: np.ndarray,
    weights: np.ndarray | None = None,
    free_query_start: bool = False,
) -> np.ndarray:
    """The seed repository's pure-Python DTW accumulation (double loop).

    The equivalence tests assert that :func:`repro.core.dtw.accumulate_cost`
    and the batched chunk sweep (``repro.core.dtw._accumulate_chunk``)
    reproduce it bit for bit.
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


def backtrack_min(
    cost: np.ndarray, start_col: int | None = None
) -> tuple[tuple[int, int], ...]:
    """The ``min(..., key=...)`` backtrack over NumPy scalars.

    The oracle for :func:`repro.core.dtw._backtrack`, which walks the same
    path over plain Python floats: each step takes the first minimum of
    ``(diag, up, left)``.  ``start_col`` selects the ending column (free
    query start, subsequence DTW); None ends at the bottom-right corner.
    """
    rows, cols = cost.shape
    i = rows - 1
    j = cols - 1 if start_col is None else start_col
    path = [(i, j)]
    while i > 0 or j > 0:
        if i == 0:
            if start_col is not None:
                break
            j -= 1
        elif j == 0:
            i -= 1
        else:
            candidates = (
                (cost[i - 1, j - 1], i - 1, j - 1),
                (cost[i - 1, j], i - 1, j),
                (cost[i, j - 1], i, j - 1),
            )
            _, i, j = min(candidates, key=lambda item: item[0])
        path.append((i, j))
    path.reverse()
    return tuple(path)


def segment_range_distance(a, b) -> float:
    """The paper's ``D_{i,j}`` for one pair of segments.

    Zero when the two phase ranges overlap, otherwise the distance between the
    closest points of the ranges: the pair-at-a-time form of
    :func:`repro.core.segmentation.range_gap_matrix`.
    """
    if a.min_phase_rad > b.max_phase_rad:
        return a.min_phase_rad - b.max_phase_rad
    if b.min_phase_rad > a.max_phase_rad:
        return b.min_phase_rad - a.max_phase_rad
    return 0.0
