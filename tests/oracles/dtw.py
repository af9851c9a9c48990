"""Pure-Python DTW accumulation and backtrack: oracles for the library kernels."""

from __future__ import annotations

import numpy as np

from repro.core.dtw import DTWResult


def accumulate_python(
    distance: np.ndarray,
    weights: np.ndarray | None = None,
    free_query_start: bool = False,
) -> np.ndarray:
    """The seed repository's pure-Python DTW accumulation (double loop).

    The equivalence tests assert that the batched chunk sweep
    (``repro.core.dtw._accumulate_chunk``), a batch of one included,
    reproduces it bit for bit.
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


def segment_range_distance(
    a_min: float, a_max: float, b_min: float, b_max: float
) -> float:
    """The paper's ``D_{i,j}`` for one pair of segment phase ranges.

    Zero when the two phase ranges overlap, otherwise the distance between the
    closest points of the ranges: the pair-at-a-time form of
    :func:`repro.core.segmentation.range_gap_matrix`.
    """
    if a_min > b_max:
        return a_min - b_max
    if b_min > a_max:
        return b_min - a_max
    return 0.0


def align_python(weighted: np.ndarray) -> DTWResult:
    """Subsequence alignment of one weighted cost matrix, cell by cell.

    The query start is free (:func:`accumulate_python` with a free first
    row) and so is its end: the path ends at the cheapest column of the last
    row (the first one on a tie) and is walked back by :func:`backtrack_min`.
    """
    cost = accumulate_python(weighted, None, True)
    end_col = int(np.argmin(cost[-1]))
    path = backtrack_min(cost, start_col=end_col)
    return DTWResult(
        cost=float(cost[-1, end_col]),
        path=path,
        query_start=path[0][1],
        query_end=path[-1][1],
    )


def subsequence_align_python(reference: np.ndarray, query: np.ndarray) -> DTWResult:
    """Raw-sample subsequence DTW: ``|reference[i] - query[j]|`` per cell."""
    distance = np.empty((reference.size, query.size))
    for i, r in enumerate(reference.tolist()):
        for j, q in enumerate(query.tolist()):
            distance[i, j] = abs(r - q)
    return align_python(distance)


def segmented_align_python(reference, query) -> DTWResult:
    """Segmented subsequence DTW (paper §3.1.2) of two column segmentations.

    Each cell is the range gap of the two segments weighted by the shorter of
    their durations, each duration clamped to at least 1 µs, computed one
    pair at a time.
    """
    def durations(segments) -> list[float]:
        return [
            max(end - start, 1e-6)
            for start, end in zip(segments.start_times.tolist(), segments.end_times.tolist())
        ]

    ref_durations, query_durations = durations(reference), durations(query)
    weighted = np.empty((len(ref_durations), len(query_durations)))
    for i, (r_min, r_max) in enumerate(zip(reference.mins.tolist(), reference.maxs.tolist())):
        for j, (q_min, q_max) in enumerate(zip(query.mins.tolist(), query.maxs.tolist())):
            gap = segment_range_distance(r_min, r_max, q_min, q_max)
            weighted[i, j] = gap * min(ref_durations[i], query_durations[j])
    return align_python(weighted)
