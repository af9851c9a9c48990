"""Segmented subsequence DTW: V-zone location, batched and resumable.

STPP matches a *reference* phase profile (computed from nominal geometry)
against the *measured* profile of each tag to locate the V-zone (paper
§3.1.1).  Because the reader is moved by hand, the measured profile is locally
stretched and compressed; DTW absorbs those warps.  The paper's efficiency
optimisation (§3.1.2) runs DTW on the coarse segment representation instead of
raw samples, with a range-gap distance and a duration-weighted cost.

Every alignment is a **subsequence** alignment: the start and end of the
*measured* side are free, i.e. it finds the measured subrange that best
matches the whole reference, because a measured profile usually contains
more periods than the 4-period reference.

All aligners share one accumulated-cost kernel, :func:`_accumulate_stack`,
which evaluates the DTW recurrence along anti-diagonals across a stack of
(padded) cost matrices at once, so NumPy processes a whole diagonal of a
whole chunk per step; this is what lets the localization engine align every
tag of a sweep in one pass.

Streaming alignment goes through the same sweep.  A
:class:`ResumableSegmentAligner` holds one tag's cached accumulation prefix,
and :func:`align_resumable_batch` resumes any number of them in one batched
resume across all tags: each lane is seeded with its last cached column (or
starts fresh) and contributes only the columns that grew.
:meth:`ResumableSegmentAligner.align` is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .segmentation import SegmentArrays, duration_weight_matrix, range_gap_matrix


MAX_BATCH_CELLS = 250_000
"""Padded-cell budget per batched accumulation chunk.

The anti-diagonal sweep traverses the whole chunk once per diagonal, so the
chunk must stay cache-resident: 250k float64 cells is ~2 MB, which keeps the
sweep in L2/L3 on typical hardware.  Larger chunks amortise more per-call
overhead but start thrashing the cache (measured: a 12×380×600 stack is ~2×
slower at an 8M budget than at 250k), so this is a throughput knob, not a
correctness one — results are identical at any setting.
"""


@dataclass(frozen=True, slots=True)
class DTWResult:
    """Outcome of a DTW alignment."""

    cost: float
    """Total cost of the optimal warping path."""

    path: tuple[tuple[int, int], ...]
    """The optimal warping path as (reference index, query index) pairs."""

    query_start: int
    """First query index touched by the path."""

    query_end: int
    """Last query index touched by the path (inclusive)."""

    def query_indices_for_reference_range(self, ref_start: int, ref_end: int) -> tuple[int, int]:
        """Query index range matched to reference indices ``[ref_start, ref_end]``.

        The range is **inclusive on both ends**: a path pair ``(r, q)``
        contributes its query index ``q`` whenever ``ref_start <= r <= ref_end``.
        The returned ``(start, end)`` pair is likewise inclusive — ``end`` is
        the last matched query index, not one past it.

        Raises
        ------
        ValueError
            If ``ref_start > ref_end``, if either bound is negative, or if the
            warping path does not touch any reference index in the range (for
            a valid path this only happens when the range lies outside the
            reference rows the path covers).
        """
        if ref_start < 0 or ref_end < 0:
            raise ValueError(
                f"reference indices must be non-negative, got [{ref_start}, {ref_end}]"
            )
        if ref_start > ref_end:
            raise ValueError(
                f"reference range is inverted: start {ref_start} > end {ref_end}"
            )
        matched = [q for r, q in self.path if ref_start <= r <= ref_end]
        if not matched:
            covered_lo = min(r for r, _ in self.path)
            covered_hi = max(r for r, _ in self.path)
            raise ValueError(
                f"reference range [{ref_start}, {ref_end}] not covered by the "
                f"warping path (path covers reference rows "
                f"[{covered_lo}, {covered_hi}])"
            )
        return min(matched), max(matched)


def _backtrack(cost: np.ndarray, end_col: int) -> tuple[tuple[int, int], ...]:
    """Backtrack the optimal path through an accumulated cost matrix.

    The path ends at ``end_col`` of the last reference row and, the query
    start being free, stops as soon as it reaches the first reference row.
    Degenerate matrices are handled naturally: a 1×N matrix yields a single
    cell and an N×1 matrix a purely vertical path.

    The walk reads only the cells it visits, as plain Python floats through a
    flat memoryview of the matrix.  A C-contiguous matrix is viewed as is; any
    other (such as a resumed aligner's slice of its wider buffer) is first
    copied once into contiguous memory.
    Each step compares diagonal, up and left with the same ``<`` tests as
    ``min((diag, up, left), key=...)``: the first minimum wins a tie, so the
    diagonal beats up and up beats left (the ``min`` form is kept as the
    oracle in ``tests/oracles/dtw.py``).
    """
    rows, cols = cost.shape
    flat = memoryview(np.ascontiguousarray(cost).reshape(-1))
    i = rows - 1
    j = end_col
    path = [(i, j)]
    while i > 0:
        if j == 0:
            i -= 1
        else:
            cell = i * cols + j
            best = flat[cell - cols - 1]  # diag
            step_i, step_j = i - 1, j - 1
            value = flat[cell - cols]  # up
            if value < best:
                best = value
                step_j = j
            value = flat[cell - 1]  # left
            if value < best:
                step_i, step_j = i, j - 1
            i, j = step_i, step_j
        path.append((i, j))
    path.reverse()
    return tuple(path)


def _accumulate_stack(
    stack: np.ndarray, first_column: np.ndarray | None = None
) -> np.ndarray:
    """Run the DTW recurrence over a ``(rows, cols, batch)`` weighted stack.

    The query start is free, so the first row is the stack's own first row.
    ``first_column`` (``(rows, batch)``), when given, is the already
    accumulated cost of column 0 — a resumed alignment's last cached column —
    and the sweep continues from it; by default column 0 is accumulated from
    the stack like every other column.

    The recurrence's row-major data dependency is broken by sweeping
    anti-diagonals: every cell on diagonal ``d = i + j`` depends only on
    diagonals ``d-1`` and ``d-2``, so a whole diagonal (across the whole
    batch) is one NumPy step.  With the batch axis innermost, flattening the
    cell axes makes an anti-diagonal a plain strided slice of ``cols - 1``
    rows apart (``flat(i, d - i) = d + i * (cols - 1)``), each row a
    contiguous run of batch lanes — no index arrays, no copies, and the inner
    ufunc loops stream over contiguous memory.

    Cell values match the seed's pure-Python double loop (kept as the oracle
    in ``tests/oracles/dtw.py``) bit for bit: the first row/column use
    ``np.add.accumulate`` (a strictly sequential sum, like the seed loop) and
    interior cells add the same operands in the same order.
    """
    rows, cols, batch = stack.shape
    cost = np.empty_like(stack)
    if first_column is None:
        # cost[i, 0] = cost[i-1, 0] + w[i, 0]; cost[0, 0] = w[0, 0], so the
        # running sum covers it.
        first_column = np.add.accumulate(stack[:, 0], axis=0)
    cost[0] = stack[0]
    cost[:, 0] = first_column
    if rows == 1 or cols == 1:
        return cost

    flat_cost = cost.reshape(rows * cols, batch)
    flat_weighted = stack.reshape(rows * cols, batch)
    step = cols - 1
    for d in range(2, rows + cols - 1):
        i_lo = max(1, d - cols + 1)
        i_hi = min(rows - 1, d - 1)
        if i_lo > i_hi:
            continue
        start = d + i_lo * step
        stop = d + i_hi * step + 1
        current = slice(start, stop, step)
        left = slice(start - 1, stop - 1, step)              # (i,   j-1)
        up = slice(start - 1 - step, stop - 1 - step, step)  # (i-1, j)
        diag = slice(start - 2 - step, stop - 2 - step, step)  # (i-1, j-1)
        best = np.minimum(
            np.minimum(flat_cost[diag], flat_cost[up]), flat_cost[left]
        )
        flat_cost[current] = flat_weighted[current] + best
    return cost


def _plan_chunks(shapes: list[tuple[int, int]]) -> list[list[int]]:
    """Group matrix indices into padded chunks of at most
    :data:`MAX_BATCH_CELLS` cells.

    Indices are sorted by shape first so similarly sized matrices share a
    chunk and padding waste stays low.
    """
    order = sorted(range(len(shapes)), key=lambda k: shapes[k])
    chunks: list[list[int]] = []
    chunk: list[int] = []
    chunk_rows = chunk_cols = 0
    for k in order:
        rows, cols = shapes[k]
        new_rows, new_cols = max(chunk_rows, rows), max(chunk_cols, cols)
        if chunk and (len(chunk) + 1) * new_rows * new_cols > MAX_BATCH_CELLS:
            chunks.append(chunk)
            chunk = []
            new_rows, new_cols = rows, cols
        chunk.append(k)
        chunk_rows, chunk_cols = new_rows, new_cols
    if chunk:
        chunks.append(chunk)
    return chunks


def _accumulate_chunk(
    chunk: list[int],
    shapes: list[tuple[int, int]],
    make_weighted,
    seeds: "list[np.ndarray | None] | None" = None,
) -> np.ndarray:
    """Stack one chunk's weighted matrices (zero-padded) and accumulate it.

    Padding cannot leak into a matrix's own cells because the DTW recurrence
    only ever reads up/left/up-left neighbours, which all lie inside the
    unpadded region.  ``seeds[k]``, when not None, replaces item ``k``'s
    column 0 with an already accumulated column (a resumed lane); the other
    lanes start fresh.
    """
    rows = max(shapes[k][0] for k in chunk)
    cols = max(shapes[k][1] for k in chunk)
    stack = np.zeros((rows, cols, len(chunk)), dtype=float)
    for slot, k in enumerate(chunk):
        r, c = shapes[k]
        stack[:r, :c, slot] = make_weighted(k)
    first_column = None
    if seeds is not None:
        first_column = np.add.accumulate(stack[:, 0], axis=0)
        for slot, k in enumerate(chunk):
            if seeds[k] is not None:
                first_column[: shapes[k][0], slot] = seeds[k]
    return _accumulate_stack(stack, first_column)


def _backtracked_batch(shapes: list[tuple[int, int]], make_weighted) -> list[DTWResult]:
    """Accumulate-and-backtrack many alignments, one padded chunk at a time.

    ``make_weighted(k)`` builds the weighted distance matrix of item ``k`` on
    demand, so peak memory is one chunk's stack plus the (tiny) results —
    independent of fleet size.
    """
    results: list[DTWResult | None] = [None] * len(shapes)
    for chunk in _plan_chunks(shapes):
        cost = _accumulate_chunk(chunk, shapes, make_weighted)
        for slot, k in enumerate(chunk):
            r, c = shapes[k]
            results[k] = _result_from_cost(np.ascontiguousarray(cost[:r, :c, slot]))
    return results  # type: ignore[return-value]


def _result_from_cost(cost: np.ndarray) -> DTWResult:
    """Backtrack ``cost`` from the cheapest end column of the last row."""
    end_col = int(np.argmin(cost[-1]))
    path = _backtrack(cost, end_col)
    total = float(cost[-1, end_col])
    return DTWResult(
        cost=total,
        path=path,
        query_start=path[0][1],
        query_end=path[-1][1],
    )


def _as_nonempty_sequence(values: np.ndarray, label: str) -> np.ndarray:
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise ValueError(f"{label} sequence must be non-empty")
    return array


def subsequence_dtw_batch(
    reference: np.ndarray, queries: list[np.ndarray]
) -> list[DTWResult]:
    """Match the whole ``reference`` to the best subrange of each query.

    Raw-sample subsequence DTW (paper §3.1.1): the per-cell distance is the
    absolute phase difference, and each query's start and end are free, so
    ``query_start``/``query_end`` delimit the matched subrange.  The
    accumulation sweeps whole chunks of cost matrices at once, building each
    chunk's distance matrices on demand and discarding them after
    backtracking.
    """
    reference = _as_nonempty_sequence(reference, "reference")
    cleaned = [_as_nonempty_sequence(query, "query") for query in queries]
    shapes = [(reference.size, query.size) for query in cleaned]
    return _backtracked_batch(
        shapes,
        lambda k: np.abs(reference[:, None] - cleaned[k][None, :]),
    )


def _weighted_distances(
    reference: SegmentArrays, reference_durations: np.ndarray, query: SegmentArrays
) -> np.ndarray:
    """The segmented DTW cost matrix (paper §3.1.2) of two segmentations.

    The per-cell distance is the gap between the two segments' phase ranges,
    weighted by the shorter of the two segment durations — both exactly as
    defined in the paper.  Every aligner builds its matrices here.
    """
    distance = range_gap_matrix(reference.mins, reference.maxs, query.mins, query.maxs)
    return distance * duration_weight_matrix(reference_durations, query.durations())


def segmented_dtw_align_batch(
    reference_segments: SegmentArrays,
    query_segmentations: "list[SegmentArrays]",
) -> list[DTWResult]:
    """Segmented DTW of one reference segmentation against many queries.

    Each query's start and end are free, which is how the V-zone of a short
    reference is located inside a long measured profile.  The reference's
    durations are computed once and reused across every query's matrix, and
    the accumulations sweep whole padded chunks at a time (each chunk's
    matrices are built on demand and freed after backtracking).  An
    alignment does not depend on the other queries of the batch.
    """
    if not len(reference_segments):
        raise ValueError("reference segmentation must be non-empty")
    if any(not len(query_segments) for query_segments in query_segmentations):
        raise ValueError("query segmentations must be non-empty")
    reference_durations = reference_segments.durations()
    shapes = [
        (len(reference_segments), len(query_segments))
        for query_segments in query_segmentations
    ]
    return _backtracked_batch(
        shapes,
        lambda k: _weighted_distances(
            reference_segments, reference_durations, query_segmentations[k]
        ),
    )


class ResumableSegmentAligner:
    """Subsequence segmented DTW that resumes as the query grows (streaming).

    The accumulated-cost matrix of subsequence DTW has a crucial property:
    column ``j`` depends only on columns ``<= j``.  A growing *measured*
    segmentation therefore never invalidates the columns of segments that are
    already **stable** (closed in the columnar
    :class:`~repro.core.segmentation.IncrementalSegmenter`, which segments
    every stale tag of a refresh in one pass — no future sample can change
    them), so this aligner caches the accumulation prefix over the stable
    columns and, on every refresh, computes only

    * the columns of segments that became stable since the last refresh, which
      are appended to the cache, and
    * the (at most one, usually) volatile tail columns, recomputed past the
      cached prefix.

    Per refresh that is O(rows × new_columns) instead of O(rows × columns),
    which is what makes per-round provisional orderings cheap.

    The aligner only holds state; :func:`align_resumable_batch` advances any
    number of aligners in one batched anti-diagonal sweep, and :meth:`align`
    is a batch of one.

    **Bit-identity contract**: the new columns come from the same kernel as
    :func:`segmented_dtw_align_batch`'s, seeded with the last cached column,
    and the path from the shared :func:`_backtrack`.  The result of
    :meth:`align` is therefore bit-identical to
    ``segmented_dtw_align_batch(reference, [query_segments])[0]`` — pinned
    by ``tests/test_streaming.py``, and against the pure-Python oracle of
    ``tests/oracles/dtw.py`` by ``tests/test_resumable_batch.py``.

    ``reference`` is not copied: a detector shares its read-only
    :meth:`~repro.core.vzone.VZoneDetector.reference_segmentation` among
    every tag's aligner.
    """

    def __init__(self, reference: SegmentArrays) -> None:
        if not len(reference):
            raise ValueError("reference segmentation must be non-empty")
        self._reference = reference
        self._reference_durations = reference.durations()
        self._rows = len(reference)
        self._cost = np.empty((self._rows, 8), dtype=float)
        self._cached_cols = 0

    def reset(self) -> None:
        """Drop the cached prefix (used when a tag's stream is rebuilt)."""
        self._cached_cols = 0

    def _ensure_capacity(self, columns: int) -> None:
        if self._cost.shape[1] >= columns:
            return
        capacity = self._cost.shape[1]
        while capacity < columns:
            capacity *= 2
        grown = np.empty((self._rows, capacity), dtype=float)
        grown[:, : self._cached_cols] = self._cost[:, : self._cached_cols]
        self._cost = grown

    def align(
        self,
        query_segments: SegmentArrays,
        stable_count: int | None = None,
    ) -> DTWResult:
        """Align the reference against the current query segmentation.

        A batch of one through :func:`align_resumable_batch`.

        Parameters
        ----------
        query_segments:
            The measured profile's segmentation so far (stable prefix first).
        stable_count:
            How many leading segments are stable (from
            :meth:`~repro.core.segmentation.IncrementalSegmenter.stable_count`).
            Defaults to all but the last segment.  Must not shrink between
            calls — a shrinking prefix means the stream was rebuilt, in which
            case call :meth:`reset` first.
        """
        return align_resumable_batch([self], [query_segments], [stable_count])[0]


def align_resumable_batch(
    aligners: "list[ResumableSegmentAligner]",
    query_segmentations: "list[SegmentArrays]",
    stable_counts: "list[int | None] | None" = None,
) -> list[DTWResult]:
    """Resume many :class:`ResumableSegmentAligner` states in one batch.

    Lane ``k`` aligns ``aligners[k]`` against ``query_segmentations[k]``,
    whose leading ``stable_counts[k]`` segments are stable (default: all but
    the last), exactly as :meth:`ResumableSegmentAligner.align` would.  Each
    lane only contributes the columns past its cached prefix: a lane with a
    cache is seeded with its last cached column, a lane without one starts
    fresh, and all of them run through the same chunked anti-diagonal sweep
    as :func:`segmented_dtw_align_batch` (where every lane is fresh).  The new
    columns land in each aligner's buffer, whose cached prefix then advances
    to the stable count, and every lane is backtracked over its whole matrix.

    Raises ``ValueError`` before touching any aligner if a segmentation is
    empty or a stable prefix shrank below its aligner's cache.
    """
    if stable_counts is None:
        stable_counts = [None] * len(aligners)
    if not len(aligners) == len(query_segmentations) == len(stable_counts):
        raise ValueError("aligners, segmentations and stable counts must pair up")
    lanes = []
    for aligner, segments, stable_count in zip(
        aligners, query_segmentations, stable_counts
    ):
        columns = len(segments)
        if columns == 0:
            raise ValueError("query segmentation must be non-empty")
        stable = columns - 1 if stable_count is None else min(stable_count, columns)
        if stable < aligner._cached_cols:
            raise ValueError(
                f"stable prefix shrank from {aligner._cached_cols} to {stable} "
                "columns; call reset() after rebuilding a stream"
            )
        lanes.append((aligner, segments, columns, stable))

    # A lane recomputes from its last cached column on (the seed of its
    # sweep), or from column 0 when it has no cache; lanes with no new
    # column skip the sweep.  The volatile tail lands past the cached prefix
    # and is overwritten on the next refresh.
    growing = [
        (aligner, segments, columns, stable)
        for aligner, segments, columns, stable in lanes
        if aligner._cached_cols < columns
    ]
    starts: list[int] = []
    shapes: list[tuple[int, int]] = []
    seeds: list[np.ndarray | None] = []
    for aligner, _, columns, _ in growing:
        aligner._ensure_capacity(columns)
        cached = aligner._cached_cols
        starts.append(max(cached - 1, 0))
        shapes.append((aligner._rows, columns - starts[-1]))
        seeds.append(aligner._cost[:, cached - 1] if cached else None)

    def make_weighted(k: int) -> np.ndarray:
        aligner, segments, columns, _ = growing[k]
        return _weighted_distances(
            aligner._reference, aligner._reference_durations, segments[starts[k] : columns]
        )

    for chunk in _plan_chunks(shapes):
        cost = _accumulate_chunk(chunk, shapes, make_weighted, seeds)
        for slot, k in enumerate(chunk):
            aligner, _, columns, _ = growing[k]
            rows, width = shapes[k]
            skip = 0 if seeds[k] is None else 1
            aligner._cost[:, starts[k] + skip : columns] = cost[:rows, skip:width, slot]

    results = []
    for aligner, _, columns, stable in lanes:
        aligner._cached_cols = stable
        results.append(
            _result_from_cost(aligner._cost[:, :columns])
        )
    return results
