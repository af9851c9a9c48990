"""Spatial hashing for tag-to-tag coupling neighbour lookups.

The reader models mutual coupling by treating every tag within
``ReaderConfig.tag_coupling_radius_m`` of the observed tag as a weak
scatterer.  The read-at-a-time test oracle finds those neighbours by scanning
the whole population per read.  :class:`NeighborGrid` instead keeps one stably
sorted array of int64 cell codes over a uniform grid whose cell edge is just
over the radius, so every neighbour of a point lies in the 27 cells around
its own.  The three cells stacked along z in one (x, y) column have
consecutive codes, so a batch of query rows finds its candidates with
``np.searchsorted`` over 9 contiguous code ranges per row.  The filter works
on three contiguous x/y/z position columns, gathered with ``take``: it keeps
the candidates within ``distance <= radius`` (the scan's own
``sqrt((dx²+dy²)+dz²)`` arithmetic, so neighbour sets and RF observations
stay bit-identical) and drops the rest with ``compress``.  Each row is put in
ascending order by one sort of the int64 key ``row * N + candidate`` — no
Python loop over points.  Rows are built on demand: a sweep packs only the
tags its event table observed, a small fraction of a dense hall.  The grid
serves static layouts (built once per sweep); moving tags use the reader's
dense per-event filter.
"""

from __future__ import annotations

import math

import numpy as np

_ROW_CHUNK = 128
"""Rows packed per pass.  A dense hall offers ~200 candidates per row, so a
chunk's candidate temporaries stay near 4 MB however many rows are asked for."""


def _expand_ranges(starts: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(range_index, value)`` of the concatenated ``arange(start, start + size)``."""
    range_index = np.repeat(np.arange(sizes.size, dtype=np.intp), sizes)
    first_entry = np.cumsum(sizes) - sizes
    return range_index, np.repeat(starts - first_entry, sizes) + np.arange(range_index.size)


class NeighborGrid:
    """Uniform grid over a fixed set of positions, searched by cell code.

    ``positions`` is an ``(N, 3)`` array (metres); ``radius`` is the
    neighbour radius and, up to a rounding margin, the cell edge.  Raises
    ``ValueError`` for a layout too large for exact int64 cell codes.
    """

    def __init__(self, positions: np.ndarray, radius: float) -> None:
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        self._positions = np.asarray(positions, dtype=float)
        if self._positions.ndim != 2 or self._positions.shape[1] != 3:
            raise ValueError(
                f"positions must have shape (N, 3), got {self._positions.shape}"
            )
        if not np.isfinite(self._positions).all():
            raise ValueError("positions must be finite")
        self._radius = float(radius)
        self._columns = tuple(np.ascontiguousarray(self._positions[:, k]) for k in range(3))
        # Cells a hair wider than the radius: a pair whose rounded distance
        # is <= radius may be a few ulps farther apart exactly, and the
        # division below rounds too.  While |cell| < 2**31 both errors stay
        # under 2**-21 of a cell, so such pairs never sit two cells apart.
        cells = np.floor(self._positions / (self._radius * (1 + 2**-20)))
        low, high = (cells.min(0), cells.max(0)) if len(cells) else (np.zeros(3),) * 2
        # One empty cell of padding on each side keeps every neighbour code
        # of every point inside the packed range, so codes never alias.
        spans = [int(h) - int(l) + 3 for l, h in zip(low, high)]
        too_many = math.prod(spans) > np.iinfo(np.int64).max
        if too_many or np.abs(cells).max(initial=0) >= 2**31:
            raise ValueError(
                f"layout extent {((high - low + 1) * self._radius).tolist()} m is too "
                f"large for a grid of {self._radius} m cells: {spans} cells per axis"
            )
        keys = cells.astype(np.int64) - low.astype(np.int64) + 1
        self._codes = (keys[:, 0] * spans[1] + keys[:, 1]) * spans[2] + keys[:, 2]
        self._order = np.argsort(self._codes, kind="stable")
        self._sorted_codes = self._codes[self._order]
        # The z-cells of one (x, y) column have consecutive codes, so the 27
        # neighbouring cells are 9 code ranges [centre - 1, centre + 1].
        step = np.arange(-1, 2, dtype=np.int64)
        self._column_deltas = ((step[:, None] * spans[1] + step) * spans[2]).reshape(-1)
        self._packed: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def radius(self) -> float:
        """The neighbour radius (the cell edge, up to a rounding margin), metres."""
        return self._radius

    def __len__(self) -> int:
        return int(self._positions.shape[0])

    def packed_neighbors(
        self, rows: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR packing of the neighbour lists of ``rows`` (default: every point).

        Returns ``(counts, offsets, flat)``: the neighbours of ``rows[k]``
        are ``flat[offsets[k] : offsets[k] + counts[k]]``, sorted ascending —
        the order a whole-population scan visits them in.  The all-rows packing is
        cached; a packing of selected rows is built fresh on each call.
        """
        every_row = rows is None
        if every_row and self._packed is not None:
            return self._packed
        rows = np.arange(len(self)) if every_row else np.asarray(rows, dtype=np.intp)
        counts, flat = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
        x, y, z = self._columns
        for start in range(0, rows.size, _ROW_CHUNK):
            chunk = rows[start : start + _ROW_CHUNK]
            # Each row's candidates: the slots of its 9 surrounding (x, y)
            # columns, three z-cells each, in the sorted code array.
            centres = (self._codes.take(chunk)[:, None] + self._column_deltas).reshape(-1)
            first = np.searchsorted(self._sorted_codes, centres - 1, side="left")
            sizes = np.searchsorted(self._sorted_codes, centres + 1, side="right") - first
            range_index, slots = _expand_ranges(first, sizes)
            owners = range_index // self._column_deltas.size
            candidates = self._order.take(slots)
            queries = chunk.take(owners)
            dx = x.take(queries) - x.take(candidates)
            dy = y.take(queries) - y.take(candidates)
            dz = z.take(queries) - z.take(candidates)
            within = (np.sqrt((dx * dx + dy * dy) + dz * dz) <= self._radius) & (
                candidates != queries
            )
            candidates, owners = candidates.compress(within), owners.compress(within)
            # Owners arrive grouped row by row; one sort of the row-major key
            # orders each row ascending and leaves the grouping as it is.
            base = owners * len(self)
            key = base + candidates
            key.sort()
            flat.append(key - base)
            counts.append(np.bincount(owners, minlength=chunk.size))
        counts, flat = np.concatenate(counts).astype(np.intp), np.concatenate(flat)
        offsets = np.cumsum(counts) - counts
        if every_row:
            self._packed = (counts, offsets, flat)
        return counts, offsets, flat

    def neighbors_for_events(self, tag_indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-event neighbour pairs for a batch of observed tags.

        ``tag_indices`` names the observed point of each event.  Returns
        ``(event_index, neighbor_index)`` — one row per (event, neighbour)
        pair, grouped by event in event order with each event's neighbours
        ascending — the flattening of each event's row of
        :meth:`packed_neighbors`, packing one row per distinct observed point.
        """
        tag_indices = np.asarray(tag_indices, dtype=np.intp)
        rows, row_of_event = np.unique(tag_indices, return_inverse=True)
        counts, offsets, flat = self.packed_neighbors(rows)
        event_index, pairs = _expand_ranges(
            offsets.take(row_of_event), counts.take(row_of_event)
        )
        return event_index, flat.take(pairs)
