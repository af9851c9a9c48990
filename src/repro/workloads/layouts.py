"""Tag layout generators for the micro- and macro-benchmarks.

The paper evaluates STPP over several tag arrangements: evenly spaced rows
and grids for the micro-benchmarks (Figures 12–14, Table 1), five mixed
layouts for the scheme comparison (Figure 16/17), and reference-tag grids for
the Landmarc baseline.  All generators return ``(N, 3)`` float64 position
arrays in the tag plane (z = 0), one row per tag, so they can be fed straight
into :func:`repro.rfid.make_tags`.
"""

from __future__ import annotations

import numpy as np

from ..rf.geometry import Point3D, position_bounds


def _plane(xs: np.ndarray, ys: np.ndarray | float) -> np.ndarray:
    """Rows ``(x, y, 0)`` in the tag plane."""
    rows = np.zeros((xs.size, 3))
    rows[:, 0] = xs
    rows[:, 1] = ys
    return rows


def row_layout(count: int, spacing_m: float, y_m: float = 0.0) -> np.ndarray:
    """``count`` tags in a single row along X, ``spacing_m`` apart."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if spacing_m <= 0:
        raise ValueError("spacing must be positive")
    return _plane(np.arange(count) * spacing_m, y_m)


def grid_layout(
    columns: int, rows: int, x_spacing_m: float, y_spacing_m: float
) -> np.ndarray:
    """A ``columns`` x ``rows`` grid (the Figure 1 arrangement is 3 x 2), row by row."""
    if columns < 1 or rows < 1:
        raise ValueError("grid dimensions must be >= 1")
    if x_spacing_m <= 0 or y_spacing_m <= 0:
        raise ValueError("spacings must be positive")
    return _plane(
        np.tile(np.arange(columns) * x_spacing_m, rows),
        np.repeat(np.arange(rows) * y_spacing_m, columns),
    )


def staircase_layout(
    count: int, x_spacing_m: float, y_spacing_m: float, levels: int = 4
) -> np.ndarray:
    """Tags with strictly increasing X and cyclically increasing Y.

    Every tag has a distinct X *and* a distinct position within its Y level,
    which makes the layout convenient for evaluating both orderings without
    ties.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    index = np.arange(count)
    return _plane(index * x_spacing_m, (index % levels) * y_spacing_m)


def random_spacing_row(
    count: int,
    min_spacing_m: float,
    max_spacing_m: float,
    rng: np.random.Generator | None = None,
    y_jitter_m: float = 0.0,
) -> np.ndarray:
    """A row whose adjacent spacings are drawn uniformly from a range.

    Matches the Table 1 setup, where "the distance between two adjacent tags
    is randomly chosen in the range [2cm, 10cm]".  Optional Y jitter models
    tags not being mounted at exactly the same height.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0 < min_spacing_m <= max_spacing_m:
        raise ValueError("need 0 < min_spacing <= max_spacing")
    rng = rng if rng is not None else np.random.default_rng()
    spacings = rng.uniform(min_spacing_m, max_spacing_m, size=count - 1)
    xs = np.concatenate([[0.0], np.cumsum(spacings)])
    ys = (
        rng.uniform(-y_jitter_m, y_jitter_m, size=count)
        if y_jitter_m > 0
        else np.zeros(count)
    )
    return _plane(xs, ys)


def reference_tag_grid(
    x_span_m: float,
    y_span_m: float,
    spacing_m: float = 0.2,
    origin: Point3D = Point3D(0.0, 0.0, 0.0),
) -> np.ndarray:
    """A regular grid of reference-tag positions for the Landmarc baseline."""
    if spacing_m <= 0:
        raise ValueError("spacing must be positive")
    xs = np.arange(origin.x, origin.x + x_span_m + 1e-9, spacing_m)
    ys = np.arange(origin.y, origin.y + y_span_m + 1e-9, spacing_m)
    return _plane(np.tile(xs, ys.size), np.repeat(ys, xs.size))


def footprint_reference_grid(
    positions: np.ndarray, spacing_m: float | None = None
) -> np.ndarray:
    """The Landmarc reference grid around a target footprint.

    The grid covers the targets' bounding box padded by 0.1 m on each side.
    With ``spacing_m=None`` it is deliberately sparse, spacing
    ``max(0.25, x_span / 4)`` (cf. the Figure 18 deployment note: a dense
    anchor grid starves the targets of reads).
    """
    (min_x, min_y, _), (max_x, max_y, _) = position_bounds(positions)
    span_x = max_x - min_x + 0.2
    span_y = max_y - min_y + 0.2
    if spacing_m is None:
        spacing_m = max(0.25, span_x / 4.0)
    return reference_tag_grid(
        span_x,
        span_y,
        spacing_m=spacing_m,
        origin=Point3D(min_x - 0.1, min_y - 0.1, 0.0),
    )


def paper_test_cases(spacing_m: float = 0.06) -> dict[str, np.ndarray]:
    """The five layout settings of Figure 16 (approximated).

    The paper shows the five arrangements only as photographs; the five
    generators below cover the same qualitative variety — a sparse row, a
    dense row, a two-row grid, a staircase, and clustered pairs — with the
    adjacent-tag distance controlled by ``spacing_m``.
    """
    base_x = np.arange(5) * 4.0 * spacing_m
    clustered = _plane(
        np.stack([base_x, base_x + spacing_m / 2.0], axis=1).ravel(),
        np.tile([0.0, spacing_m / 2.0], 5),
    )
    return {
        "case1_sparse_row": row_layout(8, spacing_m * 2.0),
        "case2_dense_row": row_layout(12, spacing_m),
        "case3_grid": grid_layout(6, 2, spacing_m * 1.5, spacing_m * 1.5),
        "case4_staircase": staircase_layout(10, spacing_m, spacing_m, levels=3),
        "case5_clustered_pairs": clustered,
    }
