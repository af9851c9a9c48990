"""Tag layout generators for the micro- and macro-benchmarks.

The paper evaluates STPP over several tag arrangements: evenly spaced rows
and grids for the micro-benchmarks (Figures 12–14, Table 1), five mixed
layouts for the scheme comparison (Figure 16/17), and reference-tag grids for
the Landmarc baseline.  All generators return plain lists of
:class:`~repro.rf.geometry.Point3D` in the tag plane (z = 0) so they can be
fed straight into :func:`repro.rfid.make_tags`.
"""

from __future__ import annotations

import numpy as np

from ..rf.geometry import Point3D


def row_layout(count: int, spacing_m: float, y_m: float = 0.0) -> list[Point3D]:
    """``count`` tags in a single row along X, ``spacing_m`` apart."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if spacing_m <= 0:
        raise ValueError("spacing must be positive")
    return [Point3D(i * spacing_m, y_m, 0.0) for i in range(count)]


def grid_layout(
    columns: int, rows: int, x_spacing_m: float, y_spacing_m: float
) -> list[Point3D]:
    """A ``columns`` x ``rows`` grid (the Figure 1 arrangement is 3 x 2)."""
    if columns < 1 or rows < 1:
        raise ValueError("grid dimensions must be >= 1")
    if x_spacing_m <= 0 or y_spacing_m <= 0:
        raise ValueError("spacings must be positive")
    return [
        Point3D(ix * x_spacing_m, iy * y_spacing_m, 0.0)
        for iy in range(rows)
        for ix in range(columns)
    ]


def staircase_layout(
    count: int, x_spacing_m: float, y_spacing_m: float, levels: int = 4
) -> list[Point3D]:
    """Tags with strictly increasing X and cyclically increasing Y.

    Every tag has a distinct X *and* a distinct position within its Y level,
    which makes the layout convenient for evaluating both orderings without
    ties.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    return [
        Point3D(i * x_spacing_m, (i % levels) * y_spacing_m, 0.0) for i in range(count)
    ]


def random_spacing_row(
    count: int,
    min_spacing_m: float,
    max_spacing_m: float,
    rng: np.random.Generator | None = None,
    y_jitter_m: float = 0.0,
) -> list[Point3D]:
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
    return [Point3D(float(x), float(y), 0.0) for x, y in zip(xs, ys)]


def reference_tag_grid(
    x_span_m: float,
    y_span_m: float,
    spacing_m: float = 0.2,
    origin: Point3D = Point3D(0.0, 0.0, 0.0),
) -> list[Point3D]:
    """A regular grid of reference-tag positions for the Landmarc baseline."""
    if spacing_m <= 0:
        raise ValueError("spacing must be positive")
    xs = np.arange(origin.x, origin.x + x_span_m + 1e-9, spacing_m)
    ys = np.arange(origin.y, origin.y + y_span_m + 1e-9, spacing_m)
    return [Point3D(float(x), float(y), 0.0) for y in ys for x in xs]


def paper_test_cases(spacing_m: float = 0.06) -> dict[str, list[Point3D]]:
    """The five layout settings of Figure 16 (approximated).

    The paper shows the five arrangements only as photographs; the five
    generators below cover the same qualitative variety — a sparse row, a
    dense row, a two-row grid, a staircase, and clustered pairs — with the
    adjacent-tag distance controlled by ``spacing_m``.
    """
    clustered: list[Point3D] = []
    for pair_index in range(5):
        base_x = pair_index * 4.0 * spacing_m
        clustered.append(Point3D(base_x, 0.0, 0.0))
        clustered.append(Point3D(base_x + spacing_m / 2.0, spacing_m / 2.0, 0.0))
    return {
        "case1_sparse_row": row_layout(8, spacing_m * 2.0),
        "case2_dense_row": row_layout(12, spacing_m),
        "case3_grid": grid_layout(6, 2, spacing_m * 1.5, spacing_m * 1.5),
        "case4_staircase": staircase_layout(10, spacing_m, spacing_m, levels=3),
        "case5_clustered_pairs": clustered,
    }
