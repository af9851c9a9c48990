"""Unit tests for the layout, library, and airport workload generators."""

import numpy as np
import pytest

from repro.workloads.airport import (
    MIDDAY_OFF_PEAK,
    MORNING_PEAK,
    PAPER_PERIODS,
    baggage_batch,
)
from repro.workloads.layouts import (
    grid_layout,
    paper_test_cases,
    random_spacing_row,
    reference_tag_grid,
    row_layout,
    staircase_layout,
)
from repro.workloads.library import (
    detect_misplaced_books,
    generate_bookshelf,
    misplace_books,
)


class TestLayouts:
    def test_row(self):
        row = row_layout(5, 0.1)
        assert len(row) == 5
        assert row[4].x == pytest.approx(0.4)

    def test_grid_size(self):
        grid = grid_layout(3, 2, 0.1, 0.05)
        assert len(grid) == 6
        assert grid[-1].x == pytest.approx(0.2)
        assert grid[-1].y == pytest.approx(0.05)

    def test_staircase_distinct_x(self):
        layout = staircase_layout(8, 0.05, 0.05)
        xs = [p.x for p in layout]
        assert len(set(xs)) == 8

    def test_random_spacing_row_within_bounds(self):
        rng = np.random.default_rng(0)
        layout = random_spacing_row(10, 0.02, 0.10, rng=rng)
        gaps = np.diff([p.x for p in layout])
        assert np.all(gaps >= 0.02 - 1e-9)
        assert np.all(gaps <= 0.10 + 1e-9)

    def test_reference_grid_covers_span(self):
        grid = reference_tag_grid(0.4, 0.2, spacing_m=0.2)
        xs = {p.x for p in grid}
        ys = {p.y for p in grid}
        assert max(xs) == pytest.approx(0.4)
        assert max(ys) == pytest.approx(0.2)

    def test_paper_test_cases_have_five_layouts(self):
        cases = paper_test_cases()
        assert len(cases) == 5
        assert all(len(points) >= 8 for points in cases.values())

    def test_validation(self):
        with pytest.raises(ValueError):
            row_layout(0, 0.1)
        with pytest.raises(ValueError):
            random_spacing_row(5, 0.1, 0.05)


class TestLibrary:
    def test_generate_bookshelf_structure(self):
        shelf = generate_bookshelf(levels=3, books_per_level=10, seed=0)
        assert len(shelf.books) == 30
        assert shelf.levels == [0, 1, 2]
        assert all(0.03 <= b.thickness_m <= 0.08 for b in shelf.books)

    def test_spine_positions_monotone_within_level(self):
        shelf = generate_bookshelf(levels=1, books_per_level=10, seed=1)
        positions = shelf.spine_positions()
        order = shelf.physical_order(0)
        xs = [positions[c].x for c in order]
        assert xs == sorted(xs)

    def test_fresh_shelf_has_no_misplaced_books(self):
        shelf = generate_bookshelf(levels=2, books_per_level=8, seed=2)
        for level in shelf.levels:
            catalogue = shelf.catalogue_order(level)
            assert detect_misplaced_books(catalogue, shelf.physical_order(level)) == []

    def test_misplace_books_detected_by_ground_truth(self):
        shelf = generate_bookshelf(levels=1, books_per_level=20, seed=3)
        shuffled, misplaced = misplace_books(shelf, 2, rng=np.random.default_rng(3))
        assert len(misplaced) == 2
        (level,) = shuffled.levels
        flagged = detect_misplaced_books(
            shuffled.catalogue_order(level), shuffled.physical_order(level)
        )
        assert set(misplaced) <= set(flagged)

    def test_detect_misplaced_books_flags_moved_book(self):
        catalogue = [f"B{i}" for i in range(10)]
        physical = list(catalogue)
        moved = physical.pop(2)
        physical.insert(7, moved)
        flagged = detect_misplaced_books(catalogue, physical)
        assert moved in flagged
        assert len(flagged) <= 2

    def test_detect_no_false_alarm_on_ordered_shelf(self):
        catalogue = [f"B{i}" for i in range(10)]
        assert detect_misplaced_books(catalogue, catalogue) == []

    def test_to_tags_labels_are_call_numbers(self):
        shelf = generate_bookshelf(levels=1, books_per_level=5, seed=4)
        tags = shelf.to_tags(seed=4)
        assert sorted(tag.label for tag in tags) == shelf.catalogue_order()

    def test_misplace_too_many_rejected(self):
        shelf = generate_bookshelf(levels=1, books_per_level=3, seed=5)
        with pytest.raises(ValueError):
            misplace_books(shelf, 10)


class TestAirport:
    def test_periods_defined(self):
        assert len(PAPER_PERIODS) == 3

    def test_batch_gaps_respect_period(self):
        batch = baggage_batch(MORNING_PEAK, 15, seed=0)
        xs = sorted(t.position.x for t in batch.tags)
        gaps = np.diff(xs)
        assert np.all(gaps >= MORNING_PEAK.min_gap_m - 1e-9)
        assert np.all(gaps <= MORNING_PEAK.max_gap_m + 1e-9)

    def test_batch_ground_truth_order(self):
        batch = baggage_batch(MIDDAY_OFF_PEAK, 8, seed=1)
        order = batch.ground_truth_order()
        by_id = {tag.tag_id: tag for tag in batch.tags}
        xs = [by_id[t].position.x for t in order]
        assert xs == sorted(xs)

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            baggage_batch(MORNING_PEAK, 0)
