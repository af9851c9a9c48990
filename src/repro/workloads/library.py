"""Library case study: locating misplaced books on a shelf (paper §5.1).

The deployment: 90 tagged books on a three-level shelf, book thicknesses
between 3 cm and 8 cm, one RFID tag per book, an antenna on a cart pushed
across the shelf.  Books are catalogued in a strict call-number order; a
*misplaced* book is one whose physical position does not match its catalogue
position.  STPP recovers the physical order of the tags; comparing it with
the catalogue order reveals which books are misplaced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rf.geometry import Point3D
from ..rfid.tag import TagCollection, make_tags

DEFAULT_BOOK_THICKNESS_RANGE_M = (0.03, 0.08)
"""Book thickness range used in the paper's deployment (3–8 cm)."""

DEFAULT_LEVEL_HEIGHT_M = 0.35
"""Vertical distance between shelf levels."""


@dataclass(frozen=True, slots=True)
class Book:
    """One catalogued book on the shelf."""

    call_number: str
    """Catalogue identifier; the catalogue order is the lexicographic order."""

    thickness_m: float
    level: int
    """Shelf level, 0 = bottom."""

    slot: int
    """Physical slot index within the level (left to right)."""


@dataclass
class Bookshelf:
    """A shelf of catalogued books with their physical arrangement."""

    books: list[Book]
    level_height_m: float = DEFAULT_LEVEL_HEIGHT_M

    def books_on_level(self, level: int) -> list[Book]:
        """Books on ``level`` in physical (slot) order."""
        return sorted(
            (book for book in self.books if book.level == level),
            key=lambda book: book.slot,
        )

    @property
    def levels(self) -> list[int]:
        """The shelf levels present, bottom to top."""
        return sorted({book.level for book in self.books})

    def spine_positions(self) -> dict[str, Point3D]:
        """Tag position (spine centre) of every book, keyed by call number."""
        positions: dict[str, Point3D] = {}
        for level in self.levels:
            x_cursor = 0.0
            for book in self.books_on_level(level):
                positions[book.call_number] = Point3D(
                    x_cursor + book.thickness_m / 2.0,
                    level * self.level_height_m,
                    0.0,
                )
                x_cursor += book.thickness_m
        return positions

    def catalogue_order(self, level: int | None = None) -> list[str]:
        """Call numbers in catalogue order (optionally restricted to a level)."""
        books = self.books if level is None else self.books_on_level(level)
        return sorted(book.call_number for book in books)

    def physical_order(self, level: int) -> list[str]:
        """Call numbers in physical left-to-right order on ``level``."""
        return [book.call_number for book in self.books_on_level(level)]

    def to_tags(self, seed: int | None = None) -> TagCollection:
        """Tag collection with one tag per book spine."""
        positions = self.spine_positions()
        call_numbers = list(positions)
        return make_tags(
            [positions[cn] for cn in call_numbers],
            labels=call_numbers,
            seed=seed,
        )


def generate_bookshelf(
    levels: int = 3,
    books_per_level: int = 30,
    thickness_range_m: tuple[float, float] = DEFAULT_BOOK_THICKNESS_RANGE_M,
    seed: int | None = None,
) -> Bookshelf:
    """Generate a fully ordered bookshelf (no misplaced books yet)."""
    if levels < 1 or books_per_level < 1:
        raise ValueError("levels and books_per_level must be >= 1")
    low, high = thickness_range_m
    if not 0 < low <= high:
        raise ValueError("thickness range must satisfy 0 < low <= high")
    rng = np.random.default_rng(seed)
    books: list[Book] = []
    for level in range(levels):
        for slot in range(books_per_level):
            index = level * books_per_level + slot
            books.append(
                Book(
                    call_number=f"QA{index:04d}",
                    thickness_m=float(rng.uniform(low, high)),
                    level=level,
                    slot=slot,
                )
            )
    return Bookshelf(books=books)


def misplace_books(
    shelf: Bookshelf,
    count: int,
    min_offset: int = 2,
    max_offset: int = 10,
    rng: np.random.Generator | None = None,
) -> tuple[Bookshelf, list[str]]:
    """Move ``count`` randomly chosen books to a wrong slot on their level.

    Each chosen book is re-inserted between ``min_offset`` and ``max_offset``
    slots away from its correct place (the paper's §5.1 protocol).  Returns
    the modified shelf and the call numbers of the misplaced books.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    rng = rng if rng is not None else np.random.default_rng()
    per_level: dict[int, list[Book]] = {
        level: shelf.books_on_level(level) for level in shelf.levels
    }
    movable = [book for books in per_level.values() for book in books]
    if count > len(movable):
        raise ValueError("cannot misplace more books than the shelf holds")
    chosen = rng.choice(len(movable), size=count, replace=False)
    misplaced_calls = [movable[int(i)].call_number for i in chosen]

    for call_number in misplaced_calls:
        book = next(b for books in per_level.values() for b in books if b.call_number == call_number)
        level_books = per_level[book.level]
        index = next(i for i, b in enumerate(level_books) if b.call_number == call_number)
        offset = int(rng.integers(min_offset, max_offset + 1))
        direction = 1 if rng.random() < 0.5 else -1
        new_index = int(np.clip(index + direction * offset, 0, len(level_books) - 1))
        level_books.pop(index)
        level_books.insert(new_index, book)

    rebuilt: list[Book] = []
    for level, level_books in per_level.items():
        for slot, book in enumerate(level_books):
            rebuilt.append(
                Book(
                    call_number=book.call_number,
                    thickness_m=book.thickness_m,
                    level=level,
                    slot=slot,
                )
            )
    return Bookshelf(books=rebuilt, level_height_m=shelf.level_height_m), misplaced_calls


def audit_shelf(
    shelf: Bookshelf,
    seed: int | None = None,
    localizer=None,
) -> list[str]:
    """Sweep ``shelf`` once and flag misplaced books (paper §5.1, end to end).

    Simulates the librarian's cart sweep over the whole shelf, localizes every
    book's tag through the batched STPP engine (one DTW accumulation for all
    books), and returns the call numbers whose detected physical order
    contradicts the catalogue order.

    ``localizer`` accepts a pre-built
    :class:`~repro.core.localizer.BatchLocalizer` so repeated audits (e.g. a
    nightly inventory pass over many shelves) share one cached reference
    profile; a default engine is created otherwise.
    """
    from ..core.localizer import BatchLocalizer
    from ..simulation.collector import collect_sweep
    from ..simulation.presets import standard_antenna_moving_scene

    tags = shelf.to_tags(seed=seed)
    scene = standard_antenna_moving_scene(tags, seed=seed)
    sweep = collect_sweep(scene)
    engine = localizer if localizer is not None else BatchLocalizer()
    result = engine.localize(sweep.profiles, expected_tag_ids=tags.ids())
    label_by_id = {tag.tag_id: tag.label for tag in tags}
    detected_physical = [label_by_id[tid] for tid in result.x_ordering.ordered_ids]
    return detect_misplaced_books(shelf.catalogue_order(), detected_physical)


def detect_misplaced_books(
    catalogue_order: list[str], detected_physical_order: list[str]
) -> list[str]:
    """Flag books whose detected physical order contradicts the catalogue.

    The books *not* in the longest common subsequence of the detected order
    and the catalogue order are flagged as misplaced — the minimal set of
    moves that would reconcile the two orders.
    """
    keep = set(_longest_common_subsequence(detected_physical_order, catalogue_order))
    return [book for book in detected_physical_order if book not in keep]


def _longest_common_subsequence(left: list[str], right: list[str]) -> list[str]:
    """Classic O(len(left)*len(right)) LCS, returning one optimal subsequence."""
    rows, cols = len(left), len(right)
    lengths = np.zeros((rows + 1, cols + 1), dtype=int)
    for i in range(rows - 1, -1, -1):
        for j in range(cols - 1, -1, -1):
            if left[i] == right[j]:
                lengths[i, j] = lengths[i + 1, j + 1] + 1
            else:
                lengths[i, j] = max(lengths[i + 1, j], lengths[i, j + 1])
    result: list[str] = []
    i = j = 0
    while i < rows and j < cols:
        if left[i] == right[j]:
            result.append(left[i])
            i += 1
            j += 1
        elif lengths[i + 1, j] >= lengths[i, j + 1]:
            i += 1
        else:
            j += 1
    return result
