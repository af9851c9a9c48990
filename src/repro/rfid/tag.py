"""Passive tag models and tag collections.

The paper tests four commercial tag models (Alien ALR-9610, ALN-9662,
ALN-9634, ALN-9720) of different sizes and shapes.  What differs between
models, from the point of view of the phase/RSSI observables, is the tag
antenna gain and the reflection phase offset ``theta_TAG``; both are captured
in :class:`TagModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from ..rf.geometry import Point3D
from .epc import EPC, generate_epcs


@dataclass(frozen=True, slots=True)
class TagModel:
    """A commercial passive tag model."""

    name: str
    gain_dbi: float = 2.0
    """Gain of the tag antenna in dBi."""

    reflection_phase_rad: float = 0.0
    """Constant reflection phase offset ``theta_TAG`` of this model, radians."""

    size_mm: tuple[float, float] = (95.0, 8.0)
    """Approximate inlay dimensions, millimetres (width, height)."""


ALIEN_ALR_9610 = TagModel("Alien ALR-9610", gain_dbi=2.0, reflection_phase_rad=0.35, size_mm=(94.8, 8.1))
ALIEN_ALN_9662 = TagModel("Alien ALN-9662", gain_dbi=1.8, reflection_phase_rad=0.52, size_mm=(70.0, 17.0))
ALIEN_ALN_9634 = TagModel("Alien ALN-9634", gain_dbi=1.5, reflection_phase_rad=0.41, size_mm=(44.5, 10.4))
ALIEN_ALN_9720 = TagModel("Alien ALN-9720", gain_dbi=2.2, reflection_phase_rad=0.28, size_mm=(50.0, 30.0))

PAPER_TAG_MODELS: tuple[TagModel, ...] = (
    ALIEN_ALR_9610,
    ALIEN_ALN_9662,
    ALIEN_ALN_9634,
    ALIEN_ALN_9720,
)
"""The four tag models evaluated in the paper (Section 4.1)."""


@dataclass(frozen=True, slots=True)
class Tag:
    """A passive tag placed somewhere in the world."""

    epc: EPC
    position: Point3D
    model: TagModel = ALIEN_ALN_9662
    label: str = ""
    """Optional human-readable label (e.g. a book call number or bag id)."""

    tag_id: str = field(init=False, compare=False, repr=False)
    """A short unique string identifier derived from the EPC.

    Formatted once here: sweeps, id lookups and uniqueness checks read it
    for every tag of a population, often more than once."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "tag_id", str(self.epc))


@dataclass
class TagCollection:
    """An ordered collection of tags with convenient lookups."""

    tags: list[Tag] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._check_unique()

    def _check_unique(self) -> None:
        seen: set[str] = set()
        for tag in self.tags:
            if tag.tag_id in seen:
                raise ValueError(f"duplicate EPC in collection: {tag.tag_id}")
            seen.add(tag.tag_id)

    def __len__(self) -> int:
        return len(self.tags)

    def __iter__(self) -> Iterator[Tag]:
        return iter(self.tags)

    def __getitem__(self, index: int) -> Tag:
        return self.tags[index]

    def add(self, tag: Tag) -> None:
        """Add a tag, enforcing EPC uniqueness."""
        if any(existing.tag_id == tag.tag_id for existing in self.tags):
            raise ValueError(f"duplicate EPC in collection: {tag.tag_id}")
        self.tags.append(tag)

    def ids(self) -> list[str]:
        """All tag identifiers in insertion order."""
        return [tag.tag_id for tag in self.tags]

    def positions(self) -> dict[str, Point3D]:
        """Mapping of tag id to position."""
        return {tag.tag_id: tag.position for tag in self.tags}

    def by_id(self, tag_id: str) -> Tag:
        """Look up a tag by identifier."""
        for tag in self.tags:
            if tag.tag_id == tag_id:
                return tag
        raise KeyError(f"no tag with id {tag_id}")

    def order_along(self, axis: str) -> list[str]:
        """Ground-truth tag order along ``axis`` ('x', 'y', or 'z').

        Ties are broken by the other coordinates so that the ground truth is
        deterministic; evaluation code treats equal-coordinate tags as an
        unordered group via the metrics module.
        """
        axis = axis.lower()
        if axis not in ("x", "y", "z"):
            raise ValueError(f"axis must be 'x', 'y', or 'z', got {axis!r}")
        key_order = {"x": (0, 1, 2), "y": (1, 0, 2), "z": (2, 0, 1)}[axis]

        def sort_key(tag: Tag) -> tuple[float, float, float]:
            coords = (tag.position.x, tag.position.y, tag.position.z)
            return tuple(coords[i] for i in key_order)

        return [tag.tag_id for tag in sorted(self.tags, key=sort_key)]


def make_tags(
    positions: Iterable[Point3D],
    model: TagModel = ALIEN_ALN_9662,
    labels: Iterable[str] | None = None,
    seed: int | None = None,
) -> TagCollection:
    """Create a :class:`TagCollection` with fresh EPCs at the given positions."""
    position_list = list(positions)
    label_list = list(labels) if labels is not None else [""] * len(position_list)
    if len(label_list) != len(position_list):
        raise ValueError("labels and positions must have the same length")
    rng = np.random.default_rng(seed)
    epcs = generate_epcs(len(position_list), rng=rng)
    tags = [
        Tag(epc=epc, position=pos, model=model, label=label)
        for epc, pos, label in zip(epcs, position_list, label_list)
    ]
    return TagCollection(tags)
