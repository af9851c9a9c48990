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

from ..rf.geometry import Point3D, as_position_array
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
    """A short unique string identifier derived from the EPC, formatted once."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "tag_id", str(self.epc))


class TagCollection:
    """An ordered tag population, stored as columns.

    The columns are the tag ids, EPCs and labels, a read-only ``(N, 3)``
    float64 :attr:`position_array`, and per-tag :attr:`model_codes` indexing
    :attr:`models`; an id -> row index keeps the ids unique.  The sweep reads
    the columns directly.  :class:`Tag` objects, and their
    :class:`~repro.rf.geometry.Point3D` positions, are built only when a
    caller iterates or indexes the collection, and are cached.
    """

    __slots__ = (
        "_epcs", "_ids", "_labels", "_positions", "_models", "_model_codes",
        "_row_of", "_tags", "_id_tuple",
    )

    def __init__(self, tags: Iterable[Tag] = ()) -> None:
        tag_list = list(tags)
        models: dict[TagModel, int] = {}
        codes = [models.setdefault(tag.model, len(models)) for tag in tag_list]
        self._set_columns(
            [tag.epc for tag in tag_list],
            [tag.tag_id for tag in tag_list],
            [tag.label for tag in tag_list],
            as_position_array([tag.position for tag in tag_list]),
            list(models),
            np.array(codes, dtype=np.intp),
        )
        self._tags = tag_list

    @classmethod
    def _from_columns(
        cls,
        epcs: list[EPC],
        ids: list[str],
        labels: list[str],
        positions: np.ndarray,
        models: list[TagModel],
        model_codes: np.ndarray,
    ) -> "TagCollection":
        """A collection that takes ownership of the given columns."""
        collection = cls.__new__(cls)
        collection._set_columns(epcs, ids, labels, positions, models, model_codes)
        return collection

    def _set_columns(self, epcs, ids, labels, positions, models, model_codes) -> None:
        row_of = dict(zip(ids, range(len(ids))))
        if len(row_of) != len(ids):
            # The index kept each id's last row: the first id whose row
            # differs occurs twice.
            duplicate = next(i for row, i in enumerate(ids) if row_of[i] != row)
            raise ValueError(f"duplicate EPC in collection: {duplicate}")
        positions.setflags(write=False)
        model_codes.setflags(write=False)
        self._epcs = epcs
        self._ids = ids
        self._labels = labels
        self._positions = positions
        self._models = models
        self._model_codes = model_codes
        self._row_of = row_of
        self._tags: list[Tag] | None = None
        self._id_tuple: tuple[str, ...] | None = None

    def __repr__(self) -> str:
        return f"TagCollection({len(self._ids)} tags)"

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[Tag]:
        return iter(self._tag_list())

    def __getitem__(self, index: int) -> Tag:
        return self._tag_list()[index]

    def _tag_list(self) -> list[Tag]:
        """The tags as :class:`Tag` objects, built on first use and cached."""
        if self._tags is None:
            models = [self._models[code] for code in self._model_codes.tolist()]
            self._tags = [
                Tag(epc=epc, position=Point3D(*xyz), model=model, label=label)
                for epc, xyz, model, label in zip(
                    self._epcs, self._positions.tolist(), models, self._labels
                )
            ]
        return self._tags

    def add(self, tag: Tag) -> None:
        """Add a tag, enforcing EPC uniqueness."""
        if tag.tag_id in self._row_of:
            raise ValueError(f"duplicate EPC in collection: {tag.tag_id}")
        self._row_of[tag.tag_id] = len(self._ids)
        self._ids.append(tag.tag_id)
        self._epcs.append(tag.epc)
        self._labels.append(tag.label)
        if self._tags is not None:
            self._tags.append(tag)
        self._id_tuple = None
        point = tag.position
        self._positions = np.concatenate([self._positions, [[point.x, point.y, point.z]]])
        self._positions.setflags(write=False)
        self._model_codes = np.append(self._model_codes, _model_code(self._models, tag.model))
        self._model_codes.setflags(write=False)

    def concat(self, other: "TagCollection") -> "TagCollection":
        """A new collection: this one's tags, then ``other``'s.

        The columns are concatenated; ids must stay unique across both.
        """
        models = list(self._models)
        remap = np.array([_model_code(models, model) for model in other._models], dtype=np.intp)
        joined = TagCollection._from_columns(
            self._epcs + other._epcs,
            self._ids + other._ids,
            self._labels + other._labels,
            np.concatenate([self._positions, other._positions]),
            models,
            np.concatenate([self._model_codes, remap[other._model_codes]]),
        )
        if self._tags is not None and other._tags is not None:
            joined._tags = self._tags + other._tags
        return joined

    def ids(self) -> list[str]:
        """All tag identifiers in insertion order."""
        return list(self._ids)

    @property
    def tag_ids(self) -> tuple[str, ...]:
        """All tag identifiers in insertion order, as one cached tuple.

        The same object until the collection changes, so a position provider
        built from it can recognise the population by identity.
        """
        if self._id_tuple is None:
            self._id_tuple = tuple(self._ids)
        return self._id_tuple

    @property
    def position_array(self) -> np.ndarray:
        """Tag positions as a read-only ``(N, 3)`` float64 array, in id order."""
        return self._positions

    @property
    def models(self) -> tuple[TagModel, ...]:
        """The distinct tag models of the population."""
        return tuple(self._models)

    @property
    def model_codes(self) -> np.ndarray:
        """Each tag's index into :attr:`models`, as a read-only array."""
        return self._model_codes

    def positions(self) -> dict[str, Point3D]:
        """Mapping of tag id to position."""
        return {tag.tag_id: tag.position for tag in self}

    def order_along(self, axis: str) -> list[str]:
        """Ground-truth tag order along ``axis`` ('x', 'y', or 'z').

        Ties are broken by the other coordinates so that the ground truth is
        deterministic; evaluation code treats equal-coordinate tags as an
        unordered group via the metrics module.  Tags equal in all three
        coordinates keep their insertion order (the sort is stable).
        """
        axis = axis.lower()
        if axis not in ("x", "y", "z"):
            raise ValueError(f"axis must be 'x', 'y', or 'z', got {axis!r}")
        key_order = {"x": (0, 1, 2), "y": (1, 0, 2), "z": (2, 0, 1)}[axis]
        # np.lexsort sorts by its last key first.
        order = np.lexsort(self._positions.T[list(key_order[::-1])])
        ids = self._ids
        return [ids[row] for row in order.tolist()]


def _model_code(models: list[TagModel], model: TagModel) -> int:
    """``model``'s index in ``models``, appending it when new."""
    if model not in models:
        models.append(model)
    return models.index(model)


def make_tags(
    positions,
    model: TagModel = ALIEN_ALN_9662,
    labels: Iterable[str] | None = None,
    seed: int | None = None,
) -> TagCollection:
    """Create a :class:`TagCollection` with fresh EPCs at the given positions.

    ``positions`` is an ``(N, 3)`` array or a sequence of
    :class:`~repro.rf.geometry.Point3D`; it is copied into the collection's
    position column by one array call.
    """
    rows = as_position_array(positions)
    count = len(rows)
    label_list = list(labels) if labels is not None else [""] * count
    if len(label_list) != count:
        raise ValueError("labels and positions must have the same length")
    rng = np.random.default_rng(seed)
    epcs = generate_epcs(count, rng=rng)
    return TagCollection._from_columns(
        epcs,
        [str(epc) for epc in epcs],
        label_list,
        rows,
        [model],
        np.zeros(count, dtype=np.intp),
    )
