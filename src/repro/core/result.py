"""Result types returned by the STPP pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

from .vzone import VZone


@dataclass(frozen=True)
class AxisOrdering:
    """The relative order of tags along one axis."""

    axis: str
    """'x' or 'y'."""

    ordered_ids: tuple[str, ...]
    """Tag ids from smallest to largest coordinate along the axis."""

    scores: dict[str, float] = field(default_factory=dict)
    """Per-tag score that produced the order (bottom time for X, depth gap for Y)."""

    unordered_ids: tuple[str, ...] = ()
    """Tags that could not be ordered (no usable profile / V-zone)."""

    def __len__(self) -> int:
        return len(self.ordered_ids)


@dataclass(frozen=True)
class LocalizationResult:
    """Full output of one STPP localization run."""

    x_ordering: AxisOrdering
    y_ordering: AxisOrdering
    vzones: dict[str, VZone] = field(default_factory=dict)
    """Detected V-zone per tag (only tags with a successful detection)."""

    metadata: dict = field(default_factory=dict)
