"""The declarative scenario schema: one evaluation deployment as plain data.

STPP's evaluation spans layouts x motion x tag populations x channel
conditions (the paper's Figures 12-21 and Tables 1-3).  Before this module,
every end-to-end scenario was a bespoke Python module; a
:class:`ScenarioSpec` instead captures a deployment as five orthogonal,
JSON-serializable sections:

* :class:`Layout` — the tag arrangement (shelf, belt lanes, grid, ...);
* :class:`TagPopulation` — how many tags (counts, groups such as shelf
  levels or conveyor lanes);
* :class:`Motion` — who moves and how (handheld/robot antenna sweep,
  constant or surging belt);
* :class:`Channel` — measurement noise, dropouts, and multipath richness;
* :class:`Placement` — reader geometry and the Landmarc reference grid.

A sixth, optional section — ``faults`` — attaches a
:class:`~repro.faults.spec.FaultSpec` degradation profile (read loss,
duplication, clock skew, corruption, stall/disconnect windows) to the
deployment.  It is omitted from the canonical JSON when absent, so every
pre-existing spec document round-trips byte-identically.

Parsing is **strict**: unknown keys and out-of-range values raise
:class:`SpecError` with the dotted path of the offending field, and — when
the spec came from a file or text — the line it sits on, so a typo in a
committed JSON spec fails CI with a message that points at the line to fix.

Specs are frozen, hashable, and picklable (the sweep engine ships them to
worker processes inside plan tasks).  ``spec == from_json(to_json(spec))``
round-trips exactly; equality is field-by-field value equality.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from ..motion.speed_profiles import DEFAULT_BELT_SPEED_MPS

if TYPE_CHECKING:  # runtime import is lazy: faults.spec imports this module
    from ..faults.spec import FaultSpec


class SpecError(ValueError):
    """A scenario spec violates the schema.

    ``path`` is the dotted location of the offending field (e.g.
    ``"motion.speed_mps"``); ``line`` is its 1-based line in the source text
    when the spec was parsed from a file, else ``None``.
    """

    def __init__(self, path: str, message: str, line: int | None = None) -> None:
        self.path = path
        self.message = message
        self.line = line
        location = f" (line {line})" if line is not None else ""
        super().__init__(f"{path}: {message}{location}")

    def with_line(self, line: int | None) -> "SpecError":
        """The same error annotated with a source line."""
        if line is None or self.line is not None:
            return self
        return SpecError(self.path, self.message, line=line)


# --------------------------------------------------------------------------
# Field schemas
# --------------------------------------------------------------------------

_MISSING = object()


@dataclass(frozen=True)
class _Field:
    """Schema of one scalar field: type, bounds, default."""

    type: type
    default: Any = _MISSING
    min: float | None = None
    max: float | None = None
    min_exclusive: bool = False
    max_exclusive: bool = True

    @property
    def required(self) -> bool:
        return self.default is _MISSING


def _num(default: Any = _MISSING, min: float | None = None, max: float | None = None,
         min_exclusive: bool = False, max_exclusive: bool = False) -> _Field:
    return _Field(float, default, min, max, min_exclusive, max_exclusive)


def _int(default: Any = _MISSING, min: float | None = None, max: float | None = None) -> _Field:
    return _Field(int, default, min, max)


def _check_range(path: str, value: float, spec: _Field) -> None:
    if spec.min is not None:
        ok = value > spec.min if spec.min_exclusive else value >= spec.min
        if not ok:
            op = ">" if spec.min_exclusive else ">="
            raise SpecError(path, f"must be {op} {spec.min}, got {value!r}")
    if spec.max is not None:
        ok = value < spec.max if spec.max_exclusive else value <= spec.max
        if not ok:
            op = "<" if spec.max_exclusive else "<="
            raise SpecError(path, f"must be {op} {spec.max}, got {value!r}")


def _parse_fields(
    section: str, data: Mapping[str, Any], fields: Mapping[str, _Field]
) -> dict[str, Any]:
    """Parse one section's fields strictly; returns the resolved values."""
    if not isinstance(data, Mapping):
        raise SpecError(section, f"must be an object, got {type(data).__name__}")
    for key in data:
        if key not in fields:
            raise SpecError(
                f"{section}.{key}",
                f"unknown key (allowed: {', '.join(sorted(fields))})",
            )
    resolved: dict[str, Any] = {}
    for name, spec in fields.items():
        path = f"{section}.{name}"
        if name not in data:
            if spec.required:
                raise SpecError(path, "required key is missing")
            resolved[name] = spec.default
            continue
        value = data[name]
        if spec.type is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SpecError(path, f"must be a number, got {value!r}")
            value = float(value)
        elif spec.type is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise SpecError(path, f"must be an integer, got {value!r}")
        elif not isinstance(value, spec.type):
            raise SpecError(
                path, f"must be a {spec.type.__name__}, got {value!r}"
            )
        if spec.type in (float, int):
            _check_range(path, value, spec)
        resolved[name] = value
    return resolved


# --------------------------------------------------------------------------
# Layout
# --------------------------------------------------------------------------

LAYOUT_KINDS: dict[str, dict[str, _Field]] = {
    # A single row of evenly spaced tags along X (micro-benchmark shape).
    "row": {
        "spacing_m": _num(min=0.005, max=10.0),
        "y_m": _num(default=0.0, min=-10.0, max=10.0),
    },
    # A row whose adjacent spacings are drawn uniformly from a range
    # (the Table 1 arrangement).
    "random_row": {
        "min_spacing_m": _num(min=0.005, max=10.0),
        "max_spacing_m": _num(min=0.005, max=10.0),
        "y_jitter_m": _num(default=0.0, min=0.0, max=1.0),
    },
    # A columns x rows grid; population.groups = rows, per_group = columns.
    "grid": {
        "x_spacing_m": _num(min=0.005, max=10.0),
        "y_spacing_m": _num(min=0.005, max=10.0),
    },
    # Strictly increasing X, cyclically increasing Y over population.groups
    # levels.
    "staircase": {
        "x_spacing_m": _num(min=0.005, max=10.0),
        "y_spacing_m": _num(min=0.005, max=10.0),
    },
    # The library shelf: population.groups levels of population.per_group
    # books with random thicknesses (paper section 5.1).
    "bookshelf": {
        "thickness_min_m": _num(default=0.03, min=0.005, max=1.0),
        "thickness_max_m": _num(default=0.08, min=0.005, max=1.0),
        "level_height_m": _num(default=0.35, min=0.05, max=5.0),
    },
    # The airport belt: population.count bags with adjacent gaps drawn from
    # gap_ranges_m (one [min, max] pair per repetition, cycled — the Table 3
    # traffic periods).
    "baggage_belt": {
        "lateral_jitter_m": _num(default=0.10, min=0.0, max=2.0),
    },
    # The warehouse sortation belt: population.groups parallel lanes of
    # population.per_group cartons each.
    "conveyor_lanes": {
        "lane_pitch_m": _num(default=0.15, min=0.01, max=10.0),
        "min_gap_m": _num(default=0.06, min=0.005, max=20.0),
        "max_gap_m": _num(default=0.25, min=0.005, max=20.0),
        "lateral_jitter_m": _num(default=0.03, min=0.0, max=5.0),
    },
}
"""Layout kind -> its scalar parameter schema."""

_GAP_RANGE_KINDS = ("baggage_belt",)
"""Kinds whose layouts additionally carry a ``gap_ranges_m`` list."""


@dataclass(frozen=True)
class Layout:
    """The tag arrangement: one of :data:`LAYOUT_KINDS` plus its parameters.

    ``params`` holds the kind's scalar parameters as a sorted item tuple
    (hashable/picklable); ``gap_ranges_m`` is the per-repetition gap-range
    list of the ``baggage_belt`` kind, empty elsewhere.
    """

    kind: str
    params: tuple[tuple[str, float], ...] = ()
    gap_ranges_m: tuple[tuple[float, float], ...] = ()

    def param(self, name: str) -> float:
        """One resolved scalar parameter by name."""
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    @classmethod
    def from_json(cls, data: Mapping[str, Any], section: str = "layout") -> "Layout":
        if not isinstance(data, Mapping):
            raise SpecError(section, f"must be an object, got {type(data).__name__}")
        kind = data.get("kind")
        if not isinstance(kind, str) or kind not in LAYOUT_KINDS:
            raise SpecError(
                f"{section}.kind",
                f"must be one of {', '.join(sorted(LAYOUT_KINDS))}, got {kind!r}",
            )
        body = {key: value for key, value in data.items() if key != "kind"}
        gap_ranges: tuple[tuple[float, float], ...] = ()
        if kind in _GAP_RANGE_KINDS:
            raw_ranges = body.pop("gap_ranges_m", None)
            if raw_ranges is None:
                raise SpecError(f"{section}.gap_ranges_m", "required key is missing")
            gap_ranges = _parse_gap_ranges(f"{section}.gap_ranges_m", raw_ranges)
        resolved = _parse_fields(section, body, LAYOUT_KINDS[kind])
        if kind == "random_row" and resolved["min_spacing_m"] > resolved["max_spacing_m"]:
            raise SpecError(
                f"{section}.max_spacing_m",
                f"must be >= min_spacing_m ({resolved['min_spacing_m']}), "
                f"got {resolved['max_spacing_m']}",
            )
        if kind == "bookshelf" and resolved["thickness_min_m"] > resolved["thickness_max_m"]:
            raise SpecError(
                f"{section}.thickness_max_m",
                f"must be >= thickness_min_m ({resolved['thickness_min_m']}), "
                f"got {resolved['thickness_max_m']}",
            )
        if kind == "conveyor_lanes":
            if resolved["min_gap_m"] > resolved["max_gap_m"]:
                raise SpecError(
                    f"{section}.max_gap_m",
                    f"must be >= min_gap_m ({resolved['min_gap_m']}), "
                    f"got {resolved['max_gap_m']}",
                )
            if resolved["lateral_jitter_m"] >= resolved["lane_pitch_m"] / 2.0:
                raise SpecError(
                    f"{section}.lateral_jitter_m",
                    f"must be below half the lane pitch "
                    f"({resolved['lane_pitch_m'] / 2.0}), got {resolved['lateral_jitter_m']}",
                )
        return cls(
            kind=kind,
            params=tuple(sorted(resolved.items())),
            gap_ranges_m=gap_ranges,
        )

    def to_json(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"kind": self.kind, **dict(self.params)}
        if self.kind in _GAP_RANGE_KINDS:
            payload["gap_ranges_m"] = [list(pair) for pair in self.gap_ranges_m]
        return payload


def _parse_gap_ranges(path: str, raw: Any) -> tuple[tuple[float, float], ...]:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise SpecError(path, f"must be a non-empty list of [min, max] pairs, got {raw!r}")
    ranges = []
    for index, pair in enumerate(raw):
        pair_path = f"{path}[{index}]"
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in pair)
        ):
            raise SpecError(pair_path, f"must be a [min, max] number pair, got {pair!r}")
        low, high = float(pair[0]), float(pair[1])
        if not 0 < low <= high:
            raise SpecError(pair_path, f"needs 0 < min <= max, got [{low}, {high}]")
        ranges.append((low, high))
    return tuple(ranges)


# --------------------------------------------------------------------------
# Population
# --------------------------------------------------------------------------

_POPULATION_FIELDS: dict[str, _Field] = {
    "count": _int(default=0, min=0, max=100_000),
    "groups": _int(default=1, min=1, max=1_000),
    "per_group": _int(default=0, min=0, max=100_000),
}

_COUNT_LAYOUTS = ("row", "random_row", "baggage_belt")
_GROUPED_LAYOUTS = ("grid", "bookshelf", "conveyor_lanes")
_STAIRCASE_LAYOUTS = ("staircase",)


@dataclass(frozen=True)
class TagPopulation:
    """How many tags the scenario deploys.

    Row-like layouts use ``count``; grouped layouts (grid rows, shelf levels,
    conveyor lanes) use ``groups`` x ``per_group``; the staircase uses
    ``count`` tags cycling over ``groups`` Y levels.
    """

    count: int = 0
    groups: int = 1
    per_group: int = 0

    @classmethod
    def from_json(cls, data: Mapping[str, Any], section: str = "population") -> "TagPopulation":
        return cls(**_parse_fields(section, data, _POPULATION_FIELDS))

    def to_json(self) -> dict[str, Any]:
        return {"count": self.count, "groups": self.groups, "per_group": self.per_group}

    def total(self, layout_kind: str) -> int:
        """Total target-tag count under ``layout_kind``'s interpretation."""
        if layout_kind in _GROUPED_LAYOUTS:
            return self.groups * self.per_group
        return self.count


def _validate_population(layout: Layout, population: TagPopulation) -> None:
    kind = layout.kind
    if kind in _COUNT_LAYOUTS or kind in _STAIRCASE_LAYOUTS:
        if population.count < 1:
            raise SpecError(
                "population.count", f"layout kind {kind!r} needs count >= 1"
            )
    if kind in _GROUPED_LAYOUTS:
        if population.per_group < 1:
            raise SpecError(
                "population.per_group", f"layout kind {kind!r} needs per_group >= 1"
            )


# --------------------------------------------------------------------------
# Motion
# --------------------------------------------------------------------------

MOTION_KINDS: dict[str, dict[str, _Field]] = {
    # A hand-pushed antenna sweep over static tags (the librarian case);
    # jitter models the human push.
    "handheld": {
        "speed_mps": _num(default=DEFAULT_BELT_SPEED_MPS, min=0.0, max=5.0, min_exclusive=True),
        "jitter_fraction": _num(default=0.12, min=0.0, max=1.0, max_exclusive=True),
    },
    # A robot-mounted antenna: same geometry, much steadier speed.
    "robot": {
        "speed_mps": _num(default=DEFAULT_BELT_SPEED_MPS, min=0.0, max=5.0, min_exclusive=True),
        "jitter_fraction": _num(default=0.02, min=0.0, max=1.0, max_exclusive=True),
    },
    # Tags ride a constant-speed belt past a fixed antenna (the airport case).
    "belt": {
        "speed_mps": _num(default=DEFAULT_BELT_SPEED_MPS, min=0.0, max=10.0, min_exclusive=True),
    },
    # Tags ride a surging/crawling belt (the warehouse sortation case).
    "belt_jittered": {
        "speed_mps": _num(default=DEFAULT_BELT_SPEED_MPS, min=0.0, max=10.0, min_exclusive=True),
        "jitter_fraction": _num(default=0.15, min=0.0, max=1.0, max_exclusive=True),
    },
}
"""Motion kind -> its parameter schema.

This table is the home of the repository's conveyor speed defaults: every
motion kind above uses
:data:`repro.motion.speed_profiles.DEFAULT_BELT_SPEED_MPS` as its default
speed.
"""

ANTENNA_MOTIONS = ("handheld", "robot")
BELT_MOTIONS = ("belt", "belt_jittered")


@dataclass(frozen=True)
class Motion:
    """Who moves and how fast."""

    kind: str
    speed_mps: float = DEFAULT_BELT_SPEED_MPS
    jitter_fraction: float = 0.0

    @classmethod
    def from_json(cls, data: Mapping[str, Any], section: str = "motion") -> "Motion":
        if not isinstance(data, Mapping):
            raise SpecError(section, f"must be an object, got {type(data).__name__}")
        kind = data.get("kind")
        if not isinstance(kind, str) or kind not in MOTION_KINDS:
            raise SpecError(
                f"{section}.kind",
                f"must be one of {', '.join(sorted(MOTION_KINDS))}, got {kind!r}",
            )
        body = {key: value for key, value in data.items() if key != "kind"}
        resolved = _parse_fields(section, body, MOTION_KINDS[kind])
        return cls(
            kind=kind,
            speed_mps=resolved["speed_mps"],
            jitter_fraction=resolved.get("jitter_fraction", 0.0),
        )

    def to_json(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"kind": self.kind, "speed_mps": self.speed_mps}
        if "jitter_fraction" in MOTION_KINDS[self.kind]:
            payload["jitter_fraction"] = self.jitter_fraction
        return payload

    @property
    def is_belt(self) -> bool:
        return self.kind in BELT_MOTIONS


def _validate_motion(layout: Layout, motion: Motion) -> None:
    if layout.kind in ("baggage_belt", "conveyor_lanes") and not motion.is_belt:
        raise SpecError(
            "motion.kind",
            f"layout kind {layout.kind!r} rides a belt; use one of "
            f"{', '.join(BELT_MOTIONS)}, got {motion.kind!r}",
        )
    if layout.kind == "bookshelf" and motion.is_belt:
        raise SpecError(
            "motion.kind",
            f"layout kind 'bookshelf' is static; use one of "
            f"{', '.join(ANTENNA_MOTIONS)}, got {motion.kind!r}",
        )


# --------------------------------------------------------------------------
# Channel
# --------------------------------------------------------------------------

_CHANNEL_FIELDS: dict[str, _Field] = {
    "phase_noise_std_rad": _num(default=0.25, min=0.0, max=2.0),
    "rssi_noise_std_db": _num(default=2.0, min=0.0, max=12.0),
    "random_dropout_probability": _num(default=0.10, min=0.0, max=0.95),
    "fade_dropout_threshold_db": _num(default=-10.0, min=-60.0, max=20.0),
    "reflector_count": _int(default=6, min=0, max=48),
}


@dataclass(frozen=True)
class Channel:
    """Measurement noise, dropouts, and multipath richness.

    Defaults reproduce the calibrated preset of
    :data:`repro.simulation.presets.DEFAULT_NOISE` and its six-reflector
    indoor multipath environment.
    """

    phase_noise_std_rad: float = 0.25
    rssi_noise_std_db: float = 2.0
    random_dropout_probability: float = 0.10
    fade_dropout_threshold_db: float = -10.0
    reflector_count: int = 6

    @classmethod
    def from_json(cls, data: Mapping[str, Any], section: str = "channel") -> "Channel":
        return cls(**_parse_fields(section, data, _CHANNEL_FIELDS))

    def to_json(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in _CHANNEL_FIELDS}


# --------------------------------------------------------------------------
# Placement
# --------------------------------------------------------------------------

_PLACEMENT_FIELDS: dict[str, _Field] = {
    "standoff_m": _num(default=0.30, min=0.0, max=10.0, min_exclusive=True),
    "antenna_clearance_m": _num(default=0.15, min=0.0, max=10.0),
    "sweep_margin_m": _num(default=0.30, min=0.0, max=10.0),
    "reference_spacing_m": _Field(float, default=None, min=0.01, max=20.0),
}


@dataclass(frozen=True)
class Placement:
    """Reader geometry and the Landmarc reference-tag deployment.

    ``reference_spacing_m = None`` requests the automatic sparse grid (a
    handful of anchors around the target footprint, cf. the Figure 18
    deployment note in :mod:`repro.bench.leaderboard`); a number pins the
    grid spacing explicitly.
    """

    standoff_m: float = 0.30
    antenna_clearance_m: float = 0.15
    sweep_margin_m: float = 0.30
    reference_spacing_m: float | None = None

    @classmethod
    def from_json(cls, data: Mapping[str, Any], section: str = "placement") -> "Placement":
        if not isinstance(data, Mapping):
            raise SpecError(section, f"must be an object, got {type(data).__name__}")
        body = dict(data)
        spacing = body.pop("reference_spacing_m", None)
        if spacing is not None:
            if isinstance(spacing, bool) or not isinstance(spacing, (int, float)):
                raise SpecError(
                    f"{section}.reference_spacing_m",
                    f"must be a number or null, got {spacing!r}",
                )
            spacing = float(spacing)
            _check_range(
                f"{section}.reference_spacing_m", spacing, _PLACEMENT_FIELDS["reference_spacing_m"]
            )
        fields = {k: v for k, v in _PLACEMENT_FIELDS.items() if k != "reference_spacing_m"}
        resolved = _parse_fields(section, body, fields)
        return cls(reference_spacing_m=spacing, **resolved)

    def to_json(self) -> dict[str, Any]:
        return {
            "standoff_m": self.standoff_m,
            "antenna_clearance_m": self.antenna_clearance_m,
            "sweep_margin_m": self.sweep_margin_m,
            "reference_spacing_m": self.reference_spacing_m,
        }


# --------------------------------------------------------------------------
# The spec
# --------------------------------------------------------------------------

_TOP_LEVEL_KEYS = (
    "name", "description", "layout", "population", "motion", "channel",
    "placement", "faults",
)


@dataclass(frozen=True)
class ScenarioSpec:
    """One evaluation deployment, fully described as data.

    Construct via :meth:`from_json` / :meth:`from_file` (which validate) or
    directly from section objects (builders validate again at expansion).
    """

    name: str
    description: str
    layout: Layout
    population: TagPopulation
    motion: Motion
    channel: Channel = field(default_factory=Channel)
    placement: Placement = field(default_factory=Placement)
    faults: "FaultSpec | None" = None

    def __post_init__(self) -> None:
        if not self.name or not all(c.isalnum() or c in "_-[]=.," for c in self.name):
            raise SpecError(
                "name",
                f"must be non-empty and use only [a-zA-Z0-9_.,=\\[\\]-], got {self.name!r}",
            )
        _validate_population(self.layout, self.population)
        _validate_motion(self.layout, self.motion)
        if self.faults is not None:
            from ..faults.spec import FaultSpec

            if not isinstance(self.faults, FaultSpec):
                raise SpecError(
                    "faults", f"must be a FaultSpec or null, got {self.faults!r}"
                )

    @property
    def tag_count(self) -> int:
        """Total target tags this scenario deploys per repetition."""
        return self.population.total(self.layout.kind)

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Parse and validate one spec payload (strict)."""
        if not isinstance(data, Mapping):
            raise SpecError("spec", f"must be a JSON object, got {type(data).__name__}")
        for key in data:
            if key not in _TOP_LEVEL_KEYS:
                raise SpecError(
                    key, f"unknown top-level key (allowed: {', '.join(_TOP_LEVEL_KEYS)})"
                )
        for key in ("name", "layout", "population", "motion"):
            if key not in data:
                raise SpecError(key, "required key is missing")
        name = data["name"]
        if not isinstance(name, str):
            raise SpecError("name", f"must be a string, got {name!r}")
        description = data.get("description", "")
        if not isinstance(description, str):
            raise SpecError("description", f"must be a string, got {description!r}")
        faults = None
        if data.get("faults") is not None:
            from ..faults.spec import FaultSpec

            faults = FaultSpec.from_json(data["faults"], section="faults")
        return cls(
            name=name,
            description=description,
            layout=Layout.from_json(data["layout"]),
            population=TagPopulation.from_json(data["population"]),
            motion=Motion.from_json(data["motion"]),
            channel=Channel.from_json(data.get("channel", {})),
            placement=Placement.from_json(data.get("placement", {})),
            faults=faults,
        )

    @classmethod
    def from_text(cls, text: str, source: str | None = None) -> "ScenarioSpec":
        """Parse a JSON document, annotating errors with their source line."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            where = f"{source or '<text>'}:{exc.lineno}"
            raise SpecError("spec", f"invalid JSON at {where}: {exc.msg}", line=exc.lineno)
        try:
            return cls.from_json(payload)
        except SpecError as exc:
            raise exc.with_line(_locate_key(text, exc.path)) from None

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioSpec":
        """Parse one committed ``.json`` spec file with line-pointing errors."""
        path = Path(path)
        return cls.from_text(path.read_text(), source=str(path))

    def to_json(self) -> dict[str, Any]:
        """The canonical JSON payload (all fields explicit; round-trips).

        The optional ``faults`` section is emitted only when present, so spec
        documents written before the fault layer existed stay byte-identical
        through a load/save cycle.
        """
        payload: dict[str, Any] = {
            "name": self.name,
            "description": self.description,
            "layout": self.layout.to_json(),
            "population": self.population.to_json(),
            "motion": self.motion.to_json(),
            "channel": self.channel.to_json(),
            "placement": self.placement.to_json(),
        }
        if self.faults is not None:
            payload["faults"] = self.faults.to_json()
        return payload

    def degraded(self, faults: "FaultSpec", name: str | None = None) -> "ScenarioSpec":
        """This deployment with a fault profile attached.

        The derived spec is identical except for ``faults`` and its name,
        which defaults to ``"<name>[faults=<label>]"`` — the label a
        name-charset-safe rendering of the injector chain (e.g.
        ``"read_loss.rate=0.2,duplicate.rate=0.1"``) — so degraded variants
        sort next to their clean parent in the registry and on the
        leaderboard.
        """
        if name is None:
            label = ",".join(
                injector.kind + "".join(f".{k}={v:g}" for k, v in injector.params)
                for injector in faults.injectors
            ) or "clean"
            name = f"{self.name}[faults={label}]"
        return replace(self, name=name, faults=faults)

    def to_text(self) -> str:
        """The canonical JSON document."""
        return json.dumps(self.to_json(), indent=2) + "\n"


def _locate_key(text: str, dotted_path: str) -> int | None:
    """Best-effort 1-based line of ``dotted_path``'s deepest key in ``text``.

    Scans for the quoted deepest path component (``"speed_mps"`` for
    ``motion.speed_mps``); falls back to the parent component for paths whose
    leaf is missing from the document (e.g. a required-key error).
    """
    parts = dotted_path.replace("[", ".").rstrip("]").split(".")
    lines = text.splitlines()
    for component in reversed(parts):
        needle = f'"{component}"'
        for number, line in enumerate(lines, start=1):
            if needle in line:
                return number
    return None
