"""The declarative fault schema: one degraded-feed scenario as plain data.

A production read stream misbehaves in a handful of recurring ways — reads
vanish (RF nulls, reader CPU stalls), arrive twice (LLRP report retries),
arrive late (NTP steps, buffered reports), or arrive wrong (corrupted phase
or RSSI fields).  :class:`FaultSpec` captures one such degradation profile
as data: a seed plus an ordered list of injector descriptions, each a
``kind`` from :data:`INJECTOR_KINDS` with validated scalar parameters.

Being data, fault profiles compose with the rest of the repository's
declarative machinery:

* any scenario spec has **degraded variants** (its optional ``faults``
  section, :attr:`repro.scenarios.spec.ScenarioSpec.faults`),
* the fleet service can arm a portal with a per-portal injector pipeline
  (``FleetService.open_portal(..., fault_spec=...)``),
* and the robustness benchmark sweeps a fault-rate ladder by constructing
  specs programmatically.

Parsing is **strict** in the :class:`~repro.scenarios.spec.SpecError` style:
unknown keys and out-of-range values raise with the dotted path of the
offending field (``"faults.injectors[1].rate"``).  Specs are frozen,
hashable, and picklable; ``spec == from_json(to_json(spec))`` round-trips
exactly.  A spec is inert until :meth:`FaultSpec.build` instantiates the
seeded injector pipeline — building twice yields two pipelines with
identical random streams, which is what makes every degraded run
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

# The strict-parsing machinery is shared with the scenario schema so both
# spec families fail with the same dotted-path errors.  scenarios.spec does
# not import this module at top level (only lazily inside ScenarioSpec
# parsing), so the dependency is acyclic.
from ..scenarios.spec import SpecError, _Field, _int, _num, _parse_fields

INJECTOR_KINDS: dict[str, dict[str, _Field]] = {
    # Independent per-read loss: each read vanishes with probability `rate`.
    "read_loss": {
        "rate": _num(min=0.0, max=1.0),
    },
    # Bursty loss: with probability `rate` a read starts a loss burst that
    # swallows it and the next `min_reads-1 .. max_reads-1` consecutive reads
    # (a reader CPU stall or a deep RF null, not independent noise).
    "burst_loss": {
        "rate": _num(min=0.0, max=1.0),
        "min_reads": _int(default=2, min=1, max=10_000),
        "max_reads": _int(default=8, min=1, max=10_000),
    },
    # Exact duplication: with probability `rate` a read is emitted twice,
    # back to back (an LLRP report retry — same tag, timestamp, channel,
    # phase), which is what the collector's "dedupe" policy exists to drop.
    "duplicate": {
        "rate": _num(min=0.0, max=1.0),
    },
    # Bounded clock skew: with probability `rate` a read's timestamp is
    # shifted by uniform(-max_skew_s, +max_skew_s), producing bounded
    # reordering that exercises the collector's out-of-order handling.
    "clock_skew": {
        "rate": _num(min=0.0, max=1.0),
        "max_skew_s": _num(default=0.05, min=0.0, max=60.0),
    },
    # Phase corruption: with probability `rate` a read's phase is replaced
    # by a uniform draw from [0, 2π) — a decoder glitch, not extra noise.
    "phase_corruption": {
        "rate": _num(min=0.0, max=1.0),
    },
    # RSSI corruption: with probability `rate` a read's RSSI is offset by a
    # normal draw with std `sigma_db`.
    "rssi_corruption": {
        "rate": _num(min=0.0, max=1.0),
        "sigma_db": _num(default=6.0, min=0.0, max=60.0),
    },
    # Reader stall: every read timestamped inside [start_s, start_s +
    # duration_s) is lost (the reader stopped inventorying for a window).
    "stall": {
        "start_s": _num(min=0.0, max=3_600.0),
        "duration_s": _num(min=0.0, max=3_600.0),
    },
    # Reader disconnect: `batch_count` whole batches are lost starting at
    # stream batch index `start_batch` (the LLRP connection dropped).
    "disconnect": {
        "start_batch": _int(min=0, max=1_000_000),
        "batch_count": _int(default=1, min=1, max=1_000_000),
    },
    # Stream truncation: everything after the first `after_batches` batches
    # is lost (the sweep was cut short).
    "truncate": {
        "after_batches": _int(min=0, max=1_000_000),
    },
}
"""Injector kind -> its scalar parameter schema."""


@dataclass(frozen=True)
class InjectorSpec:
    """One injector description: a kind plus its resolved parameters.

    ``params`` is a sorted item tuple (hashable/picklable), every value a
    number already validated against :data:`INJECTOR_KINDS`.
    """

    kind: str
    params: tuple[tuple[str, float], ...] = ()

    def param(self, name: str) -> float:
        """One resolved parameter by name."""
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    @classmethod
    def from_json(
        cls, data: Mapping[str, Any], section: str = "injector"
    ) -> "InjectorSpec":
        if not isinstance(data, Mapping):
            raise SpecError(section, f"must be an object, got {type(data).__name__}")
        kind = data.get("kind")
        if not isinstance(kind, str) or kind not in INJECTOR_KINDS:
            raise SpecError(
                f"{section}.kind",
                f"must be one of {', '.join(sorted(INJECTOR_KINDS))}, got {kind!r}",
            )
        body = {key: value for key, value in data.items() if key != "kind"}
        resolved = _parse_fields(section, body, INJECTOR_KINDS[kind])
        if kind == "burst_loss" and resolved["min_reads"] > resolved["max_reads"]:
            raise SpecError(
                f"{section}.max_reads",
                f"must be >= min_reads ({resolved['min_reads']}), "
                f"got {resolved['max_reads']}",
            )
        return cls(kind=kind, params=tuple(sorted(resolved.items())))

    def to_json(self) -> dict[str, Any]:
        return {"kind": self.kind, **dict(self.params)}


_FAULT_KEYS = ("seed", "injectors")


@dataclass(frozen=True)
class FaultSpec:
    """One degradation profile: a seed plus an ordered injector chain.

    Injectors apply in list order — ``duplicate`` before ``read_loss`` can
    lose a duplicate; the reverse cannot — so order is part of the spec's
    identity.  The seed pins every random draw: building the same spec twice
    produces identical degraded streams.
    """

    seed: int = 0
    injectors: tuple[InjectorSpec, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise SpecError("faults.seed", f"must be an integer, got {self.seed!r}")
        if not (0 <= self.seed < 2**63):
            raise SpecError(
                "faults.seed", f"must be in [0, 2**63), got {self.seed!r}"
            )
        object.__setattr__(self, "injectors", tuple(self.injectors))
        for injector in self.injectors:
            if not isinstance(injector, InjectorSpec):
                raise SpecError(
                    "faults.injectors",
                    f"must hold InjectorSpec entries, got {injector!r}",
                )

    @classmethod
    def from_json(
        cls, data: Mapping[str, Any], section: str = "faults"
    ) -> "FaultSpec":
        """Parse and validate one fault payload (strict)."""
        if not isinstance(data, Mapping):
            raise SpecError(section, f"must be an object, got {type(data).__name__}")
        for key in data:
            if key not in _FAULT_KEYS:
                raise SpecError(
                    f"{section}.{key}",
                    f"unknown key (allowed: {', '.join(_FAULT_KEYS)})",
                )
        seed = data.get("seed", 0)
        raw_injectors = data.get("injectors", [])
        if not isinstance(raw_injectors, (list, tuple)):
            raise SpecError(
                f"{section}.injectors",
                f"must be a list of injector objects, got {raw_injectors!r}",
            )
        injectors = tuple(
            InjectorSpec.from_json(entry, section=f"{section}.injectors[{index}]")
            for index, entry in enumerate(raw_injectors)
        )
        return cls(seed=seed, injectors=injectors)

    def to_json(self) -> dict[str, Any]:
        """The canonical JSON payload (round-trips through :meth:`from_json`)."""
        return {
            "seed": self.seed,
            "injectors": [injector.to_json() for injector in self.injectors],
        }

    def describe(self) -> str:
        """A compact human label, e.g. ``"read_loss(rate=0.2)+duplicate(rate=0.1)"``."""
        if not self.injectors:
            return "clean"
        return "+".join(
            injector.kind
            + "("
            + ",".join(f"{k}={v:g}" for k, v in injector.params)
            + ")"
            for injector in self.injectors
        )

    def build(self, seed_offset: int = 0):
        """Instantiate the seeded injector pipeline described by this spec.

        ``seed_offset`` lets one spec drive many independent streams (one per
        portal, one per repetition) with decorrelated but reproducible random
        draws.  Returns a :class:`~repro.faults.injectors.FaultPipeline`.
        """
        from .injectors import build_pipeline

        return build_pipeline(self, seed_offset=seed_offset)
