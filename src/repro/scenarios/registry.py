"""The scenario registry: named specs resolved into engine sweep plans.

The registry is an **ordered** mapping of scenario name → spec; the order is
load-bearing because the leaderboard's per-repetition seed formula
(``seed + 31 * scenario_index + rep``) keys off a scenario's registration
index.  The three legacy workloads (library, airport, warehouse) are always
registered first so their indices — and therefore their recorded accuracy
numbers — never move; new scenarios append after them.

:func:`expand_grid` turns one spec into a cartesian matrix of variants by
overriding dotted field paths, which is how parameter studies ("the
warehouse, at 3 speeds x 2 multipath richnesses") are expressed as data
instead of nested loops.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Any, Iterator, Mapping, Sequence

from .spec import ScenarioSpec, SpecError

DEFAULT_SEED = 2015
"""Base of every scenario's per-repetition seed list (the paper's year)."""

SEED_STRIDE = 31
"""Per-scenario seed stride: repetition ``rep`` of scenario ``index`` runs
with ``seed + SEED_STRIDE * index + rep``.  Unchanged from the pre-registry
leaderboard so the legacy trio's recorded numbers stay bit-identical."""


class ScenarioRegistry:
    """An ordered collection of named :class:`ScenarioSpec` entries."""

    def __init__(self) -> None:
        self._specs: dict[str, ScenarioSpec] = {}

    def register(self, spec: ScenarioSpec, replace: bool = False) -> ScenarioSpec:
        """Add ``spec``; duplicate names raise unless ``replace`` is set.

        Replacing keeps the original registration index (the seed formula
        depends on it), which is exactly what a parameter-tweaking session
        wants.
        """
        if spec.name in self._specs and not replace:
            raise SpecError(
                "name", f"scenario {spec.name!r} is already registered"
            )
        self._specs[spec.name] = spec
        return spec

    def register_all(
        self, specs: Sequence[ScenarioSpec], replace: bool = False
    ) -> None:
        for spec in specs:
            self.register(spec, replace=replace)

    def get(self, name: str) -> ScenarioSpec:
        try:
            return self._specs[name]
        except KeyError:
            known = ", ".join(self.names()) or "<none>"
            raise KeyError(
                f"unknown scenario {name!r} (registered: {known})"
            ) from None

    def names(self) -> tuple[str, ...]:
        """Registered names, in registration (= seed-index) order."""
        return tuple(self._specs)

    def specs(self) -> tuple[ScenarioSpec, ...]:
        return tuple(self._specs.values())

    def index_of(self, name: str) -> int:
        """The registration index the seed formula uses for ``name``."""
        for index, registered in enumerate(self._specs):
            if registered == name:
                return index
        raise KeyError(name)

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[ScenarioSpec]:
        return iter(self._specs.values())

    # -- plan expansion ----------------------------------------------------

    def sweep_plans(
        self,
        repetitions: int,
        seed: int = DEFAULT_SEED,
        names: Sequence[str] | None = None,
    ):
        """One five-scheme sweep plan per scenario, with explicit seed lists.

        ``names`` restricts (and orders) the plans; seeds still derive from
        each scenario's *registration* index, so running a subset scores the
        exact repetitions the full matrix would.
        """
        from ..evaluation.runner import standard_scheme_suite
        from ..evaluation.sweep import scheme_sweep_plan, score_schemes
        from .builders import scenario_experiment

        selected = self.names() if names is None else tuple(names)
        plans = []
        for name in selected:
            spec = self.get(name)
            index = self.index_of(name)
            plans.append(
                scheme_sweep_plan(
                    name=f"accuracy[{name}]",
                    scene_factory=partial(scenario_experiment, spec=spec),
                    scorer=partial(
                        score_schemes, scheme_factory=standard_scheme_suite
                    ),
                    repetitions=repetitions,
                    seeds=[
                        seed + SEED_STRIDE * index + rep
                        for rep in range(repetitions)
                    ],
                )
            )
        return plans


def expand_grid(
    spec: ScenarioSpec, axes: Mapping[str, Sequence[Any]]
) -> list[ScenarioSpec]:
    """The cartesian variant matrix of ``spec`` over dotted-path ``axes``.

    ``axes`` maps a dotted field path (e.g. ``"motion.speed_mps"`` or
    ``"channel.reflector_count"``) to the values it sweeps over; the result
    is one validated spec per combination, named
    ``base[path=value,path=value]``.  Every variant re-parses through
    :meth:`ScenarioSpec.from_json`, so an override that breaks the schema
    (wrong type, out of range, cross-field violation) fails loudly with the
    offending path.
    """
    if not axes:
        return [spec]
    paths = list(axes)
    for path, values in axes.items():
        if not isinstance(values, Sequence) or isinstance(values, (str, bytes)):
            raise SpecError(path, f"grid axis must be a sequence of values, got {values!r}")
        if len(values) == 0:
            raise SpecError(path, "grid axis must not be empty")
    variants: list[ScenarioSpec] = []
    for combo in itertools.product(*(axes[path] for path in paths)):
        payload = spec.to_json()
        for path, value in zip(paths, combo):
            _set_dotted(payload, path, value)
        suffix = ",".join(f"{path}={value}" for path, value in zip(paths, combo))
        payload["name"] = f"{spec.name}[{suffix}]"
        variants.append(ScenarioSpec.from_json(payload))
    return variants


def _set_dotted(payload: dict[str, Any], dotted_path: str, value: Any) -> None:
    """Set ``payload[a][b] = value`` for path ``"a.b"``; unknown paths raise."""
    parts = dotted_path.split(".")
    cursor: Any = payload
    for part in parts[:-1]:
        if not isinstance(cursor, dict) or part not in cursor:
            raise SpecError(dotted_path, "grid axis path does not exist in the spec")
        cursor = cursor[part]
    if not isinstance(cursor, dict):
        raise SpecError(dotted_path, "grid axis path does not exist in the spec")
    # New leaf keys are allowed (e.g. overriding an omitted default); the
    # re-parse rejects keys the schema does not know.
    cursor[parts[-1]] = value
