"""Accuracy-per-scheme-per-scenario leaderboard for the benchmark warehouse.

Speed is measured by ``perfbench/``; nothing there pins *ordering
accuracy* — a refactor could quietly degrade STPP toward BackPos-level and
every timing would still look fine.  This module is the accuracy half of the
warehouse: it runs the paper's five schemes (STPP, BackPos, OTrack, Landmarc,
G-RSSI) over **every scenario registered in the declarative scenario matrix**
(:mod:`repro.scenarios` — the legacy library/airport/warehouse trio plus the
data-only scenarios committed under ``repro/scenarios/specs/``) at a fixed
seed and scale, and reduces the outcome to one leaderboard payload that
``benchmarks/bench_accuracy.py`` snapshots (``BENCH_accuracy.json``) and
``benchmarks/check_accuracy.py`` gates in CI.

Scenarios come from the registry as validated :class:`ScenarioSpec` data; the
expansion into picklable sweep plans (the sweep-engine contract) happens in
:meth:`repro.scenarios.registry.ScenarioRegistry.sweep_plans`, so adding a
deployment to this leaderboard is a JSON file, not code.  All seeds derive
from the per-plan seed lists (``seed + 31 * scenario_index + rep``) — the
leaderboard is a deterministic function of the code and the committed specs,
which is exactly what makes it gateable.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..evaluation.sweep import SweepService, run_plans
from ..scenarios import default_registry
from ..scenarios.registry import DEFAULT_SEED

DEFAULT_REPETITIONS = 2
"""Sweeps per scenario in the recorded leaderboard (CI smoke uses 1)."""

SCHEMES: tuple[str, ...] = ("STPP", "BackPos", "OTrack", "Landmarc", "G-RSSI")
"""The five compared schemes, paper-Figure-17 order (best first)."""

AXES: tuple[str, ...] = ("x", "y", "combined")


def scenario_names() -> tuple[str, ...]:
    """Every registered scenario, in seed-index order (legacy trio first)."""
    return default_registry().names()


def scenario_plans(repetitions: int = DEFAULT_REPETITIONS, seed: int = DEFAULT_SEED):
    """One five-scheme sweep plan per registered scenario, explicit seed lists."""
    return default_registry().sweep_plans(repetitions=repetitions, seed=seed)


def compute_leaderboard(
    repetitions: int = DEFAULT_REPETITIONS,
    seed: int = DEFAULT_SEED,
    fig17_repetitions: int = 1,
    service: SweepService | None = None,
) -> dict[str, Any]:
    """Run the scenario matrix and reduce it to the leaderboard payload.

    Returns the snapshot body (sans generated-at/platform stamps, which the
    bench writer adds):

    * ``scenarios`` — ``{scenario: {scheme: {x, y, combined}}}`` mean
      accuracies per registered scenario;
    * ``mean_combined`` — ``{scheme: value}``, each scheme's combined
      accuracy averaged over every scenario (the leaderboard column the
      "STPP on top" gate reads);
    * ``fig17`` — ``{scheme: combined}`` on the paper's Figure-17 deployment
      (five dense layouts), where the full paper ordering
      ``G-RSSI ~ Landmarc < OTrack < BackPos < STPP`` is gated — the belt
      workloads space tags widely, so RSSI-peak baselines legitimately do
      well there and only STPP's lead is enforced on the scenario means;
    * ``schemes`` / ``scale`` — bookkeeping for the schema and comparability
      (``scale`` records each scenario's tag count straight from its spec).
    """
    from ..evaluation.experiments import fig17_scheme_comparison

    registry = default_registry()
    names = registry.names()
    plans = scenario_plans(repetitions=repetitions, seed=seed)
    scenarios: dict[str, dict[str, dict[str, float]]] = {}
    for scenario, outcome in zip(names, run_plans(plans, service)):
        per_scheme: dict[str, dict[str, float]] = {}
        for scheme in outcome.schemes():
            mean = outcome.mean_accuracy(scheme)
            per_scheme[scheme] = {axis: float(mean[axis]) for axis in AXES}
        scenarios[scenario] = per_scheme
    mean_combined = {
        scheme: float(
            np.mean([scenarios[scenario][scheme]["combined"] for scenario in names])
        )
        for scheme in SCHEMES
    }
    fig17 = fig17_scheme_comparison(repetitions=fig17_repetitions, service=service)
    return {
        "seed": seed,
        "schemes": list(SCHEMES),
        "scenarios": scenarios,
        "mean_combined": mean_combined,
        "fig17": {scheme: float(axes["combined"]) for scheme, axes in fig17.items()},
        "scale": {
            "repetitions": repetitions,
            "fig17_repetitions": fig17_repetitions,
            "scenario_tags": {
                name: registry.get(name).tag_count for name in names
            },
        },
    }

