"""Scenario-matrix CLI: list, validate, and smoke-run the committed catalog.

Usage::

  python -m repro.scenarios                  # list the registered scenarios
  python -m repro.scenarios --validate       # strict-parse every committed spec
  python -m repro.scenarios --smoke          # run the matrix (all schemes), reps=1

``--validate`` is the CI gate over the committed ``specs/*.json`` files: each
must strict-parse, round-trip (``from_json(to_json(spec)) == spec``), match
its filename, and load into the registry.  ``--smoke`` runs every scenario
end-to-end through the sweep engine and prints the per-scheme accuracy
table — the cheap companion of the recorded leaderboard.
"""

from __future__ import annotations

import argparse
import sys

from .catalog import (
    default_registry,
    showcase_registry,
    showcase_spec_files,
    spec_files,
)
from .registry import DEFAULT_SEED
from .spec import ScenarioSpec, SpecError


def _list_scenarios() -> int:
    registry = default_registry()
    rows = [("name", "layout", "tags", "motion", "description")]
    for spec in registry:
        rows.append(
            (
                spec.name,
                spec.layout.kind,
                str(spec.tag_count),
                f"{spec.motion.kind}@{spec.motion.speed_mps:g}m/s",
                spec.description[:60],
            )
        )
    widths = [max(len(row[col]) for row in rows) for col in range(4)]
    for row in rows:
        cells = [row[col].ljust(widths[col]) for col in range(4)]
        print("  ".join(cells + [row[4]]))
    return 0


def _validate() -> int:
    problems: list[str] = []
    for path in spec_files() + showcase_spec_files():
        try:
            spec = ScenarioSpec.from_file(path)
        except SpecError as exc:
            problems.append(f"{path.name}: {exc}")
            continue
        if spec.name != path.stem:
            problems.append(
                f"{path.name}: spec name {spec.name!r} does not match the filename"
            )
        if ScenarioSpec.from_json(spec.to_json()) != spec:
            problems.append(f"{path.name}: spec does not round-trip through JSON")
        print(f"  ok: {path.name} ({spec.tag_count} tags, {spec.layout.kind})")
    if not problems:
        try:
            registry = default_registry()
        except SpecError as exc:
            problems.append(f"registry: {exc}")
        else:
            print(f"  ok: registry loads {len(registry)} scenarios")
        try:
            showcase = showcase_registry()
        except SpecError as exc:
            problems.append(f"showcase registry: {exc}")
        else:
            print(f"  ok: showcase registry loads {len(showcase)} scenarios")
    for problem in problems:
        print(f"  FAIL: {problem}")
    if problems:
        print(f"\n{len(problems)} spec problem(s)")
        return 1
    print("\nall committed scenario specs validate")
    return 0


def _smoke(repetitions: int, seed: int, names: list[str] | None) -> int:
    from ..evaluation.sweep import run_plans

    registry = default_registry()
    selected = tuple(names) if names else registry.names()
    for name in selected:
        registry.get(name)  # raises KeyError with the known names
    plans = registry.sweep_plans(repetitions=repetitions, seed=seed, names=selected)
    failures = 0
    print(f"scenario matrix: {len(selected)} scenarios x 5 schemes, reps={repetitions}")
    for name, outcome in zip(selected, run_plans(plans)):
        schemes = outcome.schemes()
        if not schemes:
            print(f"  FAIL: {name}: produced no scheme scores")
            failures += 1
            continue
        cells = []
        for scheme in schemes:
            mean = outcome.mean_accuracy(scheme)
            cells.append(f"{scheme}={mean['combined']:.3f}")
        print(f"  {name}: " + "  ".join(cells))
    if failures:
        print(f"\n{failures} scenario(s) failed to produce scores")
        return 1
    print("\nevery scenario ran end-to-end under all schemes")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios", description=__doc__
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="strict-parse and round-trip every committed spec file",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the scenario matrix end-to-end and print accuracies",
    )
    parser.add_argument(
        "--repetitions", type=int, default=1,
        help="sweep repetitions per scenario for --smoke (default 1)",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"base seed for --smoke (default {DEFAULT_SEED})",
    )
    parser.add_argument(
        "--only", action="append", default=[], metavar="NAME",
        help="restrict --smoke to one scenario (repeatable)",
    )
    args = parser.parse_args(argv)

    if args.validate and args.smoke:
        parser.error("--validate and --smoke are separate runs")
    if args.validate:
        return _validate()
    if args.smoke:
        return _smoke(args.repetitions, args.seed, args.only or None)
    return _list_scenarios()


if __name__ == "__main__":
    sys.exit(main())
