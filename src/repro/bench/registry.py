"""Registry of the paper artifacts this repository reproduces.

``docs/figures.md``'s status tables are **generated** from this registry (via
``python -m repro.bench.report --write-docs``) instead of hand-edited — the
doc used to be a hand-kept table, which is exactly the kind of evidence that
rots.  A tier-1 test re-renders the block and diffs it against the committed
doc, so adding a benchmark without registering it (or editing the doc by
hand) fails the suite.

Each entry names the benchmark file that regenerates the artifact, what it
reproduces, and — where the artifact is accuracy-bearing — the key into the
recorded ``BENCH_accuracy.json`` leaderboard used to annotate its status
with the measured number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..evaluation import experiments


@dataclass(frozen=True)
class Artifact:
    """One reproduced figure/table/claim and the benchmark that regenerates it."""

    section: str
    """Grouping: ``figure`` | ``table`` | ``case`` | ``extension``."""

    benchmark: str
    """The regenerating file under ``benchmarks/`` (or generator path)."""

    artifact: str
    """The paper artifact name (e.g. ``Figure 17``)."""

    description: str
    """What the benchmark reproduces."""

    accuracy_key: str | None = None
    """Key into ``BENCH_accuracy.json`` (``fig17``/scenario name) when the
    recorded leaderboard carries this artifact's measured accuracy."""

    status: str = "reproduced"

    generators: tuple[Callable, ...] = ()
    """The :mod:`repro.evaluation.experiments` functions the benchmark calls
    (every ``figure``/``table``/``case`` row names at least one;
    ``tests/test_figure_outputs.py`` pins each one's output)."""


ARTIFACTS: tuple[Artifact, ...] = (
    Artifact("figure", "test_fig02_rssi_limitation.py", "Figure 2",
             "RSSI fluctuates under multipath; peak-RSSI ordering misorders adjacent tags (the motivation for using phase)",
             generators=(experiments.fig02_rssi_limitation,)),
    Artifact("figure", "test_fig03_reference_profiles_x.py", "Figure 3",
             "Reference phase profiles of tags at different X: V-zone bottom time tracks tag position along the sweep",
             generators=(experiments.fig03_reference_profiles_x,)),
    Artifact("figure", "test_fig04_reference_profiles_y.py", "Figure 4",
             "Reference profiles of tags at different Y: closer tags have deeper/steeper V-zones",
             generators=(experiments.fig04_reference_profiles_y,)),
    Artifact("figure", "test_fig05_measured_profiles_x.py", "Figure 5",
             "Measured (noisy, fragmented) profiles still expose the X-ordering of bottom times",
             generators=(experiments.fig05_measured_profiles_x,)),
    Artifact("figure", "test_fig06_measured_profiles_y.py", "Figure 6",
             "Measured profiles preserve the Y-ordering signal",
             generators=(experiments.fig06_measured_profiles_y,)),
    Artifact("figure", "test_fig07_dtw_vzone.py", "Figure 7",
             "DTW warps the reference onto a measured profile to locate the V-zone (before/after-warping alignment)",
             generators=(experiments.fig07_dtw_alignment,)),
    Artifact("figure", "test_fig08_segmentation.py", "Figure 8",
             "Coarse w-sample segmentation with splits at 0/2π phase jumps",
             generators=(experiments.fig08_segmentation,)),
    Artifact("figure", "test_fig09_quadratic_fitting.py", "Figure 9",
             "Quadratic fitting separates tags 15 cm and even 2 cm apart by bottom time",
             generators=(experiments.fig09_quadratic_fitting,)),
    Artifact("figure", "test_fig12_window_size.py", "Figure 12",
             "Accuracy/latency trade-off over segment window size `w`; `w = 5` is the sweet spot",
             generators=(experiments.fig12_window_size,)),
    Artifact("figure", "test_fig13_spacing_tag_moving.py", "Figure 13",
             "Ordering accuracy vs tag spacing, tag-moving (conveyor) setup",
             generators=(experiments.fig13_spacing_tag_moving,)),
    Artifact("figure", "test_fig14_spacing_antenna_moving.py", "Figure 14",
             "Ordering accuracy vs tag spacing, antenna-moving (handheld) setup",
             generators=(experiments.fig14_spacing_antenna_moving,)),
    Artifact("figure", "test_fig17_scheme_comparison.py", "Figure 17",
             "STPP vs OTrack / LANDMARC / BackPos / G-RSSI on the same sweeps",
             accuracy_key="fig17",
             generators=(experiments.fig17_scheme_comparison,)),
    Artifact("figure", "test_fig18_spacing_boxplot.py", "Figure 18",
             "Accuracy distribution (box plot) across tag spacings",
             generators=(experiments.fig18_spacing_boxplot,)),
    Artifact("figure", "test_fig19_population_boxplot.py", "Figure 19",
             "Accuracy distribution across tag population sizes",
             generators=(experiments.fig19_population_boxplot,)),
    Artifact("figure", "test_fig21_library_layout.py", "Figure 21",
             "Full shelf sweep; ordering errors concentrate on thin books",
             generators=(experiments.fig21_library_layout,)),
    Artifact("figure", "test_fig23_latency_cdf.py", "Figure 23",
             "Ordering latency CDF of STPP vs OTrack (STPP ~1.47 s mean in the paper)",
             generators=(experiments.fig23_latency_cdf,)),
    Artifact("table", "test_table1_population.py", "Table 1",
             "Ordering accuracy vs tag population",
             generators=(experiments.table1_population,)),
    Artifact("table", "test_table2_misplaced_books.py", "Table 2",
             "Success rate of flagging 1/2/3 misplaced books (§5.1)",
             generators=(experiments.table2_misplaced_books,)),
    Artifact("table", "test_table3_baggage.py", "Table 3",
             "Baggage ordering accuracy per scheme and traffic period (§5.2)",
             generators=(experiments.table3_baggage,)),
    Artifact("case", "test_case_library_headline.py", "§5.1 headline",
             "Mean per-level ordering accuracy over repeated shelf sweeps",
             generators=(experiments.case_library_headline,)),
    Artifact("case", "test_ablation_segmented_dtw.py", "§3.1.2",
             "Segmented DTW vs full-sample DTW vs longest-run heuristic (accuracy + runtime, ~w² speed-up claim)",
             generators=(experiments.ablation_segmented_vs_full_dtw,
                         experiments.dtw_speedup_measurement)),
    Artifact("case", "test_ablation_quadratic_fitting.py", "§3.1.2",
             "Quadratic fitting vs raw-minimum bottom picking under dropouts",
             generators=(experiments.ablation_quadratic_fitting,)),
    Artifact("case", "test_ablation_pivot_ordering.py", "§3.2.2",
             "Pivot-based Y comparison (M−1 comparisons) vs all-pairs",
             generators=(experiments.ablation_pivot_vs_all_pairs,
                         experiments.ablation_y_value_mode)),
    Artifact("extension", "src/repro/scenarios/specs/warehouse.json (tests: tests/test_workload_warehouse.py)",
             "Warehouse sortation conveyor",
             "Multi-lane batches of tagged cartons on a **variable-speed** belt past a fixed antenna, scored by all five schemes through the sharded sweep engine",
             accuracy_key="warehouse", status="new in PR 2"),
    Artifact("extension", "workloads.conveyor_portal (tests: tests/test_streaming.py; example: examples/streaming_portal.py)",
             "Streaming conveyor portal",
             "Reads flow into a `LocalizationSession` round by round; provisional orderings with confidence are emitted while cartons are still in front of the antenna, converging to the exact batch result",
             status="new in PR 4"),
    Artifact("extension", "benchmarks/bench_accuracy.py (gate: benchmarks/check_accuracy.py)",
             "Accuracy leaderboard",
             "Five schemes scored on every registered scenario plus the Figure-17 deployment at a fixed seed; recorded to `BENCH_accuracy.json` and floor-gated in CI",
             status="new in PR 6"),
    Artifact("extension", "src/repro/scenarios (specs/*.json; CLI: python -m repro.scenarios; tests: tests/test_scenario_*.py)",
             "Declarative scenario matrix",
             "Deployments as validated JSON specs (layout x population x motion x channel x placement), expanded through a registry into the sweep plans the leaderboard scores; the legacy trio is spec-built bit-identically and new scenarios are pure data",
             status="new in PR 7"),
    Artifact("extension", "src/repro/scenarios/specs/robot_aisle_scan.json",
             "Robot aisle scan",
             "An inventory robot's steady antenna sweep (low jitter, 0.35 m/s) over an aisle of irregularly spaced rail-height tags",
             accuracy_key="robot_aisle_scan", status="new in PR 7"),
    Artifact("extension", "src/repro/scenarios/specs/smart_shelf_wall.json",
             "Dense smart-shelf wall",
             "Three closely stacked shelf rows of packed tags swept in one pass from a longer standoff; stresses Y discrimination across rows",
             accuracy_key="smart_shelf_wall", status="new in PR 7"),
    Artifact("extension", "src/repro/scenarios/specs/multipath_hall.json",
             "Crowded multipath hall",
             "A staircase of exhibit tags under rich multipath (14 reflectors) with noisier phase/RSSI and heavier dropouts than the calibrated preset",
             accuracy_key="multipath_hall", status="new in PR 7"),
    Artifact("extension", "src/repro/scenarios/specs/tollway_lanes.json",
             "Multi-lane tollway gantry",
             "Three wide lanes of windshield tags passing a higher-mounted reader at 1.2 m/s with vehicle-scale gaps",
             accuracy_key="tollway_lanes", status="new in PR 7"),
    Artifact("extension", "src/repro/scenarios/specs/cold_chain_tunnel.json",
             "Cold-chain pallet tunnel",
             "A pallet grid of crate tags riding a surging chain conveyor through a reader tunnel; exercises the generic jittered-belt builder",
             accuracy_key="cold_chain_tunnel", status="new in PR 7"),
    Artifact("extension", "benchmarks/bench_robustness.py (gate: benchmarks/check_robustness.py; layer: src/repro/faults)",
             "Robustness under degraded streams",
             "Accuracy-vs-fault-rate curves for all five schemes on the legacy trio under seeded loss/corruption/reorder ladders (`BENCH_robustness.json`); the rate-0 rung runs through the full fault pipeline and must stay bit-identical, and STPP must hold within tolerance of every baseline at every rung",
             status="new in PR 10"),
)


def artifacts_in(section: str) -> list[Artifact]:
    """Registry entries of one section, in registration order."""
    return [artifact for artifact in ARTIFACTS if artifact.section == section]
