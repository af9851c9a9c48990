"""Compare STPP against the four baseline schemes on one dense layout.

Reproduces, at a small scale, the comparison of Figure 17.

Run with:  python examples/scheme_comparison.py
"""

from repro.baselines import (
    BackPosScheme,
    GRssiScheme,
    LandmarcScheme,
    OTrackScheme,
    STPPScheme,
)
from repro.evaluation.runner import standard_experiment
from repro.reporting import format_accuracy_map
from repro.rf.geometry import Point3D, position_bounds
from repro.workloads import reference_tag_grid, staircase_layout


def main() -> None:
    positions = staircase_layout(10, 0.08, 0.08, levels=3)
    grid = reference_tag_grid(0.9, 0.4, spacing_m=0.25, origin=Point3D(-0.1, -0.1, 0.0))
    experiment = standard_experiment(positions, seed=17, reference_grid=grid)

    (min_x, min_y, _), (max_x, max_y, _) = position_bounds(positions)
    schemes = [
        GRssiScheme(),
        OTrackScheme(),
        LandmarcScheme(reference_positions=experiment.reference_positions),
        BackPosScheme(
            antenna_position_at=experiment.scene.scenario.antenna_position,
            region_min=Point3D(min_x - 0.3, min_y - 0.3, 0.0),
            region_max=Point3D(max_x + 0.3, max_y + 0.3, 0.0),
        ),
        STPPScheme(),
    ]

    results = {}
    for scheme in schemes:
        run = experiment.run_scheme(scheme)
        results[scheme.name] = {
            "x": run.evaluation.accuracy_x,
            "y": run.evaluation.accuracy_y,
            "combined": run.evaluation.combined,
            "latency_s": run.latency_s,
        }
    print(format_accuracy_map(results, title="10 tags, 8 cm adjacent spacing"))
    print("\n(the paper's Figure 17: STPP wins, BackPos second, the RSSI schemes trail)")


if __name__ == "__main__":
    main()
