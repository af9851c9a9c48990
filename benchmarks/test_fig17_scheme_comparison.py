"""Figure 17: ordering accuracy of the five schemes over the five layouts."""

from conftest import emit, run_once

from repro.evaluation.experiments import fig17_scheme_comparison
from repro.reporting.tables import format_accuracy_map


def test_fig17_scheme_comparison(benchmark):
    result = run_once(benchmark, fig17_scheme_comparison, repetitions=1)
    emit(
        "Figure 17 — accuracy per scheme (X / Y / combined)",
        format_accuracy_map(result)
        + "\npaper: G-RSSI ~ Landmarc < 25% < OTrack < 50% < BackPos ~ 80% < STPP >= 88%",
    )
    assert result["STPP"]["combined"] >= result["G-RSSI"]["combined"]
    assert result["STPP"]["combined"] >= result["OTrack"]["combined"]
    assert result["STPP"]["combined"] >= result["Landmarc"]["combined"]
    assert result["STPP"]["combined"] >= result["BackPos"]["combined"]
