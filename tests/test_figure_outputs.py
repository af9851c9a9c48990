"""Pin the output of every figure/table generator, bit for bit.

Each ``figure``/``table``/``case`` row of :mod:`repro.bench.registry` names
the :mod:`repro.evaluation.experiments` functions its benchmark calls.  Every
one of them runs here at its default arguments, and a digest of its output
must match the recorded one.  A refactor of how the figures build their
sweeps (plans, seeds, scorers) must leave these digests unchanged; a change
that redraws a figure on purpose re-records its digest here.

The canonical form keeps every field, key, type and float bit, and leaves
out only the wall-clock measurements, each named in ``WALL_CLOCK_KEYS`` /
``WALL_CLOCK_FIELDS``.  Localization and simulation are deterministic, and
the sweep engine's results do not depend on its worker count.

The digests hold under numpy's AVX-512 dispatch.  Under the AVX2 or baseline
kernels Figure 2's RSSI arrays take other bits (float64 ``log10`` and
``arctan2``), so CI's other-kernels step deselects that one case.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
from collections import Counter

import numpy as np
import pytest

from repro.bench.registry import ARTIFACTS
from repro.evaluation import experiments

WALL_CLOCK_KEYS = frozenset({
    "runtime_s",  # ablation_segmented_vs_full_dtw: best-of-five localization time
    "full_dtw_s",  # dtw_speedup_measurement
    "segmented_dtw_s",  # dtw_speedup_measurement
    "speedup",  # dtw_speedup_measurement: full_dtw_s / segmented_dtw_s
})
"""Dict keys whose values are wall-clock timings."""

WALL_CLOCK_FIELDS = frozenset({("LatencySample", "latency_s")})
"""(dataclass, field) pairs whose values are wall-clock timings."""

HELPERS = frozenset({"summarise_boxplot"})
"""Public functions of ``experiments`` that reduce a generator's output."""

DIGESTS = {
    "ablation_pivot_vs_all_pairs": "b8b566c68023e1a0",
    "ablation_quadratic_fitting": "d31d2202405f48e7",
    "ablation_segmented_vs_full_dtw": "6a5bf516d92a2b1b",
    "ablation_y_value_mode": "f287cce6603ec163",
    "case_library_headline": "a7532c93ae7df454",
    "dtw_speedup_measurement": "0196bdad600c474e",
    "fig02_rssi_limitation": "eaf6e19bf833c7c5",
    "fig03_reference_profiles_x": "43314b001f4ce048",
    "fig04_reference_profiles_y": "e004556f780521b9",
    "fig05_measured_profiles_x": "51144ed1f99e55a3",
    "fig06_measured_profiles_y": "7f96fac7b0770587",
    "fig07_dtw_alignment": "1da16ab3b84a4689",
    "fig08_segmentation": "fb192ecae748aaa3",
    "fig09_quadratic_fitting": "7eac228d8af4b338",
    "fig12_window_size": "b1fb8c9388f41b7d",
    "fig13_spacing_tag_moving": "e414e0419751952f",
    "fig14_spacing_antenna_moving": "05ca7af52436e444",
    "fig17_scheme_comparison": "91cace9c8434ff88",
    "fig18_spacing_boxplot": "d9918eb31454e27f",
    "fig19_population_boxplot": "7efc80f54b2364c6",
    "fig21_library_layout": "c5a67886c231ee4c",
    "fig23_latency_cdf": "aaf939777954a23d",
    "table1_population": "d1caf1d39374c364",
    "table2_misplaced_books": "1e98477bc8b417d0",
    "table3_baggage": "8623f184688134cd",
}


def canonical(value) -> object:
    """A nested tuple of strings that identifies ``value`` bit for bit."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        kind = type(value).__name__
        return (kind,) + tuple(
            (field.name, canonical(getattr(value, field.name)))
            for field in dataclasses.fields(value)
            if (kind, field.name) not in WALL_CLOCK_FIELDS
        )
    if isinstance(value, dict):
        return ("dict",) + tuple(
            (canonical(key), canonical(item))
            for key, item in value.items()
            if key not in WALL_CLOCK_KEYS
        )
    if isinstance(value, (list, tuple)):
        return (type(value).__name__,) + tuple(canonical(item) for item in value)
    if isinstance(value, np.ndarray):
        return ("ndarray", str(value.dtype), str(value.shape), value.tobytes().hex())
    if isinstance(value, (float, np.floating)):
        return (type(value).__name__, float(value).hex())
    if value is None or isinstance(value, (bool, int, str, np.integer, np.bool_)):
        return (type(value).__name__, repr(value))
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(value) -> str:
    """The first 16 hex digits of the SHA-256 of ``canonical(value)``."""
    return hashlib.sha256(repr(canonical(value)).encode()).hexdigest()[:16]


def _named_generators() -> list[str]:
    return [g.__name__ for row in ARTIFACTS for g in row.generators]


GENERATORS = {g.__name__: g for row in ARTIFACTS for g in row.generators}


def _public_generators() -> set[str]:
    return {
        name
        for name, member in vars(experiments).items()
        if inspect.isfunction(member)
        and member.__module__ == experiments.__name__
        and not name.startswith("_")
        and name not in HELPERS
    }


class TestRegistryNamesEveryGenerator:
    def test_every_figure_table_and_case_row_names_a_generator(self):
        for row in ARTIFACTS:
            if row.section in ("figure", "table", "case"):
                assert row.generators, f"{row.artifact} ({row.benchmark}) names no generator"

    def test_every_public_generator_is_named_by_exactly_one_row(self):
        counts = Counter(_named_generators())
        assert set(counts) == _public_generators()
        assert [name for name, count in counts.items() if count != 1] == []

    def test_every_named_generator_has_a_digest(self):
        assert set(_named_generators()) == set(DIGESTS)


class TestCanonicalForm:
    def test_wall_clock_values_are_left_out(self):
        from repro.evaluation.latency import LatencySample

        fast = {"accuracy": 0.5, "runtime_s": 1.0}
        slow = {"accuracy": 0.5, "runtime_s": 2.0}
        assert digest(fast) == digest(slow)
        assert digest(LatencySample("a", 0.1, "STPP")) == digest(
            LatencySample("a", 0.2, "STPP")
        )

    def test_float_bits_and_types_count(self):
        assert digest({"x": 0.1}) != digest({"x": np.nextafter(0.1, 1.0)})
        assert digest({"x": 1.0}) != digest({"x": np.float64(1.0)})
        assert digest([1]) != digest((1,))
        assert digest(np.zeros(2)) != digest(np.zeros(2, dtype=np.float32))


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_output_is_pinned(name):
    assert digest(GENERATORS[name]()) == DIGESTS.get(name)
