"""The columnar segmentation against the boundary-walk oracle.

Random profiles with forced 0/2π wraps, window sizes 1..12, and random
chunkings of each stream: several streams grow at once, each refresh feeding
a random subset of them to one ``IncrementalSegmenter.extend`` call (the
session's regime).  After every call, each stream's segmentation equals
``segment_profile_arrays`` on its prefix, bit for bit, and both equal the
per-profile boundary walk in ``tests/oracles/segmentation.py``; no stream's
stable prefix ever changes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.segmentation import assert_same_columns, columns_of, segment_walk
from repro.core import PhaseProfile
from repro.core.segmentation import IncrementalSegmenter, segment_profile_arrays
from repro.rf.constants import TWO_PI

_EDGE_PHASES = (0.0, 0.01, 0.05, TWO_PI - 0.05, TWO_PI - 0.01)


@st.composite
def profiles(draw, max_size: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Timestamps (ties allowed) and wrapped phases, a third of them near 0
    or 2π, with forced wraps: pairs of samples pinned to opposite ends of
    the range.  The bulk values come from a drawn seed (drawing each float
    is slow); the size and the wraps are drawn, so they shrink."""
    count = draw(st.integers(0, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phases = np.where(
        rng.random(count) < 1 / 3,
        rng.choice(_EDGE_PHASES, count),
        rng.uniform(0.0, TWO_PI, count),
    )
    if count >= 2:
        for index in draw(st.lists(st.integers(1, count - 1), max_size=4)):
            low_first = draw(st.booleans())
            phases[index - 1] = 0.02 if low_first else TWO_PI - 0.02
            phases[index] = TWO_PI - 0.02 if low_first else 0.02
    steps = rng.choice([0.0, 0.01, 0.037, 0.25], count)
    return np.cumsum(steps), phases


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_streaming_segmentation_matches_batch_and_oracle(data):
    window_size = data.draw(st.integers(1, 12), label="window_size")
    streams = data.draw(st.lists(profiles(), min_size=1, max_size=4), label="streams")
    # Each stream's chunk sizes (a 0 feeds it an empty slice); one more
    # refresh feeds every stream the rest of its samples.
    chunkings = [
        data.draw(st.lists(st.integers(0, 15), max_size=8), label=f"chunks {key}")
        for key in range(len(streams))
    ]
    segmenter = IncrementalSegmenter(window_size)
    fed = [0] * len(streams)
    stable = [segmenter.segments(key) for key in range(len(streams))]
    last_step = max(map(len, chunkings))
    for step in range(last_step + 1):
        keys, time_parts, phase_parts = [], [], []
        for key, (times, phases) in enumerate(streams):
            if step < len(chunkings[key]):
                stop = fed[key] + chunkings[key][step]
            elif step == last_step:
                stop = len(phases)
            else:
                continue
            keys.append(key)
            time_parts.append(times[fed[key] : stop])
            phase_parts.append(phases[fed[key] : stop])
            fed[key] = min(stop, len(phases))
        segmenter.extend(time_parts, phase_parts, keys=keys)
        for key, (times, phases) in enumerate(streams):
            assert segmenter.sample_count(key) == fed[key]
            prefix = PhaseProfile(
                tag_id=str(key),
                timestamps_s=times[: fed[key]],
                phases_rad=phases[: fed[key]],
            )
            columnar = segmenter.segments(key)
            batch = segment_profile_arrays(prefix, window_size)
            assert_same_columns(columnar, batch)
            assert_same_columns(
                batch, columns_of(segment_walk(times[: fed[key]], phases[: fed[key]], window_size))
            )
            # The stable prefix only ever grows; a segment stays open while
            # the next sample could still join it.
            count = segmenter.stable_count(key)
            assert len(stable[key]) <= count <= len(columnar)
            assert_same_columns(columnar[: len(stable[key])], stable[key])
            if count < len(columnar):
                assert count == len(columnar) - 1
                assert columnar.ends[-1] - columnar.starts[-1] < window_size
            stable[key] = columnar[:count]


@settings(max_examples=100, deadline=None)
@given(profile=profiles(max_size=200), window_size=st.integers(1, 12))
def test_whole_profile_segmentation_matches_oracle(profile, window_size):
    times, phases = profile
    arrays = segment_profile_arrays(
        PhaseProfile(tag_id="t", timestamps_s=times, phases_rad=phases), window_size
    )
    assert_same_columns(arrays, columns_of(segment_walk(times, phases, window_size)))
    assert arrays.starts.dtype == arrays.ends.dtype == np.intp
