"""Airport case study: baggage ordering on a conveyor belt (paper §5.2).

The deployment at Sanya Phoenix airport: tagged baggage items ride a conveyor
belt past fixed reader antennas; the system must recover the order of the
bags.  Traffic differs across the day — during peak hours the gap between
adjacent bags is typically below 20 cm, while off-peak traffic is sparser —
which is what differentiates the three measurement periods of Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rf.geometry import Point3D
from ..rfid.tag import TagCollection, make_tags


@dataclass(frozen=True, slots=True)
class TrafficPeriod:
    """One of the three measurement periods of Table 3."""

    name: str
    start_hour: int
    end_hour: int
    baggage_count: int
    """Bags handled during the period in the paper's measurement."""

    min_gap_m: float
    max_gap_m: float
    """Range of gaps between adjacent bags on the belt."""


MORNING_PEAK = TrafficPeriod(
    name="07:00-09:00", start_hour=7, end_hour=9, baggage_count=400,
    min_gap_m=0.05, max_gap_m=0.20,
)
MIDDAY_OFF_PEAK = TrafficPeriod(
    name="13:00-15:00", start_hour=13, end_hour=15, baggage_count=230,
    min_gap_m=0.20, max_gap_m=0.60,
)
EVENING_PEAK = TrafficPeriod(
    name="19:00-21:00", start_hour=19, end_hour=21, baggage_count=440,
    min_gap_m=0.05, max_gap_m=0.18,
)

PAPER_PERIODS: tuple[TrafficPeriod, ...] = (MORNING_PEAK, MIDDAY_OFF_PEAK, EVENING_PEAK)
"""The three measurement periods of Table 3."""


@dataclass(frozen=True)
class BaggageBatch:
    """A contiguous run of bags that passes the antenna together."""

    tags: TagCollection
    period: TrafficPeriod
    batch_index: int

    def ground_truth_order(self) -> list[str]:
        """Bag order along the belt (increasing X = order of arrival)."""
        return self.tags.order_along("x")


def baggage_batch(
    period: TrafficPeriod,
    bag_count: int,
    batch_index: int = 0,
    lateral_jitter_m: float = 0.10,
    seed: int | None = None,
) -> BaggageBatch:
    """Generate one batch of bags for ``period``.

    Adjacent gaps are drawn from the period's gap range; each bag's tag sits
    at a slightly different lateral position on the belt (bags are dropped on
    the belt in arbitrary orientation), which is the ``lateral_jitter_m``.
    """
    if bag_count < 1:
        raise ValueError("bag_count must be >= 1")
    rng = np.random.default_rng(None if seed is None else seed + batch_index)
    gaps = rng.uniform(period.min_gap_m, period.max_gap_m, size=bag_count - 1)
    xs = np.concatenate([[0.0], np.cumsum(gaps)])
    ys = rng.uniform(0.0, lateral_jitter_m, size=bag_count)
    positions = [Point3D(float(x), float(y), 0.0) for x, y in zip(xs, ys)]
    labels = [f"BAG-{period.start_hour:02d}-{batch_index:03d}-{i:03d}" for i in range(bag_count)]
    tags = make_tags(positions, labels=labels, seed=seed)
    return BaggageBatch(tags=tags, period=period, batch_index=batch_index)
