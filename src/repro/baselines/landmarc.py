"""Landmarc baseline (Ni et al., Wireless Networks 2004), reimplemented.

Landmarc localises an active tag by comparing its RSSI signature against the
signatures of *reference tags* deployed at known positions: the k reference
tags with the most similar signatures vote, weighted by similarity, for the
target's position.  The original system collects the signature across multiple
fixed readers; with a single moving antenna the natural adaptation (used here)
is to sample the sweep at several antenna positions and treat each position as
one virtual reader, so a signature is the vector of per-position mean RSSI.

The paper's point in including Landmarc is that an absolute-localization
scheme with decimetre-level error cannot order tags placed centimetres apart;
this reimplementation exhibits exactly that failure mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..rf.geometry import Point3D
from ..rfid.reading import ReadLog
from .base import OrderingScheme, SchemeResult

UNHEARD_RSSI_DBM = -90.0
"""Signature value for (virtual reader, tag) pairs with no reads."""


def rssi_signature(
    read_log: ReadLog, tag_id: str, bin_edges: np.ndarray
) -> np.ndarray:
    """Per-time-bin mean RSSI of ``tag_id`` (the virtual-reader signature)."""
    times = read_log.timestamps(tag_id)
    rssi = read_log.rssis(tag_id)
    signature = np.full(len(bin_edges) - 1, UNHEARD_RSSI_DBM, dtype=float)
    if times.size == 0:
        return signature
    bins = np.clip(np.digitize(times, bin_edges) - 1, 0, len(bin_edges) - 2)
    for bin_index in np.unique(bins):
        signature[bin_index] = float(np.mean(rssi[bins == bin_index]))
    return signature


@dataclass
class LandmarcScheme(OrderingScheme):
    """k-nearest-reference-tag localization, then ordering by coordinates."""

    reference_positions: dict[str, Point3D] = field(default_factory=dict)
    """Known positions of the reference tags (they must appear in the read log)."""

    k_neighbours: int = 4
    virtual_reader_count: int = 8
    """How many time bins of the sweep act as virtual readers."""

    name: str = "Landmarc"

    def order(self, read_log: ReadLog, expected_tag_ids: list[str]) -> SchemeResult:
        if len(self.reference_positions) < self.k_neighbours:
            raise ValueError(
                "Landmarc needs at least k reference tags "
                f"({self.k_neighbours}), got {len(self.reference_positions)}"
            )
        duration = read_log.duration_s()
        if duration <= 0:
            empty_x = self._axis("x", [], {}, expected_tag_ids)
            empty_y = self._axis("y", [], {}, expected_tag_ids)
            return SchemeResult(self.name, empty_x, empty_y)

        timestamps = read_log.columns()["timestamp_s"]
        start, end = float(timestamps.min()), float(timestamps.max())
        bin_edges = np.linspace(start, end + 1e-9, self.virtual_reader_count + 1)

        reference_ids = list(self.reference_positions)
        reference_signatures = np.array(
            [rssi_signature(read_log, rid, bin_edges) for rid in reference_ids]
        )

        estimated_x: dict[str, float] = {}
        estimated_y: dict[str, float] = {}
        for tag_id in expected_tag_ids:
            if read_log.timestamps(tag_id).size == 0:
                continue
            signature = rssi_signature(read_log, tag_id, bin_edges)
            distances = np.linalg.norm(reference_signatures - signature[None, :], axis=1)
            order = np.argsort(distances)[: self.k_neighbours]
            weights = 1.0 / np.maximum(distances[order], 1e-6) ** 2
            weights /= weights.sum()
            xs = np.array([self.reference_positions[reference_ids[i]].x for i in order])
            ys = np.array([self.reference_positions[reference_ids[i]].y for i in order])
            estimated_x[tag_id] = float(np.dot(weights, xs))
            estimated_y[tag_id] = float(np.dot(weights, ys))

        ordered_x = sorted(estimated_x, key=lambda tid: estimated_x[tid])
        ordered_y = sorted(estimated_y, key=lambda tid: estimated_y[tid])
        return SchemeResult(
            scheme=self.name,
            x_ordering=self._axis("x", ordered_x, estimated_x, expected_tag_ids),
            y_ordering=self._axis("y", ordered_y, estimated_y, expected_tag_ids),
            metadata={"reference_tag_count": len(reference_ids)},
        )
