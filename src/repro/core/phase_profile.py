"""Phase profiles: the central data structure of STPP.

A *phase profile* is the time-ordered sequence of RF phase values a reader
obtains from one tag's replies while the antenna sweeps past it (Section 2.2
of the paper).  It is the only input STPP needs: both the X-axis ordering
(V-zone bottom times) and the Y-axis ordering (phase changing rates) are
computed from phase profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..rf.constants import TWO_PI


@dataclass(frozen=True)
class PhaseProfile:
    """The phase measurements of one tag over one sweep.

    Attributes
    ----------
    tag_id:
        Identifier of the tag the profile belongs to.
    timestamps_s:
        Read times in seconds, strictly increasing.
    phases_rad:
        Reported phases in radians, each in [0, 2*pi), one per timestamp.
    rssi_dbm:
        Optional RSSI per read (used by the RSSI-based baselines, not by STPP).
    channel_index:
        Reader channel the profile was collected on.
    """

    tag_id: str
    timestamps_s: np.ndarray
    phases_rad: np.ndarray
    rssi_dbm: np.ndarray | None = None
    channel_index: int = 6
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        timestamps = np.asarray(self.timestamps_s, dtype=float)
        phases = np.asarray(self.phases_rad, dtype=float)
        object.__setattr__(self, "timestamps_s", timestamps)
        object.__setattr__(self, "phases_rad", phases)
        rssi = None
        if self.rssi_dbm is not None:
            rssi = np.asarray(self.rssi_dbm, dtype=float)
            object.__setattr__(self, "rssi_dbm", rssi)
        _validate_columns(timestamps, phases, rssi)

    def __len__(self) -> int:
        return int(self.timestamps_s.size)

    @property
    def is_empty(self) -> bool:
        """True when the profile contains no samples."""
        return len(self) == 0

    @property
    def duration_s(self) -> float:
        """Span between first and last sample, seconds (0 for <2 samples)."""
        if len(self) < 2:
            return 0.0
        return float(self.timestamps_s[-1] - self.timestamps_s[0])

    @property
    def start_time_s(self) -> float:
        """Timestamp of the first sample (raises on empty profiles)."""
        if self.is_empty:
            raise ValueError("empty profile has no start time")
        return float(self.timestamps_s[0])

    @property
    def end_time_s(self) -> float:
        """Timestamp of the last sample (raises on empty profiles)."""
        if self.is_empty:
            raise ValueError("empty profile has no end time")
        return float(self.timestamps_s[-1])

    def mean_sample_rate_hz(self) -> float:
        """Average number of samples per second over the profile's duration."""
        if len(self) < 2 or self.duration_s == 0.0:
            return 0.0
        return (len(self) - 1) / self.duration_s

    def slice_time(self, start_s: float, end_s: float) -> "PhaseProfile":
        """Samples with timestamps in ``[start_s, end_s]`` as a new profile.

        Timestamps are sorted, so the selection is a contiguous run located
        with two binary searches (identical membership to the boolean-mask
        filter, without scanning or copying the full columns).
        """
        if end_s < start_s:
            raise ValueError("end must not precede start")
        start = int(np.searchsorted(self.timestamps_s, start_s, side="left"))
        end = int(np.searchsorted(self.timestamps_s, end_s, side="right"))
        return self.slice_index(start, end)

    def slice_index(self, start: int, end: int) -> "PhaseProfile":
        """Samples with indices in ``[start, end)`` as a new profile.

        Uses array views and skips re-validation — contiguous windows are the
        V-zone detector's hot path, a mask would copy the whole profile's
        columns per candidate window, and any contiguous slice of an already
        validated profile is valid by construction (sorted timestamps stay
        sorted, wrapped phases stay wrapped).
        """
        return _profile_from_validated(
            tag_id=self.tag_id,
            timestamps_s=self.timestamps_s[start:end],
            phases_rad=self.phases_rad[start:end],
            rssi_dbm=None if self.rssi_dbm is None else self.rssi_dbm[start:end],
            channel_index=self.channel_index,
            metadata=dict(self.metadata),
        )

    def _masked(self, mask: np.ndarray) -> "PhaseProfile":
        return PhaseProfile(
            tag_id=self.tag_id,
            timestamps_s=self.timestamps_s[mask],
            phases_rad=self.phases_rad[mask],
            rssi_dbm=None if self.rssi_dbm is None else self.rssi_dbm[mask],
            channel_index=self.channel_index,
            metadata=dict(self.metadata),
        )

    def unwrapped_phases(self) -> np.ndarray:
        """The phase sequence unwrapped into a continuous curve."""
        return np.unwrap(self.phases_rad)

    def timestamps_ms(self) -> np.ndarray:
        """Timestamps in milliseconds (matching the paper's figures)."""
        return self.timestamps_s * 1000.0

    def with_metadata(self, **entries) -> "PhaseProfile":
        """A copy of the profile with extra metadata entries merged in."""
        merged = dict(self.metadata)
        merged.update(entries)
        return PhaseProfile(
            tag_id=self.tag_id,
            timestamps_s=self.timestamps_s,
            phases_rad=self.phases_rad,
            rssi_dbm=self.rssi_dbm,
            channel_index=self.channel_index,
            metadata=merged,
        )

    @staticmethod
    def from_reads(
        tag_id: str,
        timestamps_s: "np.ndarray | list[float]",
        phases_rad: "np.ndarray | list[float]",
        rssi_dbm: "np.ndarray | list[float] | None" = None,
        channel_index: int = 6,
    ) -> "PhaseProfile":
        """Build a profile from parallel timestamp/phase (and RSSI) sequences."""
        order = np.argsort(np.asarray(timestamps_s, dtype=float), kind="stable")
        timestamps = np.asarray(timestamps_s, dtype=float)[order]
        phases = np.mod(np.asarray(phases_rad, dtype=float), TWO_PI)[order]
        rssi = None
        if rssi_dbm is not None:
            rssi = np.asarray(rssi_dbm, dtype=float)[order]
        return PhaseProfile(
            tag_id=tag_id,
            timestamps_s=timestamps,
            phases_rad=phases,
            rssi_dbm=rssi,
            channel_index=channel_index,
        )


def _validate_columns(
    timestamps: np.ndarray,
    phases: np.ndarray,
    rssi: np.ndarray | None,
    starts: np.ndarray | None = None,
) -> None:
    """Raise ``ValueError`` unless the columns satisfy the profile invariants.

    ``starts`` (increasing indices, the first 0) lets the columns hold several
    profiles back to back; time may then step back only where a profile
    starts.
    """
    if timestamps.ndim != 1 or phases.ndim != 1:
        raise ValueError("timestamps and phases must be one-dimensional")
    if timestamps.shape != phases.shape:
        raise ValueError(
            f"timestamps and phases must have equal length, got "
            f"{timestamps.shape} vs {phases.shape}"
        )
    if timestamps.size > 1:
        backwards = np.diff(timestamps) < 0
        if starts is not None:
            backwards[starts[1:] - 1] = False
        if np.any(backwards):
            raise ValueError("timestamps must be non-decreasing")
    if phases.size and (np.any(phases < 0) or np.any(phases >= TWO_PI + 1e-9)):
        raise ValueError("phases must lie in [0, 2*pi)")
    if rssi is not None and rssi.shape != timestamps.shape:
        raise ValueError("rssi must have the same length as timestamps")


def _profile_from_validated(
    tag_id: str,
    timestamps_s: np.ndarray,
    phases_rad: np.ndarray,
    rssi_dbm: np.ndarray | None,
    channel_index: int,
    metadata: dict,
) -> PhaseProfile:
    """Build a :class:`PhaseProfile` from columns known to satisfy the
    invariants, bypassing ``__post_init__``'s validation scans.

    Only for slices of float columns already passed through
    :func:`_validate_columns`; arbitrary inputs must go through the regular
    constructor.
    """
    profile = object.__new__(PhaseProfile)
    object.__setattr__(profile, "tag_id", tag_id)
    object.__setattr__(profile, "timestamps_s", timestamps_s)
    object.__setattr__(profile, "phases_rad", phases_rad)
    object.__setattr__(profile, "rssi_dbm", rssi_dbm)
    object.__setattr__(profile, "channel_index", channel_index)
    object.__setattr__(profile, "metadata", metadata)
    return profile


def profiles_from_grouped_columns(
    tag_ids: list[str],
    timestamps_s: np.ndarray,
    phases_rad: np.ndarray,
    rssi_dbm: np.ndarray,
    stops: np.ndarray,
    channel_index: int,
) -> list[PhaseProfile]:
    """One profile per tag from float columns holding the tags back to back.

    Tag ``k`` owns rows ``stops[k - 1]:stops[k]`` (from 0 for the first),
    already in time order.  The columns are validated once as a whole, then
    every profile is a slice of them, built without validating it again.
    """
    starts = np.concatenate(([0], stops[:-1]))
    _validate_columns(timestamps_s, phases_rad, rssi_dbm, starts)
    return [
        _profile_from_validated(
            tag_id=tag_id,
            timestamps_s=timestamps_s[start:stop],
            phases_rad=phases_rad[start:stop],
            rssi_dbm=rssi_dbm[start:stop],
            channel_index=channel_index,
            metadata={},
        )
        for tag_id, start, stop in zip(tag_ids, starts.tolist(), stops.tolist())
    ]


def profiles_from_coded_columns(
    tag_ids: list[str],
    codes: np.ndarray,
    timestamps_s: np.ndarray,
    phases_rad: np.ndarray,
    rssi_dbm: np.ndarray,
    channel_index: int,
) -> "ProfileSet":
    """One profile per tag from read columns in arrival order.

    Row ``i`` is a read of ``tag_ids[codes[i]]``; every tag has at least one
    row and its phases are already wrapped into [0, 2π).  One stable sort
    groups the rows by tag (first-seen order) and orders each tag's reads by
    time, ties in arrival order: the order :meth:`PhaseProfile.from_reads`'
    own stable sort gives each tag's reads.  Each profile is then a slice of
    the sorted columns, with no per-read objects.
    """
    order = np.lexsort((timestamps_s, codes))
    profiles = profiles_from_grouped_columns(
        tag_ids,
        timestamps_s[order],
        phases_rad[order],
        rssi_dbm[order],
        np.cumsum(np.bincount(codes, minlength=len(tag_ids))),
        channel_index,
    )
    return ProfileSet({profile.tag_id: profile for profile in profiles})


@dataclass
class ProfileSet:
    """The phase profiles of all tags collected during one sweep."""

    profiles: dict[str, PhaseProfile] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.profiles)

    def __iter__(self):
        return iter(self.profiles.values())

    def __contains__(self, tag_id: str) -> bool:
        return tag_id in self.profiles

    def __getitem__(self, tag_id: str) -> PhaseProfile:
        return self.profiles[tag_id]

    def add(self, profile: PhaseProfile) -> None:
        """Add (or replace) the profile of ``profile.tag_id``."""
        self.profiles[profile.tag_id] = profile

    def tag_ids(self) -> list[str]:
        """All tag ids with a profile, in insertion order."""
        return list(self.profiles)

    def non_empty(self) -> "ProfileSet":
        """A new set containing only profiles with at least one sample."""
        kept = {tid: p for tid, p in self.profiles.items() if not p.is_empty}
        return ProfileSet(kept)

    def min_samples(self) -> int:
        """The smallest sample count across profiles (0 when the set is empty)."""
        if not self.profiles:
            return 0
        return min(len(p) for p in self.profiles.values())
