"""V-zone detection (paper §3.1).

The V-zone of a phase profile is the wrap-free, self-symmetric region around
the instant the antenna is perpendicular to the tag.  Finding it is the core
of tag ordering along the X axis: the V-zone bottom times order the tags.

Three detection strategies are provided:

* ``"segmented_dtw"`` (default, the paper's method §3.1.2): match a reference
  profile against the coarse segment representation of the measured profile
  with duration-weighted DTW, then read the V-zone location off the warping
  path.
* ``"full_dtw"`` (the paper's unoptimised method §3.1.1): the same idea on raw
  samples; used by the ablation benchmarks to quantify the speed-up of
  segmentation.
* ``"longest_run"``: a simple heuristic that picks the longest wrap-free run
  of the profile (phase changes slowest near the perpendicular point, so the
  wrap-free run containing it lasts longest).  It is used as a fallback when a
  DTW detection yields a degenerate window, and as an ablation point.

Whatever the strategy, the detected window is refined with the quadratic fit
of :mod:`repro.core.fitting`, which supplies the bottom time (X ordering), the
curvature (Y ordering), and a validity flag.  One detection call fits the
windows of all its profiles together, in at most four
:func:`~repro.core.fitting.fit_windows` calls (see
:meth:`VZoneDetector._detect_windows`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..rf.constants import TWO_PI
from .dtw import DTWResult, segmented_dtw_align_batch, subsequence_dtw_batch
# ``fit_vzone`` stays bound here, although detection fits through
# ``fit_windows``: perfbench's traced run looks it up in this module by name.
from .fitting import QuadraticFit, fit_vzone, fit_windows  # noqa: F401
from .phase_profile import PhaseProfile
from .reference import ReferenceProfile, shared_canonical_reference
from .segmentation import JUMP_THRESHOLD_RAD, SegmentArrays, segment_profile_arrays

DETECTION_METHODS = ("segmented_dtw", "full_dtw", "longest_run")
"""The supported V-zone detection strategies."""

EXPAND_FRACTION = 0.15
"""Each detected window is expanded symmetrically by this fraction of its
length before fitting, which recovers samples lost to segmentation
granularity at the window edges."""


@dataclass(frozen=True, slots=True)
class VZone:
    """A detected V-zone within a measured phase profile."""

    tag_id: str
    start_index: int
    end_index: int
    """Sample index range of the V-zone window (end exclusive)."""

    start_time_s: float
    end_time_s: float
    fit: QuadraticFit
    """Quadratic fit over the window; carries bottom time and curvature."""

    method: str
    """Which detection strategy produced the window."""

    dtw_cost: float = float("nan")
    """Warping cost of the DTW match (NaN for non-DTW methods)."""

    @property
    def duration_s(self) -> float:
        """Duration of the detected window, seconds."""
        return self.end_time_s - self.start_time_s

    @property
    def bottom_time_s(self) -> float:
        """Estimated perpendicular-point time (the V-zone bottom)."""
        return self.fit.bottom_time_s

    @property
    def sample_count(self) -> int:
        """Number of samples inside the window."""
        return self.end_index - self.start_index


@dataclass
class VZoneDetector:
    """Detects the V-zone of measured phase profiles.

    Parameters
    ----------
    reference:
        The reference profile used by the DTW strategies.  Defaults to the
        canonical 4-period reference (paper §4.2).
    window_size:
        Samples per coarse segment (``w``); the paper selects 5 (Figure 12).
    method:
        One of :data:`DETECTION_METHODS`.
    min_profile_samples:
        Profiles with fewer samples than this are rejected (detection returns
        ``None``); such tags are reported as unordered by the localizer.
    """

    reference: ReferenceProfile = field(default_factory=shared_canonical_reference)
    window_size: int = 5
    method: str = "segmented_dtw"
    min_profile_samples: int = 12
    fallback_to_longest_run: bool = True

    def __post_init__(self) -> None:
        if self.method not in DETECTION_METHODS:
            raise ValueError(
                f"unknown detection method {self.method!r}; expected one of {DETECTION_METHODS}"
            )
        if self.window_size < 1:
            raise ValueError("window size must be >= 1")
        if self.min_profile_samples < 3:
            raise ValueError("min_profile_samples must be at least 3")
        self._reference_segments: SegmentArrays | None = None
        self._reference_vzone_range: tuple[int, int] | None = None

    # ------------------------------------------------------------------ API

    def detect(self, profile: PhaseProfile) -> VZone | None:
        """Locate the V-zone of ``profile``; returns None for unusable profiles."""
        if len(profile) < self.min_profile_samples:
            return None
        return self._detect_windows([profile], self._primary_windows([profile]))[0]

    @staticmethod
    def _better_of(primary: VZone | None, secondary: VZone | None) -> VZone | None:
        """Prefer the primary detection; fall back when it is missing/invalid.

        A valid fit always beats an invalid one.  When both are valid the
        primary (the configured method) wins — comparing fit residuals across
        windows of different widths is not a reliable tie-breaker because
        narrow windows can overfit noise.
        """
        if primary is None:
            return secondary
        if secondary is None:
            return primary
        if primary.fit.valid or not secondary.fit.valid:
            return primary
        return secondary

    def detect_all(
        self,
        profiles: "dict[str, PhaseProfile] | list[PhaseProfile]",
    ) -> dict[str, VZone]:
        """Detect V-zones for many profiles; tags without a detection are omitted.

        The DTW strategies align every usable profile against the reference
        in one batched alignment (see :meth:`_primary_windows`), and every
        strategy fits all the windows in the staged batch of
        :meth:`_detect_windows`; the detections are bit-identical to calling
        :meth:`detect` per profile.
        """
        items = list(profiles.values()) if isinstance(profiles, dict) else list(profiles)
        usable = [p for p in items if len(p) >= self.min_profile_samples]
        vzones = self._detect_windows(usable, self._primary_windows(usable))
        return {p.tag_id: vz for p, vz in zip(usable, vzones) if vz is not None}

    def detect_from_segmented_alignments(
        self,
        profiles: "list[PhaseProfile]",
        segmentations: "list[SegmentArrays]",
        results: "list[DTWResult]",
    ) -> list[VZone | None]:
        """Build V-zones from externally computed segmented-DTW alignments.

        The streaming session computes alignments with the resumable aligner
        (:class:`~repro.core.dtw.ResumableSegmentAligner`) as profiles grow;
        this method turns them into detections through exactly the same
        window/fit/fallback stages as :meth:`detect_all` — including the
        longest-run fallback — so a streaming detection from the final
        alignment is bit-identical to the batch detection.
        """
        windows = [
            self._segmented_window(segments, result)
            for segments, result in zip(segmentations, results)
        ]
        return self._detect_windows(list(profiles), windows)

    # ------------------------------------------------------- staged fitting

    def _detect_windows(
        self, profiles: "list[PhaseProfile]", windows: "list[_Window | None]"
    ) -> list[VZone | None]:
        """Turn primary windows into detections, every profile at once.

        Four :func:`~repro.core.fitting.fit_windows` calls at most, whatever
        the number of profiles: (1) fit every primary window, (2) refit the
        centred windows of the valid primaries, then, for the profiles still
        without a valid fit, (3) fit their longest-run candidates and (4)
        refit those candidates' centred windows.  The kernel fits each window
        independently of the others in its call, so detecting a profile
        alone or among any others gives the same result.
        """
        if not profiles:
            return []
        columns = _Columns.of(profiles)
        owners = [k for k, window in enumerate(windows) if window is not None]
        primaries = [windows[k] for k in owners]
        vzones: list[VZone | None] = [None] * len(profiles)
        built = self._build_vzones(
            columns,
            np.array(owners, dtype=np.intp),
            np.array([w[0] for w in primaries], dtype=np.intp),
            np.array([w[1] for w in primaries], dtype=np.intp),
            self.method,
            [w[2] for w in primaries],
        )
        for k, vzone in zip(owners, built):
            vzones[k] = vzone
        if self.fallback_to_longest_run or self.method == "longest_run":
            # The fallback can only replace a missing or invalid primary.
            needy = [k for k, vzone in enumerate(vzones) if vzone is None or not vzone.fit.valid]
            if needy:
                fallbacks = self._longest_run_vzones(columns, np.array(needy, dtype=np.intp))
                for k, fallback in zip(needy, fallbacks):
                    vzones[k] = self._better_of(vzones[k], fallback)
        return vzones

    def _build_vzones(
        self,
        columns: "_Columns",
        owners: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        method: str,
        dtw_costs: "list[float]",
    ) -> list[VZone | None]:
        """Expand, fit, recentre and refit windows: two kernel calls.

        Window ``j`` spans samples ``[starts[j], ends[j])`` of profile
        ``owners[j]``; its detection is None when fewer than three of those
        samples exist.
        """
        lengths = columns.lengths[owners]
        starts = np.maximum(starts, 0)
        ends = np.minimum(ends, lengths)
        kept = np.flatnonzero(ends - starts >= 3)
        owners, starts, ends, lengths = owners[kept], starts[kept], ends[kept], lengths[kept]
        expansion = np.rint((ends - starts) * EXPAND_FRACTION).astype(np.intp)
        starts = np.maximum(starts - expansion, 0)
        ends = np.minimum(ends + expansion, lengths)
        base = columns.offsets[owners]
        fits = fit_windows(columns.times, columns.phases, base + starts, base + ends)
        chosen = [fits.fit(j) for j in range(len(fits))]

        # Recentre-and-refit: DTW (or the heuristic) only needs to land a
        # window that overlaps the true V-zone; the quadratic fit then tells
        # us where the bottom really is, and refitting on a window centred
        # there (with the half-width implied by the curvature) symmetrises the
        # window and sharpens both the bottom-time and curvature estimates.
        valid = np.flatnonzero(fits.valid)
        halfwidth = np.sqrt(TWO_PI / fits.curvature[valid])
        finite = np.isfinite(halfwidth)
        valid = valid[finite]
        halfwidth = np.clip(halfwidth[finite], 0.15, 3.0)
        bottom = fits.bottom_time_s[valid]
        owner_list = owners.tolist()
        refit_rows: list[int] = []
        refit_starts: list[int] = []
        refit_ends: list[int] = []
        for row, low, high in zip(
            valid.tolist(), (bottom - halfwidth).tolist(), (bottom + halfwidth).tolist()
        ):
            times = columns.profiles[owner_list[row]].timestamps_s
            start = int(np.searchsorted(times, low, side="left"))
            end = int(np.searchsorted(times, high, side="right"))
            if end - start >= 5:
                refit_rows.append(row)
                refit_starts.append(start)
                refit_ends.append(end)
        if refit_rows:
            rows = np.array(refit_rows, dtype=np.intp)
            refits = fit_windows(
                columns.times,
                columns.phases,
                base[rows] + refit_starts,
                base[rows] + refit_ends,
            )
            for j in np.flatnonzero(refits.valid).tolist():
                row = refit_rows[j]
                starts[row], ends[row] = refit_starts[j], refit_ends[j]
                chosen[row] = refits.fit(j)

        vzones: list[VZone | None] = [None] * len(dtw_costs)
        for j, (k, owner, start, end) in enumerate(
            zip(kept.tolist(), owner_list, starts.tolist(), ends.tolist())
        ):
            profile = columns.profiles[owner]
            vzones[k] = VZone(
                tag_id=profile.tag_id,
                start_index=start,
                end_index=end,
                start_time_s=float(profile.timestamps_s[start]),
                end_time_s=float(profile.timestamps_s[end - 1]),
                fit=chosen[j],
                method=method,
                dtw_cost=dtw_costs[k],
            )
        return vzones

    def _longest_run_vzones(
        self, columns: "_Columns", owners: np.ndarray
    ) -> list[VZone | None]:
        """The longest-run detection of each profile ``owners[i]``.

        Near the perpendicular point the phase changes slowest, so the
        wrap-free run containing it spans the most time.  Among the three
        longest runs of a profile (by duration; equal durations keep run
        order) the one whose quadratic fit is best (valid, lowest residual
        per unit curvature) wins; this guards against long flat runs produced
        by an antenna dwelling at the end of its sweep.
        """
        run_owner, run_start, run_end = longest_run_candidates(
            columns.times, columns.phases, columns.offsets[owners], columns.offsets[owners + 1]
        )
        local = columns.offsets[owners[run_owner]]
        candidates = self._build_vzones(
            columns,
            owners[run_owner],
            run_start - local,
            run_end - local,
            "longest_run",
            [float("nan")] * run_owner.size,
        )
        grouped: list[list[VZone]] = [[] for _ in range(owners.size)]
        for i, vzone in zip(run_owner.tolist(), candidates):
            if vzone is not None:
                grouped[i].append(vzone)
        detections: list[VZone | None] = []
        for group in grouped:
            valid = [vz for vz in group if vz.fit.valid]
            if valid:
                detections.append(
                    min(valid, key=lambda vz: vz.fit.residual_rms_rad / max(vz.fit.curvature, 1e-6))
                )
            else:
                detections.append(group[0] if group else None)
        return detections

    # ------------------------------------------------------- DTW strategies

    def _primary_windows(self, profiles: "list[PhaseProfile]") -> "list[_Window | None]":
        """The configured strategy's window for every profile, aligned in one
        batch (:func:`~repro.core.dtw.segmented_dtw_align_batch` or
        :func:`~repro.core.dtw.subsequence_dtw_batch`); ``longest_run`` has
        no primary window."""
        if self.method == "longest_run":
            return [None] * len(profiles)
        if self.method == "full_dtw":
            results = subsequence_dtw_batch(
                self.reference.profile.phases_rad, [p.phases_rad for p in profiles]
            )
            return [self._full_window(result) for result in results]
        segmentations = [segment_profile_arrays(p, self.window_size) for p in profiles]
        results = segmented_dtw_align_batch(self.reference_segmentation(), segmentations)
        return [
            self._segmented_window(segments, result)
            for segments, result in zip(segmentations, results)
        ]

    def reference_segmentation(self) -> SegmentArrays:
        """The reference profile's segmentation (computed once, cached, its
        columns read-only), shared by the batch alignment and the streaming
        session's per-tag resumable aligners."""
        if self._reference_segments is None:
            segments = segment_profile_arrays(self.reference.profile, self.window_size)
            for name in SegmentArrays.__slots__:
                getattr(segments, name).setflags(write=False)
            self._reference_segments = segments
        return self._reference_segments

    def _reference_vzone_segment_range(self) -> tuple[int, int]:
        """Indices of the reference segments overlapping the reference V-zone.

        Computed once, next to the cached :meth:`reference_segmentation`.
        """
        if self._reference_vzone_range is None:
            start = self.reference.vzone_start_index
            end = self.reference.vzone_end_index
            segments = self.reference_segmentation()
            overlapping = np.flatnonzero((segments.ends > start) & (segments.starts < end))
            if not overlapping.size:
                raise RuntimeError("reference segmentation does not cover its own V-zone")
            self._reference_vzone_range = (int(overlapping[0]), int(overlapping[-1]))
        return self._reference_vzone_range

    def _segmented_window(
        self, measured_segments: SegmentArrays, result: DTWResult
    ) -> "_Window | None":
        """The V-zone window of a segmented-DTW alignment.

        Reads the matched segments' sample ranges straight off the columns.
        """
        ref_vz_start, ref_vz_end = self._reference_vzone_segment_range()
        try:
            q_start_seg, q_end_seg = result.query_indices_for_reference_range(
                ref_vz_start, ref_vz_end
            )
        except ValueError:
            return None
        return (
            int(measured_segments.starts[q_start_seg]),
            int(measured_segments.ends[q_end_seg]),
            result.cost,
        )

    def _full_window(self, result: DTWResult) -> "_Window | None":
        """The V-zone window of a raw-sample alignment."""
        try:
            q_start, q_end = result.query_indices_for_reference_range(
                self.reference.vzone_start_index,
                max(self.reference.vzone_start_index, self.reference.vzone_end_index - 1),
            )
        except ValueError:
            return None
        return (int(q_start), int(q_end) + 1, result.cost)


_Window = tuple[int, int, float]
"""A primary detection window ``(start, end, dtw_cost)`` before fitting."""


@dataclass(frozen=True, slots=True)
class _Columns:
    """The samples of one detection call's profiles, back to back."""

    profiles: "list[PhaseProfile]"
    times: np.ndarray
    phases: np.ndarray
    offsets: np.ndarray
    """Profile ``k`` owns samples ``[offsets[k], offsets[k + 1])``."""

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    @classmethod
    def of(cls, profiles: "list[PhaseProfile]") -> "_Columns":
        offsets = np.zeros(len(profiles) + 1, dtype=np.intp)
        np.cumsum([len(p) for p in profiles], out=offsets[1:])
        return cls(
            profiles=profiles,
            times=np.concatenate([p.timestamps_s for p in profiles]),
            phases=np.concatenate([p.phases_rad for p in profiles]),
            offsets=offsets,
        )


def longest_run_candidates(
    times_s: np.ndarray,
    phases_rad: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three longest wrap-free runs of each profile ``[starts[i], stops[i])``.

    A run ends where the phase jumps by more than
    :data:`~repro.core.segmentation.JUMP_THRESHOLD_RAD`; runs of fewer than
    three samples are dropped.  Returns ``(owner, run_start, run_end)`` as
    indices into the columns, grouped by owner ``i`` in ascending order and,
    within a profile, by descending duration ``times[run_end − 1] −
    times[run_start]``, equal durations keeping their order in time (a
    stable sort).
    """
    starts = np.asarray(starts, dtype=np.intp)
    stops = np.asarray(stops, dtype=np.intp)
    lengths = stops - starts
    ends = np.cumsum(lengths)
    first = ends - lengths
    total = int(ends[-1]) if ends.size else 0
    source = np.arange(total) + np.repeat(starts - first, lengths)
    phases = phases_rad[source]
    opens = np.zeros(total, dtype=bool)
    opens[1:] = np.abs(np.diff(phases)) > JUMP_THRESHOLD_RAD
    opens[first[lengths > 0]] = True
    run_start = np.flatnonzero(opens)
    run_end = np.append(run_start[1:], total)
    long_enough = run_end - run_start >= 3
    run_start, run_end = run_start[long_enough], run_end[long_enough]
    owner = np.searchsorted(first, run_start, side="right") - 1
    duration = times_s[source[run_end - 1]] - times_s[source[run_start]]
    order = np.lexsort((-duration, owner))
    owner, run_start, run_end = owner[order], run_start[order], run_end[order]
    rank = np.arange(owner.size) - np.searchsorted(owner, owner, side="left")
    top = rank < 3
    return owner[top], source[run_start[top]], source[run_end[top] - 1] + 1
