"""Tag ordering along the X axis (paper §3.1).

Once every tag's V-zone has been detected and quadratically fitted, the X-axis
order is simply the order of the fitted bottom times: the antenna passes the
tags in the order their V-zones reach their bottoms.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .result import AxisOrdering
from .vzone import VZone


def order_tags_x(
    vzones: Mapping[str, VZone],
    all_tag_ids: Iterable[str] | None = None,
) -> AxisOrdering:
    """Order tags along the sweep direction by V-zone bottom time.

    Parameters
    ----------
    vzones:
        Detected V-zone per tag.
    all_tag_ids:
        The full tag population.  Tags present here but absent from
        ``vzones`` (no usable profile) are reported in ``unordered_ids``.

    Returns
    -------
    AxisOrdering
        Tags sorted by increasing bottom time; the scores dict carries each
        tag's bottom time in seconds.
    """
    usable = {
        tag_id: vzone
        for tag_id, vzone in vzones.items()
        if not _is_nan(vzone.bottom_time_s)
    }
    ordered = sorted(usable, key=lambda tag_id: usable[tag_id].bottom_time_s)
    scores = {tag_id: float(usable[tag_id].bottom_time_s) for tag_id in ordered}

    if all_tag_ids is None:
        unordered: tuple[str, ...] = ()
    else:
        unordered = tuple(tag_id for tag_id in all_tag_ids if tag_id not in usable)

    return AxisOrdering(
        axis="x",
        ordered_ids=tuple(ordered),
        scores=scores,
        unordered_ids=unordered,
    )


def _is_nan(value: float) -> bool:
    return value != value
