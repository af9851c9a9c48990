"""The cross-product diagonal: the oracle for the providers' paired queries.

A tag-position provider answers ``positions_paired(rows, times)`` with one
O(M) elementwise evaluation per pair.  :func:`diagonal_positions` computes the
same pairs the slow way, as the diagonal of the ``(M, M, 3)`` cross product
``positions_at(times, rows)``.  Every cell of that product depends only on its
own (row, time) pair, so the two agree bit for bit;
``tests/test_fused_sweep.py`` compares them.
"""

from __future__ import annotations

import numpy as np


def diagonal_positions(provider, rows: np.ndarray, times_s: np.ndarray) -> np.ndarray:
    """Position of row ``rows[i]`` at ``times_s[i]``, as ``(M, 3)``."""
    times = np.asarray(times_s, dtype=float)
    pairs = np.arange(len(rows))
    return provider.positions_at(times, rows)[pairs, pairs]
