"""The full 10k-tag dense hall's pinned read-log digest, in the tier-1 suite.

``perfbench/closed.py`` pins the sha256 of the first dense-hall sweep's read
log at its default seed.  A full benchmark run checks it; this test runs the
same operation through the same ``DenseHall`` code and checks the same
constant, imported rather than copied, so the pin lives in one place.  The
400-tag slice in ``tests/test_batch_sweep.py`` packs 143 coupling rows in
two ``_ROW_CHUNK`` passes of the neighbour grid; this sweep packs 703 rows
in six.

The pin holds only under numpy's AVX-512 dispatch: float64 ``np.exp``,
``np.log``, ``np.log10`` and ``np.arctan2``/``np.angle`` give other bits
under the AVX2 kernels, and they feed RSSI and the multipath phase
perturbation (``NPY_DISABLE_CPU_FEATURES="X86_V4"`` fails this test).
"""

import sys
from pathlib import Path

# closed.py imports its sibling modules by plain name.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from closed import DEFAULT_SEED, DENSE_DIGEST, DenseHall  # noqa: E402


def test_dense_hall_read_log_matches_the_pinned_digest():
    hall = DenseHall()
    inputs = hall.setup(DEFAULT_SEED)
    log = hall.operate(hall.scene(inputs, 0))
    assert hall.log_digest(log) == DENSE_DIGEST
