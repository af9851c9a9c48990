"""The leaderboard matrix's pinned orderings digest, in the tier-1 suite.

``perfbench/closed.py`` pins the sha256 of every scheme's X/Y orderings over
the scenario matrix (8 specs x 2 repetitions) at its default seed.  A full
benchmark run checks it; this test runs the same 16 operations through the
same ``ScenarioMatrix`` code and checks the same constant, imported rather
than copied, so the pin lives in one place.
"""

import sys
from pathlib import Path

# closed.py imports its sibling modules by plain name.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from closed import DEFAULT_SEED, MATRIX_DIGEST, REPETITIONS, ScenarioMatrix  # noqa: E402


def test_matrix_orderings_match_the_pinned_digest():
    matrix = ScenarioMatrix()
    inputs = matrix.setup(DEFAULT_SEED)
    size = len(inputs["specs"]) * REPETITIONS
    outputs = [matrix.operate(matrix._plan(inputs, index)) for index in range(size)]
    assert matrix.output_digest(outputs) == MATRIX_DIGEST
