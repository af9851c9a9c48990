"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures at a reduced
but representative scale, prints the regenerated rows/series (so the run log
doubles as the paper-vs-measured record), and reports its runtime through
pytest-benchmark.  ``run_once`` wraps ``benchmark.pedantic`` so heavyweight
simulations execute exactly once.
"""

from __future__ import annotations


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def emit(title: str, body: str) -> None:
    """Print a titled block; shows up in the captured benchmark output."""
    print(f"\n=== {title} ===\n{body}")

