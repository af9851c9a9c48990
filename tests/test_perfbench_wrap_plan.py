"""The repository benchmark's traced run can wrap every layer it names.

``perfbench/layers.py`` wraps library functions and methods by attribute
name, so renaming one breaks the traced run.  Installing and uninstalling
the wrap plan takes milliseconds, so tier-1 checks it: every named attribute
exists, gets wrapped, and is restored to the identical object afterwards.
"""

from __future__ import annotations

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_wrap_plan_installs_and_restores_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        try:
            layers.install(tracer)
            patches = list(tracer._patches)
            assert patches
            for owner, attr, original in patches:
                assert vars(owner)[attr] is not original
                assert vars(owner)[attr].__wrapped__ is original
        finally:
            tracer.uninstall()
        for owner, attr, original in patches:
            assert vars(owner)[attr] is original, f"{owner!r}.{attr}"
    finally:
        # perfbench's modules are top-level names; leave none behind.
        for name in ("layers", "tracer"):
            sys.modules.pop(name, None)
