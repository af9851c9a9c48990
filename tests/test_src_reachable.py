"""Every definition in ``src/repro`` has a caller outside the tests.

A static name scan: each ``def`` and ``class`` (dunder names aside) must
appear as a code token in some git-tracked ``.py`` file under ``src/``,
``benchmarks/``, ``perfbench/`` or ``examples/``.  These do not count as a
use: the name's own definition body, comments and docstrings, ``__all__``
lists and import lines (re-exports).  String constants in code do count,
because ``perfbench`` wraps layer functions by name.  Code only the tests
reach belongs in ``tests/oracles/`` (when a test compares production code
against it) or nowhere.

The scan is by name, not by object, so two definitions sharing a name keep
each other alive; it catches what no file names at all.
"""

from __future__ import annotations

import ast
import subprocess
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCANNED_DIRS = ("src", "benchmarks", "perfbench", "examples")

# Kept on purpose, each with its reason.
ALLOWLIST = {
    # The scalar noise draws: the sweep draws through
    # ``draw_event_noise_scheduled``; these go together with the rng re-pin
    # that changes the draw order (ROADMAP item 2).
    "noisy_phase": "scalar noise draw, removed with the noise re-pin",
    "noisy_rssi": "scalar noise draw, removed with the noise re-pin",
    "read_dropped": "scalar noise draw, removed with the noise re-pin",
    "draw_event_noise": "scalar noise draw, removed with the noise re-pin",
    # The fleet's operator surface for faults, driven by the fault tests.
    "pause": "fleet fault handling: stop a portal's workers",
    "evict_idle": "fleet fault handling: drop idle portals",
    "portal_error": "fleet fault handling: a quarantined portal's cause",
    "portal_keys": "fleet fault handling: the live portals after evictions",
    # Registered in bench/registry.py as the warehouse extension artifact
    # (a descriptive string, not a code token); its tier-1 test runs it.
    "warehouse_conveyor_accuracy": "registered extension experiment",
}


def _tracked_python_files() -> list[Path]:
    try:
        listed = subprocess.run(
            ["git", "ls-files", *SCANNED_DIRS],
            cwd=REPO,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        # Not a git checkout (an exported tree): every file is tracked.
        return sorted(p for d in SCANNED_DIRS for p in (REPO / d).rglob("*.py"))
    return [REPO / name for name in listed if name.endswith(".py")]


def _is_docstring(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _is_all_assignment(node: ast.AST) -> bool:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    else:
        return False
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _token(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.keyword):
        return node.arg
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.isidentifier()
    ):
        return node.value
    return None


def scan() -> list[tuple[str, int, str]]:
    """``(file, line, name)`` of every definition no scanned file uses."""
    uses: Counter[str] = Counter()
    definitions: list[tuple[str, int, str]] = []

    def walk(node: ast.AST, enclosing: tuple[str, ...], path: str, collect: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                continue
            if _is_docstring(child) or _is_all_assignment(child):
                continue
            name = _token(child)
            if name is not None and name not in enclosing:
                uses[name] += 1
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                dunder = child.name.startswith("__") and child.name.endswith("__")
                if collect and not dunder:
                    definitions.append((path, child.lineno, child.name))
                walk(child, enclosing + (child.name,), path, collect)
            else:
                walk(child, enclosing, path, collect)

    for path in _tracked_python_files():
        relative = path.relative_to(REPO).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=relative)
        walk(tree, (), relative, relative.startswith("src/repro/"))
    return [d for d in definitions if uses[d[2]] == 0]


def test_every_src_definition_has_a_production_caller():
    unreached = [d for d in scan() if d[2] not in ALLOWLIST]
    listing = "\n".join(f"  {path}:{line} {name}" for path, line, name in unreached)
    assert not unreached, (
        f"{len(unreached)} src/ definitions are named by no file under "
        f"{', '.join(SCANNED_DIRS)} (move test-only references to "
        f"tests/oracles/, delete the rest):\n{listing}"
    )


def test_allowlist_names_only_unreached_definitions():
    # An entry whose name gained a caller, or lost its definition, is stale.
    unreached = {name for _, _, name in scan()}
    assert sorted(set(ALLOWLIST) - unreached) == []
