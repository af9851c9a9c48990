"""Every definition in ``src/repro`` has a caller outside the tests.

A static name scan: each ``def`` and ``class`` (dunder names aside) must
appear as a code token in some git-tracked ``.py`` file under ``src/``,
``benchmarks/``, ``perfbench/`` or ``examples/``.  These do not count as a
use: the name's own definition body, comments and docstrings, ``__all__``
lists and import lines (re-exports).  String constants in code do count,
because ``perfbench`` wraps layer functions by name.  A method or property
(a definition directly inside a class) is reached only through an attribute
access (``x.name``) or a string constant: a bare name, parameter or keyword
of the same spelling cannot call it.  Code only the tests reach belongs in
``tests/oracles/`` (when a test compares production code against it) or
nowhere.

The scan is by name, not by object, so two definitions sharing a name keep
each other alive; it catches what no file names at all.
"""

from __future__ import annotations

import ast
import subprocess
from collections import Counter
from pathlib import Path
from typing import Iterable

import pytest

REPO = Path(__file__).resolve().parent.parent
SCANNED_DIRS = ("src", "benchmarks", "perfbench", "examples")

# Kept on purpose, each with its reason.
ALLOWLIST = {
    # The fleet's operator surface for faults, driven by the fault tests.
    "pause": "fleet fault handling: stop a portal's workers",
    "evict_idle": "fleet fault handling: drop idle portals",
    "portal_error": "fleet fault handling: a quarantined portal's cause",
    "portal_keys": "fleet fault handling: the live portals after evictions",
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


def _token(node: ast.AST) -> tuple[str, bool] | None:
    """The name ``node`` uses, and whether it can reach a class member."""
    if isinstance(node, ast.Name):
        return node.id, False
    if isinstance(node, ast.Attribute):
        return node.attr, True
    if isinstance(node, ast.keyword) and node.arg is not None:
        return node.arg, False
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.isidentifier()
    ):
        return node.value, True
    return None


def scan(sources: Iterable[tuple[str, str]] | None = None) -> list[tuple[str, int, str]]:
    """``(file, line, name)`` of every definition no scanned file uses.

    ``sources`` are ``(repo-relative path, text)`` pairs; by default every
    tracked file under :data:`SCANNED_DIRS`.
    """
    if sources is None:
        sources = (
            (path.relative_to(REPO).as_posix(), path.read_text(encoding="utf-8"))
            for path in _tracked_python_files()
        )
    uses: Counter[str] = Counter()
    member_uses: Counter[str] = Counter()
    definitions: list[tuple[str, int, str, bool]] = []

    def walk(node: ast.AST, enclosing: tuple[str, ...], path: str, collect: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                continue
            if _is_docstring(child) or _is_all_assignment(child):
                continue
            token = _token(child)
            if token is not None and token[0] not in enclosing:
                uses[token[0]] += 1
                if token[1]:
                    member_uses[token[0]] += 1
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                dunder = child.name.startswith("__") and child.name.endswith("__")
                if collect and not dunder:
                    member = isinstance(node, ast.ClassDef)
                    definitions.append((path, child.lineno, child.name, member))
                walk(child, enclosing + (child.name,), path, collect)
            else:
                walk(child, enclosing, path, collect)

    for relative, text in sources:
        tree = ast.parse(text, filename=relative)
        walk(tree, (), relative, relative.startswith("src/repro/"))
    return [
        (path, line, name)
        for path, line, name, member in definitions
        if (member_uses if member else uses)[name] == 0
    ]


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


# The scan's rule on a two-file tree: a module under src/repro/ defining a
# method and a function, each referring to itself only inside its own body,
# and one caller file whose text each case picks.
DEFINING_MODULE = '''
class Box:
    def size(self):
        return self.size

    def __len__(self):
        return 0


def helper(n):
    return helper(n - 1) if n else 0
'''


def _unreached_names(caller: str) -> set[str]:
    sources = [("src/repro/m.py", DEFINING_MODULE), ("benchmarks/use.py", caller)]
    return {name for _, _, name in scan(sources)}


@pytest.mark.parametrize(
    "name, caller, reached",
    [
        ("size", "box.size()", True),
        ("size", "getattr(box, 'size')", True),
        ("size", "size = 3\nprint(size)", False),
        ("size", "f(size=3)", False),
        ("size", "def g(size):\n    return 0", False),
        ("helper", "helper(2)", True),
        ("helper", "f(helper=1)", True),
        ("helper", "wrap('helper')", True),
        ("helper", "x = 1  # helper(2)", False),
        ("helper", "'''helper(2)'''", False),
        ("helper", "from repro.m import helper", False),
        ("helper", "__all__ = ['helper']", False),
        ("helper", "", False),
    ],
    ids=[
        "member-attribute",
        "member-string",
        "member-bare-name",
        "member-keyword",
        "member-parameter",
        "function-bare-name",
        "function-keyword",
        "function-string",
        "function-comment",
        "function-docstring",
        "function-import",
        "function-all",
        "function-own-body",
    ],
)
def test_scan_rule(name, caller, reached):
    assert (name not in _unreached_names(caller)) is reached


def test_scan_reports_only_non_dunder_src_definitions():
    # ``__len__`` is a dunder and ``g`` lives outside src/repro/: neither is
    # reported, though nothing calls them.
    assert _unreached_names("def g():\n    return 0") == {"Box", "size", "helper"}
