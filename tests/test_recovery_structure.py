"""Structural guard: checkpoint code reads no other object's privates.

Every stateful component defines its part of a checkpoint through its
own ``state_dict()`` / ``restore_state(dict)`` pair, so the modules that
compose checkpoints and warehouse snapshots must reach components only
through that public surface.  This test parses those modules and fails
on any ``_private`` attribute read through a receiver other than
``self``, and on any ``_private`` name imported from another module.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
CHECKED = sorted(SRC.glob("recovery/*.py")) + [
    SRC / "repository" / "persistence.py"
]


def is_private(name):
    return name.startswith("_") and not name.endswith("__")


def reach_ins(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and is_private(node.attr):
            receiver = node.value
            if not (isinstance(receiver, ast.Name) and receiver.id == "self"):
                found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            found.extend(
                f"line {node.lineno}: import {alias.name}"
                for alias in node.names
                if is_private(alias.name)
            )
    return found


@pytest.mark.parametrize(
    "path", CHECKED, ids=[str(path.relative_to(SRC)) for path in CHECKED]
)
def test_no_private_reach_ins(path):
    assert reach_ins(path) == []


def test_the_guard_catches_a_reach_in(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .store import _StoredDocument\n"
        "def f(self, repository):\n"
        "    self._ok = repository._docs\n",
        encoding="utf-8",
    )
    assert reach_ins(probe) == [
        "line 1: import _StoredDocument",
        "line 3: ._docs",
    ]
