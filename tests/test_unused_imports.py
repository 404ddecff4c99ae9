"""Every imported name is used by the module that imports it.

An ``ast`` walk over src/, tests/ and tools/: a name an import binds must
appear in the module as a name, in a string annotation or in ``__all__``.
A name whose own line carries ``noqa: F401`` is exempt, also inside a
parenthesised import.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "tools") for p in (ROOT / d).rglob("*.py"))


def bound_names(tree, lines):
    """(name, line) of each name an import binds, less the exempt ones."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or "noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name
                yield (name if isinstance(node, ast.ImportFrom) else name.split(".")[0],
                       alias.lineno)


def used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef)):
            for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                if isinstance(note, ast.Constant) and isinstance(note.value, str):
                    used |= used_names(ast.parse(note.value, mode="eval"))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(source):
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"line {line}: {name}" for name, line in bound_names(tree, source.splitlines())
            if name not in used]


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_what_it_must():
    source = '''
from __future__ import annotations
import os, os.path as osp
from json import (
    dumps,
    loads,  # noqa: F401 -- kept
)
from typing import Sequence
import numpy.linalg

__all__ = ["dumps"]

def f(x: "Sequence[int]") -> None:
    import re
    return numpy.linalg.norm(x)
'''
    assert unused_imports(source) == ["line 3: os", "line 3: osp", "line 14: re"]
