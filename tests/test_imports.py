"""Every name a ``vlaad`` module imports is used in that module.

A name counts as used when the module reads it anywhere, including inside a
string annotation such as ``"ClipRecord"``.
"""

import ast
from pathlib import Path

import pytest

import vlaad

MODULES = sorted(Path(vlaad.__file__).resolve().parent.glob("*.py"))


def imported(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used(tree: ast.Module) -> set:
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    quoted = [ast.parse(c.value, mode="eval") for a in annotations if a is not None
              for c in ast.walk(a)
              if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    return {n.id for t in (tree, *quoted) for n in ast.walk(t) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert sorted(imported(tree) - used(tree)) == []


def test_a_leftover_import_is_caught():
    tree = ast.parse("from .errors import DimensionMismatchError, ValidationError\n"
                     "from typing import TYPE_CHECKING\n"
                     "if TYPE_CHECKING:\n    from .datakit import ClipRecord\n"
                     "def f(clip: 'ClipRecord'):\n    raise ValidationError(clip)\n")
    assert imported(tree) - used(tree) == {"DimensionMismatchError"}
