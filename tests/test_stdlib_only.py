"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "atlir"


def _outside_stdlib(tree: ast.Module) -> list[str]:
    """The absolute imports of a module whose top package is not in the
    standard library."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [n for n in names if n.partition(".")[0] not in sys.stdlib_module_names]


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_module_imports_only_the_standard_library(name):
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)
    assert _outside_stdlib(tree) == []


def test_foreign_imports_are_caught():
    tree = ast.parse("import os.path\nimport numpy as np\nfrom . import cgs\nfrom yaml import load\n")
    assert _outside_stdlib(tree) == ["numpy", "yaml"]
