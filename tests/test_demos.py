"""The demos import only names the package still has (without running them)."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def virfock_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "virfock":
            for alias in node.names:
                yield node.module, alias.name


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    names = list(virfock_imports(path))
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), \
            f"{path.name}: {module}.{name} does not exist"
