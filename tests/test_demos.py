"""The demos import only names the package still has, and call them with
arguments their signatures accept (without running them)."""

import ast
import importlib
import inspect
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


def virfock_calls(path):
    """(source line, callable, positional count or None, keywords) for every
    call to a name imported from virfock, or to an attribute of one
    (``VirasoroElement.cartan``); None marks a call that unpacks arguments."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "virfock":
            for alias in node.names:
                imported[alias.asname or alias.name] = \
                    getattr(importlib.import_module(node.module), alias.name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imported:
            target = imported[func.id]
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                and func.value.id in imported:
            target = getattr(imported[func.value.id], func.attr)
        else:
            continue
        unpacked = any(isinstance(a, ast.Starred) for a in node.args) \
            or any(k.arg is None for k in node.keywords)
        keywords = [k.arg for k in node.keywords if k.arg is not None]
        yield node.lineno, target, None if unpacked else len(node.args), keywords


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_calls_bind_to_the_current_signatures(path):
    calls = list(virfock_calls(path))
    assert calls
    for line, target, npos, keywords in calls:
        sig = inspect.signature(target)
        kwargs = dict.fromkeys(keywords)
        try:
            if npos is None:
                sig.bind_partial(**kwargs)
            else:
                sig.bind(*[None] * npos, **kwargs)
        except TypeError as exc:
            pytest.fail(f"{path.name}:{line}: {target.__qualname__}{sig}: {exc}")
