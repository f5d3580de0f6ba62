"""Every name a `vdd` module or a test module imports is used in it or
exported by it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "vdd").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports (anywhere in it) that no
    expression reads and `__all__` does not list; `from __future__` binds none."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\nimport math, os.path\n"
              "from dataclasses import dataclass, field as f\n__all__ = ['f']\nmath.pi\n")
    assert unused_imports(source) == ["os (line 2)", "dataclass (line 3)"]


def rewrapped_errors(source: str) -> list[int]:
    """Lines where an `except ... as exc` block raises ConfigError(str(exc)):
    a re-wrap of an error whose own check should have raised ConfigError."""
    return [node.lineno for handler in ast.walk(ast.parse(source))
            if isinstance(handler, ast.ExceptHandler) and handler.name
            for node in ast.walk(handler)
            if isinstance(node, ast.Raise) and node.exc is not None
            and ast.unparse(node.exc) == f"ConfigError(str({handler.name}))"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_error_is_rewrapped_as_a_config_error(path):
    assert rewrapped_errors(path.read_text()) == []


def test_the_check_sees_a_rewrapped_error():
    source = ("try:\n    f()\nexcept ValueError as exc:\n"
              "    raise ConfigError(str(exc)) from None\n"
              "try:\n    f()\nexcept OSError as err:\n"
              "    raise ConfigError(f'cannot read: {err}')\n")
    assert rewrapped_errors(source) == [4]
