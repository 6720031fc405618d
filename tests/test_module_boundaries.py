"""Modules of the solab package import only public names from each other,
and every exported name exists."""

import ast
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "solab"


def private_imports(path: Path) -> list:
    """`from <solab module> import _name` statements in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "solab":
            continue
        found += [
            f"{path.name}:{node.lineno}: from {'.' * node.level}{module} import {alias.name}"
            for alias in node.names
            if alias.name.startswith("_")
        ]
    return found


def test_no_module_imports_a_private_name_from_another():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    assert [hit for path in sources for hit in private_imports(path)] == []


def test_every_name_in_all_is_defined():
    stale = []
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"solab.{path.stem}")
        stale += [f"{path.name}: {name}" for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert stale == []


def test_modules_import_only_exported_names():
    """Every `from .x import name` in the package, solab/__init__.py's
    re-exports included, names something in x.__all__."""
    unlisted = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                public = getattr(importlib.import_module(f"solab.{node.module}"), "__all__", ())
                unlisted += [
                    f"{path.name}:{node.lineno}: {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name not in public
                ]
    assert unlisted == []
