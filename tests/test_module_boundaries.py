"""Modules of the solab package import only public names from each other."""

import ast
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
