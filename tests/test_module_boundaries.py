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


def test_only_the_profile_and_volest_bound_judge_finiteness():
    """The kernel imports nothing from errors: it returns whatever IEEE
    gives.  NonFiniteValues is raised only in WarpProfile.require_finite,
    by the layer that owns each array, and in volest_bound, whose grid is
    not the profile's."""
    kernel = ast.parse((PACKAGE / "kernel.py").read_text(encoding="utf-8"))
    imported = [
        alias.name if isinstance(node, ast.Import) else f"{node.module}.{alias.name}"
        for node in ast.walk(kernel)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert [name for name in imported if "errors" in name] == []

    raisers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                raisers += [
                    f"{path.name}:{fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Raise) and node.exc is not None
                    and "NonFiniteValues" in ast.unparse(node.exc).split("(")[0]
                ]
    assert raisers == ["comparison.py:volest_bound", "geometry.py:require_finite"]


def test_no_module_draws_random_numbers():
    """solab run is deterministic and never loads numpy.random: no module
    names np.random, numpy.random or default_rng."""
    hits = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, (ast.Attribute, ast.Name)):
                names = [ast.unparse(node)]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            hits += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name in ("np.random", "numpy.random") or name.startswith(("numpy.random.", "np.random."))
                or name.split(".")[-1] == "default_rng"
            ]
    assert hits == []
