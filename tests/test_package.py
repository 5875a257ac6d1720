"""Tests for the package's public surface: ``linrep.__all__`` is the union
of the modules' own ``__all__`` lists, private names cross modules only
where listed, and the sources import only the standard library and the
declared dependencies."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import linrep
from linrep import algorithms, env, harness, metrics, model, rng

MODULES = (algorithms, env, harness, metrics, model, rng)


def test_all_is_version_plus_every_module_all_once():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert len(linrep.__all__) == len(set(linrep.__all__))
    assert set(linrep.__all__) == {"__version__", *names}


def test_every_public_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(linrep, name) is getattr(module, name)
    assert isinstance(getattr(linrep, "__version__"), str)


# Private names that one module of the package imports from another, as
# (importing module, source module, name).  A run's rounds, their check and
# their sketches stay behind ``env._rounds``; ``harness`` draws its
# gradient-check rounds with the public samplers.
CROSSINGS = {
    ("algorithms", "env", "_rounds"),
    ("algorithms", "env", "_trusted"),
}


def test_private_names_cross_modules_only_as_listed():
    found = set()
    for path in Path(linrep.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found.update((path.stem, node.module, alias.name) for alias in node.names
                             if alias.name.startswith("_"))
    assert found == CROSSINGS


# The package's dependencies (``pyproject.toml``); anything else, ``scipy``
# included, may be installed where the tests run without being one.
DEPENDENCIES = {"numpy", "pydantic"}


def test_sources_import_only_the_standard_library_and_dependencies():
    imported = set()
    for path in Path(linrep.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
    assert imported  # the walk saw the sources
    outside = {name for name in imported
               if name.partition(".")[0] not in sys.stdlib_module_names | DEPENDENCIES}
    assert not outside
