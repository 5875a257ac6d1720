"""Tests for the package's public surface: ``linrep.__all__`` is the union
of the modules' own ``__all__`` lists."""
from __future__ import annotations

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
