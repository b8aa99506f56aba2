"""Every name a ``qrea`` module exports in ``__all__`` exists in it, so a
deleted function cannot stay advertised."""

import importlib
import pkgutil

import pytest

import qrea

NAMES = ["qrea"] + [f"qrea.{m.name}" for m in pkgutil.iter_modules(qrea.__path__)]
MODULES = [name for name in NAMES if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
