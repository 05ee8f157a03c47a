"""Every name a module exports in ``__all__`` exists on that module.

A stale entry would otherwise surface only through ``from ... import *``.
"""

import importlib

import pytest


@pytest.mark.parametrize(
    "module_name",
    ["dlcz_link", "dlcz_link.stochastic", "dlcz_link.analysis", "dlcz_link.config"],
)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined attributes: {missing}"
