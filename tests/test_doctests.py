import doctest
import importlib
import pkgutil

import pytest

import derangetree


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(derangetree.__path__)])
def test_module_doctests(name):
    failures, _ = doctest.testmod(importlib.import_module(f"derangetree.{name}"))
    assert failures == 0
