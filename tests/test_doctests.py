"""Run every docstring example in the klreg package."""

import doctest
import importlib
import pkgutil

import klreg


def test_docstring_examples_pass():
    modules = [klreg] + [importlib.import_module(f"klreg.{m.name}") for m in pkgutil.iter_modules(klreg.__path__)]
    attempted = failed = 0
    for module in modules:
        result = doctest.testmod(module)
        attempted += result.attempted
        failed += result.failed
    assert attempted > 0
    assert failed == 0
