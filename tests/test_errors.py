"""Guard for the error classes: klreg raises only the five classes of
errors.py, one per CLI outcome, and no other module defines its own."""

import ast
import builtins
from pathlib import Path

import klreg
from klreg import errors

SRC = Path(klreg.__file__).parent
ALLOWED = {"KlregError", "ParseError", "ValidationError", "ResourceError", "InternalError"}
EXCEPTION_NAMES = ALLOWED | {
    name for name, obj in vars(builtins).items() if isinstance(obj, type) and issubclass(obj, BaseException)
}


def _name(node) -> str | None:
    """The class a raise or a base names: X, X(...), mod.X or mod.X(...)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _modules():
    return sorted(SRC.glob("*.py"))


def test_errors_defines_exactly_the_five_classes():
    tree = ast.parse((SRC / "errors.py").read_text())
    assert {node.name for node in tree.body if isinstance(node, ast.ClassDef)} == ALLOWED
    assert all(issubclass(getattr(errors, name), errors.KlregError) for name in ALLOWED)


def test_no_other_module_defines_an_exception_class():
    offenders = []
    for path in _modules():
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(_name(b) in EXCEPTION_NAMES for b in node.bases):
                offenders.append(f"{path.name}:{node.lineno} {node.name}")
    assert offenders == []


def test_every_raise_names_one_of_the_five():
    offenders = []
    raises = 0
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raises += 1
                if _name(node.exc) not in ALLOWED:
                    offenders.append(f"{path.name}:{node.lineno} {ast.unparse(node.exc)}")
    assert offenders == []
    assert raises > 50  # the walk did find klreg's raise sites
