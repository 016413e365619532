"""Guard against API that only the tests call: every public function,
class, method and annotated class field of the program (src/klreg, bench/
and demos/) is referenced somewhere in the program outside its own
definition.

The oracles are independent references by design, errors.py has its own
guard in test_errors.py, and __init__.py only re-exports, so their
definitions are not checked; their references still count.  A reference is
a name or an attribute read, matched by name alone: a method or a field
counts as used when any attribute of that name is read.  Passing a field
by keyword to a constructor is not a read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "klreg"
UNCHECKED = {SRC / "oracle.py", SRC / "errors.py", SRC / "__init__.py"}

# Definitions kept on purpose although no program code reads them.
KEPT = {
    "k_polynomial": "the K-polynomial, which the tests check against the degree routes",
    "max_diag": "the tests' reference for the chain that minimizing_diag picks on one component",
    "lehmer_code": "a named statistic of the paper",
    "ladder_to_json": "the inverse of the board file format",
    "reading_word": "bench/tests checks the benchmark's own reading word against it",
    "extended_marks": "the marks with their corner fill-ins, which criterion 06 checks",
    "row_offset_violations": "why a board is not minimal: the row offsets that break it",
    "col_offset_violations": "why a board is not minimal: the column offsets that break it",
}


def _program_files() -> list[Path]:
    return [
        *sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
        *sorted((ROOT / "bench").glob("*.py")),
        *sorted((ROOT / "demos").glob("*.py")),
    ]


def _definitions(path: Path):
    """(name, line) of each public module-level function or class and of
    each public method or annotated field of a module-level class."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    name = item.name
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield name, item.lineno


class _References(ast.NodeVisitor):
    """Names and attributes read, except inside a definition of that name."""

    def __init__(self):
        self.names: set[str] = set()
        self.enclosing: list[str] = []

    def _scope(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scope

    def _read(self, node, name):
        if isinstance(node.ctx, ast.Load) and name not in self.enclosing:
            self.names.add(name)

    def visit_Name(self, node):
        self._read(node, node.id)

    def visit_Attribute(self, node):
        self._read(node, node.attr)
        self.generic_visit(node)


def _referenced() -> set[str]:
    refs = _References()
    for path in _program_files():
        refs.visit(ast.parse(path.read_text()))
    return refs.names


def _checked_definitions():
    for path in _program_files():
        if path not in UNCHECKED:
            for name, line in _definitions(path):
                yield path, name, line


def test_every_public_definition_is_referenced_by_the_program():
    used = _referenced()
    unused = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path, name, line in _checked_definitions()
        if name not in used and name not in KEPT
    ]
    assert len(list(_checked_definitions())) > 100  # the walk did find the program
    assert unused == []


def test_every_kept_name_is_defined_and_unreferenced():
    # an entry whose name gained a caller or lost its definition is stale
    defined = {name for _, name, _ in _checked_definitions()}
    assert set(KEPT) <= defined
    assert set(KEPT) & _referenced() == set()
