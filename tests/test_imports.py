"""The package's import graph: module-level imports between its modules form
no cycle, so no module needs an import inside a function to break one."""

import ast
import graphlib
from pathlib import Path

import cohortshap

PACKAGE = Path(cohortshap.__file__).resolve().parent
MODULES = {path.stem: path for path in PACKAGE.glob("*.py")}


def _package_modules(node) -> set[str]:
    """The package modules an import statement names."""
    if isinstance(node, ast.Import):
        full = [alias.name for alias in node.names]
    else:
        base = node.module or ""
        if node.level:
            base = f"cohortshap.{base}" if base else "cohortshap"
        full = [f"{base}.{alias.name}" for alias in node.names]
        full = full if base == "cohortshap" else [base]
    names = {name.split(".")[1] for name in full if name.startswith("cohortshap.")}
    return names & MODULES.keys()


def _is_type_checking(test) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


class _Imports(ast.NodeVisitor):
    """Package imports run at import time (``top``) and in function bodies
    (``local``); ``if TYPE_CHECKING:`` bodies never run and are skipped."""

    def __init__(self):
        self.top: set[str] = set()
        self.local: set[str] = set()
        self._depth = 0

    def visit_FunctionDef(self, node):
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_If(self, node):
        if not _is_type_checking(node.test):
            self.generic_visit(node)
            return
        for child in node.orelse:
            self.visit(child)

    def visit_Import(self, node):
        (self.local if self._depth else self.top).update(_package_modules(node))

    visit_ImportFrom = visit_Import


def _imports() -> dict[str, _Imports]:
    found = {}
    for name, path in MODULES.items():
        visitor = _Imports()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found[name] = visitor
    return found


def test_module_level_package_imports_are_acyclic():
    graph = {name: found.top for name, found in _imports().items()}
    # relative imports of both forms are read
    assert "games" in graph["aggregate"] and "bits" in graph["similarity"]
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None


def test_no_function_imports_from_the_package():
    local = {name: found.local for name, found in _imports().items() if found.local}
    assert local == {}
