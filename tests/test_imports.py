"""The package's import graph: module-level imports between its modules form
no cycle, so no module needs an import inside a function to break one.
Every package name the benchmark and the demos use still exists. The
kernels of a Shapley value are called from the one contraction alone, and
every game is one class, built by the benchmark's explain path alone. One
function reads the chunk budget."""

import ast
import graphlib
import importlib
from pathlib import Path

import cohortshap
from cohortshap import dataset, games, shapley, similarity
from cohortshap.config import AUDIT_DEFAULTS

PACKAGE = Path(cohortshap.__file__).resolve().parent
MODULES = {path.stem: path for path in PACKAGE.glob("*.py")}
REPO = PACKAGE.parent.parent
CALLERS = sorted([*REPO.glob("bench/*.py"), *REPO.glob("demos/*.py")])


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


def _package_names(tree) -> set[tuple[str, str]]:
    """(module, name) pairs a caller reads from the package: the attributes
    of ``cohortshap.<name>`` and the names of ``from cohortshap[.mod] import``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level:
            module = node.module or ""
            if module == "cohortshap" or module.startswith("cohortshap."):
                found.update((module, alias.name) for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "cohortshap"
        ):
            found.add(("cohortshap", node.attr))
    return found


def _resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:  # a submodule the caller's import loads
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_bench_and_demo_names_resolve():
    used = {}
    for path in CALLERS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for pair in _package_names(tree):
            used.setdefault(pair, path.relative_to(REPO).as_posix())
    # the benchmark's explain path is among the names read
    assert ("cohortshap", "make_cs_game") in used
    missing = sorted(
        f"{where}: {module}.{name}"
        for (module, name), where in used.items()
        if not _resolves(module, name)
    )
    assert not missing, "names the package lacks: " + ", ".join(missing)


# The one contraction: each kernel of a Shapley value is called from one
# function of shapley.py, so no second engine can grow beside it.
CONTRACTION = {
    "_phi_from_tables": {("shapley", "_exact_phi")},
    "gather_increments": {("shapley", "_contract")},
    "shapley_from_orders": {("shapley", "_contract")},
}


class _Scoped(ast.NodeVisitor):
    """Records (module, innermost enclosing function) pairs by name in
    ``found``."""

    def __init__(self, module: str, found: dict):
        self.module, self.found = module, found
        self._function: list[str] = []

    def visit_FunctionDef(self, node):
        self._function.append(node.name)
        self.generic_visit(node)
        self._function.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def record(self, name: str) -> None:
        where = self._function[-1] if self._function else "<module>"
        self.found.setdefault(name, set()).add((self.module, where))


class _Callers(_Scoped):
    """Every call, by name or attribute, of a name in CONTRACTION."""

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in CONTRACTION:
            self.record(name)
        self.generic_visit(node)


# The chunk budget: chunk widths decide the last bits of phi, so one function
# sets them.
BUDGET = ("CHUNK_BYTES", "MAX_CHUNK_TARGETS")


class _BudgetReaders(_Scoped):
    """Every read, by name or attribute, of a name in BUDGET."""

    def visit_Name(self, node):
        if node.id in BUDGET and isinstance(node.ctx, ast.Load):
            self.record(node.id)

    def visit_Attribute(self, node):
        if node.attr in BUDGET and isinstance(node.ctx, ast.Load):
            self.record(node.attr)
        self.generic_visit(node)


def test_one_contraction_calls_the_shapley_kernels():
    found = {}
    for name, path in MODULES.items():
        _Callers(name, found).visit(ast.parse(path.read_text(encoding="utf-8")))
    assert found == CONTRACTION


def test_one_function_reads_the_chunk_budget():
    found = {}
    for name, path in MODULES.items():
        _BudgetReaders(name, found).visit(ast.parse(path.read_text(encoding="utf-8")))
    assert found == dict.fromkeys(BUDGET, {("similarity", "cohort_table_chunks")})


def test_one_game_class():
    # a game is a value table or a function of nonempty masks, never a
    # subclass with its own evaluation
    classes = [
        node.name
        for node in ast.walk(ast.parse(MODULES["games"].read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
    ]
    assert classes == ["Game"]
    sources = [*MODULES.values(), *REPO.glob("tests/*.py")]
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases = {getattr(base, "id", getattr(base, "attr", None)) for base in node.bases}
                assert "Game" not in bases, f"{path.name}: {node.name} subclasses Game"
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert node.name != "_evaluate_many", f"{path.name} defines _evaluate_many"


class _GameCalls(_Scoped):
    """Every call, by name or attribute, of ``Game``."""

    def visit_Call(self, node):
        func = node.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "Game":
            self.record("Game")
        self.generic_visit(node)


def test_only_the_explain_path_builds_a_game():
    # per-target results come from local_attributions; the single-game API
    # is the benchmark's explain path, and what only tests reached is gone
    gone = {
        "cohortshap": (cohortshap, ["make_game", "TableGame", "shapley_engine", "write_csv"]),
        "games": (games, ["make_game", "TableGame"]),
        "shapley": (shapley, ["shapley_engine"]),
        "similarity": (similarity, ["subset_int"]),
        "dataset": (dataset, ["write_csv"]),
        "Dataset": (dataset.Dataset, ["cell_text", "prediction_name"]),
    }
    left = [
        f"{where}.{name}"
        for where, (owner, names) in gone.items()
        for name in names
        if hasattr(owner, name)
    ]
    assert left == []
    found = {}
    for name, path in MODULES.items():
        _GameCalls(name, found).visit(ast.parse(path.read_text(encoding="utf-8")))
    assert found == {"Game": {("games", "make_cs_game")}}


def test_cli_reads_the_audit_block_and_the_contraction_once():
    # the audit block's defaults are config.AUDIT_DEFAULTS, never a second
    # .get(key, default) in cli.py, and the cube's direct route is the one
    # exact contraction, not the single-game API
    tree = ast.parse(MODULES["cli"].read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "get"
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            assert node.args[0].value not in AUDIT_DEFAULTS, ast.unparse(node)
    assert not names & {"TableGame", "shapley_exact"}
