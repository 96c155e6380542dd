"""Module boundaries inside the aphi package, read from the source."""
import ast
import importlib
import importlib.util
from pathlib import Path

import scipy.sparse as sp

SRC = Path(__file__).resolve().parent.parent / "src" / "aphi"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_imports(path: Path) -> list[str]:
    """Underscore names that the module at path takes from another aphi
    module, by `from ... import _name` or as `module._name`."""
    tree = ast.parse(path.read_text(), str(path))
    found, modules = [], set()  # modules: local names bound to aphi modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "aphi"):
            for alias in node.names:
                if _private(alias.name):
                    found.append(alias.name)
                elif (SRC / f"{alias.name}.py").exists():
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name.split(".")[0] == "aphi")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and ast.unparse(node.value) in modules):
            found.append(f"{ast.unparse(node.value)}.{node.attr}")
    return found


def test_no_module_imports_a_private_name_of_another():
    # a private name is one module's decision; a second module that reads
    # it splits that decision between two owners
    found = {path.name: names for path in sorted(SRC.glob("*.py"))
             if (names := _private_imports(path))}
    assert found == {}


def test_private_import_scan_sees_both_forms(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from .solve import _equilibrate, Factorization\n"
                    "from . import solve\n"
                    "import aphi.mesh as m\n"
                    "x = solve._probe_bound(m._cells, solve.KAPPA1_EPS_TOL)\n")
    assert _private_imports(path) == ["_equilibrate", "solve._probe_bound",
                                      "m._cells"]


# Each module may import only from modules before it in this order.
LAYERS = ("mesh", "spaces", "assembly", "gauge", "solve", "system", "physics",
          "scenario", "vtk_io", "cli")


def _upward_imports(path: Path) -> list[str]:
    """Modules that the module at path imports relatively, anywhere in its
    body (inside a function or under TYPE_CHECKING too), and that do not
    come before it in LAYERS."""
    below = LAYERS[:LAYERS.index(path.stem)]
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [a.name for a in node.names]
            found += [n for n in names if n.split(".")[0] not in below]
    return found


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} - {"__init__", "__main__"} \
        == set(LAYERS)


def test_modules_import_only_earlier_layers():
    # an import from a later layer is a cycle waiting to happen, and a
    # lower layer that needs a higher one's type has its owner in the
    # wrong place
    found = {name: names for name in LAYERS
             if (names := _upward_imports(SRC / f"{name}.py"))}
    assert found == {}


def test_layer_scan_sees_type_checking_and_function_imports(tmp_path):
    path = tmp_path / "assembly.py"
    path.write_text("from typing import TYPE_CHECKING\n"
                    "from .mesh import Mesh\n"
                    "from . import spaces\n"
                    "if TYPE_CHECKING:\n"
                    "    from .physics import ManufacturedCase\n"
                    "def f():\n"
                    "    from . import gauge, mesh\n")
    assert _upward_imports(path) == ["physics", "gauge"]


def _object_annotations(path: Path) -> list[int]:
    """Lines of the module at path with an annotation that names object:
    bare, in a union or a subscript, or inside a string annotation."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            note = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            note = node.returns
        else:
            continue
        if note is None:
            continue
        expr = (ast.parse(note.value, mode="eval") if isinstance(note, ast.Constant)
                and isinstance(note.value, str) else note)
        if any(isinstance(n, ast.Name) and n.id == "object" for n in ast.walk(expr)):
            found.append(note.lineno)
    return found


def test_no_annotation_is_object():
    # an object annotation lets a lower layer hold a higher layer's value
    # without importing its type: the way round the layer order above
    found = {path.name: lines for path in sorted(SRC.glob("*.py"))
             if (lines := _object_annotations(path))}
    assert found == {}


def test_object_annotation_scan_sees_every_spelling(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from typing import Optional\n"
                    "class C:\n"
                    "    source: object = None\n"
                    "    n: int = 0\n"
                    "def f(a: object, *rest: object, b: 'object | None' = None,\n"
                    "      **kw: Optional[object]) -> object:\n"
                    "    x: list[object] = []\n"
                    "    return object()\n"
                    "async def g(y: int) -> dict[str, object | None]:\n"
                    "    pass\n")
    assert sorted(_object_annotations(path)) == [3, 5, 5, 5, 6, 6, 7, 9]


def _setattr_bypasses(path: Path) -> list[int]:
    """Lines of the module at path that call object.__setattr__, the way
    round a frozen dataclass."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) == "object.__setattr__"]


def test_no_frozen_dataclass_is_written_after_construction():
    found = {path.name: lines for path in sorted(SRC.glob("*.py"))
             if (lines := _setattr_bypasses(path))}
    assert found == {}


def test_setattr_scan_sees_the_bypass(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("def f(self):\n"
                    "    setattr(self, 'a', 1)\n"
                    "    object.__setattr__(self, 'b', 2)\n")
    assert _setattr_bypasses(path) == [3]


def _bench_spans():
    """bench/spans.py, loaded by path (it imports only the standard library)."""
    path = SRC.parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_patch_targets_exist():
    # the traced benchmark patches these names in place, so a rename would
    # break only a traced run
    spans = _bench_spans()
    for mod_name, fn_name, *_ in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod_name), fn_name)), \
            (mod_name, fn_name)
    for mod_name, cls_name, meth, *_ in spans.METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        assert meth in cls.__dict__, (mod_name, cls_name, meth)
    assert hasattr(importlib.import_module("aphi.solve"), "spla")
    # bench/checks.py forms each method's system through it
    assert callable(importlib.import_module("aphi.cli").method_system)
    # the traced assembly.bundle_nnz fact reads each of these bundle matrices
    from aphi.scenario import academic_scenario
    bundle = academic_scenario((3, 3, 3)).build().bundle
    for name in spans._BUNDLE_MATRICES:
        A = getattr(bundle, name)
        assert sp.issparse(A) and isinstance(A.nnz, int), name


def _csgraph_importers() -> list[str]:
    """Modules of the package that import from scipy.sparse.csgraph."""
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(n.startswith("scipy.sparse.csgraph") for n in names):
                found.add(path.stem)
    return sorted(found)


def test_only_gauge_searches_graphs():
    # one module owns the package's graph searches (the gauge's spanning
    # tree and node components), so a second search is not written by hand
    assert _csgraph_importers() == ["gauge"]


def _krylov_names(path: Path) -> list[str]:
    """The names spilu and gmres as the module at path spells them: by
    reference, as an attribute, in an import or as a definition."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, (ast.alias, ast.FunctionDef))
                else None)
        if name in ("spilu", "gmres"):
            found.add(name)
    return sorted(found)


def test_only_solve_names_spilu_or_gmres():
    # one module owns the incomplete LU and the GMRES that it preconditions,
    # so every iterative solve meets the same gates and residual check
    found = {path.stem: names for path in sorted(SRC.glob("*.py"))
             if (names := _krylov_names(path))}
    assert found == {"solve": ["gmres", "spilu"]}


def test_krylov_scan_sees_every_spelling(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from scipy.sparse.linalg import spilu as ilu\n"
                    "import scipy.sparse.linalg as la\n"
                    "x = la.gmres(A, b)\n"
                    "'''spilu and gmres, named in prose only'''\n")
    assert _krylov_names(path) == ["gmres", "spilu"]
    path.write_text("def gmres(apply, b):\n    return b\n")
    assert _krylov_names(path) == ["gmres"]


def _estimator_names(path: Path) -> list[str]:
    """The condition estimator's names that the module at path spells, by
    reference or as a string literal: DENSE_SVD_LIMIT, a _POWER_ constant,
    and the method names "power-iteration" and "dense-svd"."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias)
                else node.value if isinstance(node, ast.Constant) else None)
        if isinstance(name, str) and (
                name in ("DENSE_SVD_LIMIT", "power-iteration", "dense-svd")
                or name.startswith("_POWER_")):
            found.add(name)
    return sorted(found)


def test_only_solve_names_the_condition_estimators():
    # solve decides every estimate of the sweep's condition column, so a
    # change of estimator edits one module of the package
    found = {path.stem: names for path in sorted(SRC.glob("*.py"))
             if (names := _estimator_names(path))}
    assert list(found) == ["solve"]


def test_estimator_scan_sees_every_spelling(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from .solve import DENSE_SVD_LIMIT, _POWER_RTOL as tol\n"
                    "import aphi.solve as s\n"
                    "n = s._POWER_MAX_ITERS\n"
                    "m = 'power-iteration' if n else \"dense-svd\"\n"
                    "'''a power iteration, named in prose only'''\n")
    assert _estimator_names(path) == ["DENSE_SVD_LIMIT", "_POWER_MAX_ITERS",
                                      "_POWER_RTOL", "dense-svd", "power-iteration"]


def _splu_calls(path: Path) -> list[str | None]:
    """The enclosing class (None at module level or in a plain function) of
    every call of splu in the module at path, by any spelling: spla.splu,
    a bare splu, an alias's attribute."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            func = child.func if isinstance(child, ast.Call) else None
            if (isinstance(func, ast.Attribute) and func.attr == "splu"
                    or isinstance(func, ast.Name) and func.id == "splu"):
                found.append(cls)
            visit(child, cls)

    visit(ast.parse(path.read_text(), str(path)), None)
    return found


def test_one_splu_call_owns_the_pivot_policy():
    # the pivot thresholds and the refactor rule live in one place: a
    # second SuperLU call would factor outside them
    found = {path.stem: classes for path in sorted(SRC.glob("*.py"))
             if (classes := _splu_calls(path))}
    assert found == {"solve": ["Factorization"]}


def test_splu_scan_sees_every_spelling(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from scipy.sparse.linalg import splu\n"
                    "import scipy.sparse.linalg as la\n"
                    "lu = splu(A)\n"
                    "class F:\n"
                    "    def f(self):\n"
                    "        return la.splu(self.A, diag_pivot_thresh=0.1)\n"
                    "def g():\n"
                    "    return [splu(B) for B in Bs]\n")
    assert _splu_calls(path) == [None, "F", None]
