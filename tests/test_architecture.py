"""Module boundaries inside the aphi package, read from the source."""
import ast
from pathlib import Path

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
