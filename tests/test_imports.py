"""Every module of the package uses what it imports, imports no private
name from another package module, and the package exports exactly what
its ``__init__`` imports; none imports the scipy.optimize or the
scipy.sparse package, every private module-level name is read somewhere
in the package, and so is every public function or class it does not
export.

No linter ships with the toolchain, so this walks the syntax tree of
each module (the package ``__init__``, which re-exports, excepted from
the unused-import check) and fails on a name that is imported but never
read, on a ``_``-prefixed name imported from the package, on a
``_``-prefixed module-level function, class or constant that no package
module reads, or on a public module-level function or class outside
``__all__`` that no package module reads.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bellcalc

MODULES = sorted(p for p in Path(bellcalc.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


def _private_package_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    return [f"line {node.lineno}: {alias.name}" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "bellcalc")
            for alias in node.names if alias.name.startswith("_")]


def _read_names(sources: dict[str, str]) -> set[str]:
    # every name loaded and every attribute taken in any of the sources
    read = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def _unused_private_names(sources: dict[str, str]) -> list[str]:
    # module-level _-prefixed definitions (dunders aside) against every
    # name and attribute read in any of the sources
    defined = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    read = _read_names(sources)
    return [f"{module} line {line}: {name}" for module, line, name in defined if name not in read]


def _unread_public_names(sources: dict[str, str], exported) -> list[str]:
    # module-level functions and classes, neither _-prefixed nor exported,
    # against every name and attribute read in any of the sources
    read = _read_names(sources)
    return [f"{module} line {node.lineno}: {node.name}"
            for module, source in sources.items() for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in exported
            and node.name not in read]


def _package_imports(source: str, package: str) -> list[str]:
    # any import statement that would run the given package's __init__
    def runs_package(name):
        return name == package or name.startswith(package + ".")

    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"line {node.lineno}: {a.name}" for a in node.names if runs_package(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [f"line {node.lineno}: {node.module}.{a.name}" for a in node.names
                      if runs_package(f"{node.module}.{a.name}")]
    return found


def _references(source: str, name: str) -> list[str]:
    # every import, load or attribute of the given name
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {node.lineno for alias in node.names if alias.name == name}
        elif (isinstance(node, ast.Name) and node.id == name
              or isinstance(node, ast.Attribute) and node.attr == name):
            found.add(node.lineno)
    return [f"line {line}: {name}" for line in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_init_all_lists_exactly_the_imported_names():
    tree = ast.parse(Path(bellcalc.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert len(bellcalc.__all__) == len(set(bellcalc.__all__))
    assert imported == set(bellcalc.__all__)
    for name in bellcalc.__all__:
        assert getattr(bellcalc, name) is not None


def test_checker_flags_an_unused_import():
    assert _unused_imports("import os\nfrom typing import Sequence\nos.sep\n") == ["line 2: Sequence"]


@pytest.mark.parametrize("path", sorted(Path(bellcalc.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_no_private_name_from_the_package(path):
    # a helper two modules share is public in the one that defines it
    assert _private_package_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_a_private_package_import():
    source = ("from .numerics import _inv_sqrt_psd, eigh\n"
              "from bellcalc.core import _readonly\n"
              "from numpy.linalg._umath_linalg import eigh_lo as _eigh_unchecked\n"
              "from scipy.optimize._highspy._highs_wrapper import _highs_wrapper\n")
    assert _private_package_imports(source) == ["line 1: _inv_sqrt_psd", "line 2: _readonly"]


def test_package_reads_every_private_name_it_defines():
    # a private helper nothing in the package reads is dead code
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(Path(bellcalc.__file__).parent.glob("*.py"))}
    assert _unused_private_names(sources) == []


def test_checker_flags_an_unused_private_name():
    sources = {"a.py": ("_USED, _SPARE = 1, 2\n__all__ = []\n"
                        "def _helper():\n    return _USED\n"
                        "class _Gone:\n    pass\n"),
               "b.py": "import a\na._helper()\n"}
    assert _unused_private_names(sources) == ["a.py line 1: _SPARE", "a.py line 5: _Gone"]


def test_package_reads_every_public_name_it_does_not_export():
    # a public function or class outside __all__ that no package module
    # reads is reachable from no command: dead code
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(Path(bellcalc.__file__).parent.glob("*.py"))}
    assert _unread_public_names(sources, set(bellcalc.__all__)) == []


def test_checker_flags_an_unread_public_name():
    sources = {"a.py": ("def used():\n    pass\n"
                        "def exported():\n    pass\n"
                        "class Gone:\n    pass\n"
                        "def _private():\n    pass\n"
                        "SPARE = 1\n"),
               "b.py": "import a\na.used()\n"}
    assert _unread_public_names(sources, {"exported"}) == ["a.py line 5: Gone"]


def test_package_attribute_seesaw_stays_the_function():
    # the bench calls bellcalc.seesaw and its tracer reaches the module
    # through sys.modules; importing the submodule again, or running an LP,
    # must not rebind the package attribute to the module (a PEP 562 lazy
    # export would: the first import of a submodule binds it on the package)
    src = str(Path(bellcalc.__file__).resolve().parent.parent)
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    code = ("import sys\n"
            "import bellcalc\n"
            "import bellcalc.seesaw\n"
            "module = sys.modules['bellcalc.seesaw']\n"
            "print(bellcalc.seesaw is module.seesaw)\n"
            "bellcalc.max_violation(bellcalc.Behavior(bellcalc.Scenario(1, 1, 1, 1), [[[[1.0]]]]))\n"
            "print(bellcalc.seesaw is module.seesaw, callable(bellcalc.seesaw))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True", "True"]


def test_private_numpy_linalg_module_is_used_only_in_numerics():
    # numerics._eigh_unchecked is the one entry into numpy's private LAPACK
    # gufuncs; a numpy upgrade that moves them then breaks a single module
    users = sorted(p.name for p in MODULES if "_umath_linalg" in p.read_text(encoding="utf-8"))
    assert users == ["numerics.py"]


def test_private_scipy_highs_module_is_used_only_in_numerics():
    # numerics._session is the one entry into HiGHS, a session of the pybind
    # class _core._Highs of scipy's private _highspy that numerics._highs_core
    # loads; every LP is solved on one, given its rows and then its columns,
    # rather than through linprog, scipy's _highs_wrapper or a one-shot
    # passModel
    users = sorted(p.name for p in MODULES if "_highspy" in p.read_text(encoding="utf-8"))
    assert users == ["numerics.py"]
    sources = sorted(Path(bellcalc.__file__).parent.rglob("*.py"))
    for entry in ("linprog", "_highs_wrapper", "passModel"):
        assert [p.name for p in sources if entry in p.read_text(encoding="utf-8")] == []


def test_no_module_imports_the_scipy_optimize_package():
    # _highs_core loads HiGHS's extension for _session on its own; the scipy.optimize
    # package is a third of an LP command's start-up time and unused
    sources = sorted(Path(bellcalc.__file__).parent.rglob("*.py"))
    assert {p.name: _package_imports(p.read_text(encoding="utf-8"), "scipy.optimize")
            for p in sources} == {p.name: [] for p in sources}


def test_no_module_imports_scipy_sparse():
    # LP matrices are numerics.CsrMatrix arrays; scipy.sparse took half of
    # an LP command's start-up time
    sources = sorted(Path(bellcalc.__file__).parent.rglob("*.py"))
    assert {p.name: _package_imports(p.read_text(encoding="utf-8"), "scipy.sparse")
            for p in sources} == {p.name: [] for p in sources}


_SCIPY_IMPORTS = ("import scipy.optimize\n"
                  "from scipy.optimize import linprog\n"
                  "from scipy.optimize._highspy import _core\n"
                  "from scipy import optimize, sparse\n"
                  "import scipy.sparse as sp\n"
                  "from scipy.sparse import csc_matrix\n"
                  "import scipy.sparse_extra\n")


def test_checker_flags_a_scipy_optimize_import():
    assert _package_imports(_SCIPY_IMPORTS, "scipy.optimize") == [
        "line 1: scipy.optimize", "line 2: scipy.optimize.linprog",
        "line 3: scipy.optimize._highspy._core", "line 4: scipy.optimize"]


def test_checker_flags_a_scipy_sparse_import():
    assert _package_imports(_SCIPY_IMPORTS, "scipy.sparse") == [
        "line 4: scipy.sparse", "line 5: scipy.sparse", "line 6: scipy.sparse.csc_matrix"]


def test_only_numerics_refers_to_the_dual_tolerance():
    # column generation, the one place that prices columns, lives in
    # numerics: a second module that reads LP_DUAL_TOL is a second pricing rule
    sources = sorted(Path(bellcalc.__file__).parent.glob("*.py"))
    assert [p.name for p in sources if _references(p.read_text(encoding="utf-8"), "LP_DUAL_TOL")] \
        == ["numerics.py"]


def test_checker_flags_a_reference_to_a_name():
    source = ("from .numerics import LP_DUAL_TOL, best_columns\n"
              "from . import numerics\n"
              "gain > numerics.LP_DUAL_TOL\n"
              "tol = LP_DUAL_TOL_SPARE\n"
              "gain > LP_DUAL_TOL\n")
    assert _references(source, "LP_DUAL_TOL") == ["line 1: LP_DUAL_TOL", "line 3: LP_DUAL_TOL",
                                                  "line 5: LP_DUAL_TOL"]


def test_only_io_imports_json():
    # documents are written and read in io alone, in one walk each
    sources = sorted(Path(bellcalc.__file__).parent.rglob("*.py"))
    assert [p.name for p in sources if _package_imports(p.read_text(encoding="utf-8"), "json")] \
        == ["io.py"]


def test_checker_flags_a_json_import():
    source = ("import json\n"
              "from json import dumps\n"
              "import jsonschema\n"
              "from . import io as json\n"
              "import json.decoder as decoder\n")
    assert _package_imports(source, "json") == ["line 1: json", "line 2: json.dumps",
                                                "line 5: json.decoder"]
