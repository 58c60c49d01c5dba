"""The package runs on the standard library alone, imports only what it
uses, calls every private helper it defines, keeps every function the
benchmark's tracer wraps, adds no defaulted parameter or field, and leaves
validate's reports and the incidence index to core."""

import ast
import importlib
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cubulations"


def foreign_imports(source: str) -> list[str]:
    """Modules a source file imports from outside the standard library
    and the package itself; relative imports are the package's."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "cubulations" and top not in sys.stdlib_module_names:
                out.append(name)
    return out


def test_no_runtime_dependency_is_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


def test_package_imports_only_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 5
    found = {path.name: foreign_imports(path.read_text()) for path in files}
    assert not any(found.values()), {k: v for k, v in found.items() if v}


def test_foreign_imports_are_found():
    source = ("from __future__ import annotations\nimport logging\n"
              "from . import core\n"
              "from cubulations.core import build_complex\n"
              "import numpy as np\nfrom scipy.sparse import csr_matrix\n"
              "def f():\n    import networkx\n")
    assert foreign_imports(source) == ["numpy", "scipy.sparse", "networkx"]


def unused_imports(source: str) -> list[str]:
    """Names a source file imports but neither uses nor lists in its
    __all__. Names in string annotations count as used."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names
                         if alias.name != "*"]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
        # an argument's or assignment's annotation, or a return annotation
        note = getattr(node, "annotation", None) or getattr(node, "returns",
                                                            None)
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            used.update(n.id for n in ast.walk(ast.parse(note.value))
                        if isinstance(n, ast.Name))
    return [name for name in imported if name not in used]


def test_package_imports_only_what_it_uses():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 5
    found = {path.name: unused_imports(path.read_text()) for path in files}
    assert not any(found.values()), {k: v for k, v in found.items() if v}


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport json\n"
              "import os.path\nfrom . import core\n"
              "from .core import Cube, build_complex as _build, validate\n"
              "from .fileio import FormatError\n"
              "__all__ = ['FormatError']\n"
              "def f(x: 'Cube | None') -> int:\n"
              "    return _build(core.dim)\n")
    assert unused_imports(source) == ["json", "os", "validate"]


def traced_functions() -> dict[str, tuple[str, ...]]:
    """TRACED_FUNCTIONS of perfbench/spec.py, read without importing it:
    package module -> the names the tracer wraps there."""
    tree = ast.parse((ROOT / "perfbench" / "spec.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED_FUNCTIONS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spec.py defines no TRACED_FUNCTIONS")


def test_every_traced_function_exists():
    traced = traced_functions()
    assert "core" in traced and "validate" in traced["core"]
    missing = [f"{module}.{name}" for module, names in traced.items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"cubulations.{module}"), name, None))]
    assert not missing, missing


def orphan_helpers(sources: dict[str, str]) -> list[str]:
    """The module-level functions and classes named _name, in sources
    (module name -> source), that no source names anywhere but inside
    their own definition, as module.name."""
    def names(tree):
        return Counter(node.id if isinstance(node, ast.Name) else node.attr
                       for node in ast.walk(tree)
                       if isinstance(node, (ast.Name, ast.Attribute)))

    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum(map(names, trees.values()), Counter())
    return [f"{module}.{node.name}" for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and everywhere[node.name] == names(node)[node.name]]


def test_every_private_helper_has_a_caller():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 5
    found = orphan_helpers({path.stem: path.read_text() for path in files})
    assert not found, found


def test_orphan_helpers_are_found():
    sources = {
        "a": ("class _Used:\n    pass\n"
              "def _orphan(x):\n    return _orphan(x - 1) if x else _Used\n"
              "def _called():\n    return 1\n"
              "def public():\n    return 0\n"),
        "b": ("from . import a\nfrom .a import _called\n"
              "def _lone():\n    pass\n"
              "def f():\n    return _called() + a._Used.__name__\n"),
    }
    assert orphan_helpers(sources) == ["a._orphan", "b._lone"]


def defaulted_knobs(sources: dict[str, str]) -> list[str]:
    """The parameters with a default of the public functions of sources
    (module name -> source), of the public methods and __init__ of their
    public classes, and the fields with a default of their public
    dataclasses, as module.name.parameter."""
    def defaulted(fn: ast.FunctionDef, owner: str) -> list[str]:
        args = fn.args
        positional = args.posonlyargs + args.args
        named = positional[len(positional) - len(args.defaults):] + [
            a for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
        return [f"{owner}.{a.arg}" for a in named]

    def is_dataclass(node: ast.ClassDef) -> bool:
        return any(isinstance(d, ast.Name) and d.id == "dataclass"
                   or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
                   and d.func.id == "dataclass"
                   for d in node.decorator_list)

    out = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            owner = f"{module}.{node.name}"
            if isinstance(node, ast.FunctionDef):
                out += defaulted(node, owner)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and (
                            not item.name.startswith("_")
                            or item.name == "__init__"):
                        out += defaulted(item, f"{owner}.{item.name}")
                    elif is_dataclass(node) and isinstance(
                            item, ast.AnnAssign) and item.value is not None:
                        out.append(f"{owner}.{item.target.id}")
    return out


# Parameters and dataclass fields with a default on the package's public
# names. A default is a knob, a second way to call a function, so the
# count may fall, and this bound with it, but it may not rise.
MAX_DEFAULTED_KNOBS = 14


def test_no_new_defaulted_knob():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 5
    found = defaulted_knobs({path.stem: path.read_text() for path in files})
    assert len(found) <= MAX_DEFAULTED_KNOBS, found


def test_defaulted_knobs_are_found():
    sources = {
        "a": ("from dataclasses import dataclass\n"
              "def public(x, y=1, *, z=2, w):\n    pass\n"
              "def _private(x=1):\n    pass\n"
              "@dataclass(frozen=True)\nclass Report:\n"
              "    ok: bool\n    reason: str = ''\n"
              "    def shown(self, width=80):\n        pass\n"
              "    def _inner(self, depth=3):\n        pass\n"
              "class Plain:\n    limit: int = 5\n"
              "    def __init__(self, n=0):\n        pass\n"
              "@dataclass\nclass _Hidden:\n    n: int = 0\n"),
        "b": "def f(a, /, b=2):\n    pass\nclass _C:\n    def g(self, k=1):\n"
             "        pass\n",
    }
    assert defaulted_knobs(sources) == [
        "a.public.y", "a.public.z", "a.Report.reason", "a.Report.shown.width",
        "a.Plain.__init__.n", "b.f.b"]


# Names that belong to core, and the functions outside core that may use
# each: a validate report is turned into an error by core alone, except
# where fillball words a sphere's defect and a filling's witness, and only
# core builds a complex's incidence index or hands one over.
CORE_ONLY = {
    "is_complex": ("fillball._sphere_defect", "fillball.verify_filling"),
    "violations": ("fillball.verify_filling",),
    "Incidence": (),
    "_incidence": (),
}


def core_names_outside_core(sources: dict[str, str]) -> list[str]:
    """Each use of a CORE_ONLY name (as a name, an attribute or an import)
    in sources (module name -> source) other than core, outside the
    functions allowed it, as where.name, sorted: where is module.function
    for a use inside a module-level function or class, else the module."""
    out = []
    for module, source in sources.items():
        if module == "core":
            continue
        for top in ast.parse(source).body:
            where = f"{module}.{top.name}" if isinstance(
                top, (ast.FunctionDef, ast.ClassDef)) else module
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if where not in CORE_ONLY.get(name, (where,)):
                    out.append(f"{where}.{name}")
    return sorted(out)


def test_reports_and_the_index_stay_in_core():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 5
    found = core_names_outside_core(
        {path.stem: path.read_text() for path in files})
    assert not found, found


def test_core_names_outside_core_are_found():
    sources = {
        "core": ("class Incidence:\n    pass\n"
                 "def f(C):\n    C._incidence = Incidence()\n"
                 "    return validate(C).violations\n"),
        "fillball": ("from .core import validate\n"
                     "def _sphere_defect(S):\n"
                     "    return validate(S).is_complex\n"
                     "def verify_filling(B):\n"
                     "    rep = validate(B)\n"
                     "    return rep.is_complex, rep.violations\n"
                     "def fill_ball(S):\n    return validate(S).violations\n"),
        "transforms": ("from .core import Incidence, validate\n"
                       "def glue(A):\n    rep = validate(A)\n"
                       "    if not rep.is_complex:\n        raise ValueError\n"
                       "    A._incidence = None\n    return A\n"),
    }
    assert core_names_outside_core(sources) == [
        "fillball.fill_ball.violations", "transforms.Incidence",
        "transforms.glue._incidence", "transforms.glue.is_complex"]
