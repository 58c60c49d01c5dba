"""The package runs on the standard library alone."""

import ast
import sys
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
