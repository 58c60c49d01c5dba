"""Breadth-first walks go through core._reachable, whose queue is a deque:
no list in the package is dequeued from its front."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cubulations"


def front_pops(source: str) -> list[int]:
    """Lines of the `.pop(0)` calls in a source file."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
            and len(node.args) == 1 and not node.keywords
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == 0]


def test_package_pops_no_list_from_the_front():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 5
    found = {path.name: front_pops(path.read_text()) for path in files}
    assert not any(found.values()), {k: v for k, v in found.items() if v}


def test_front_pops_are_found():
    source = ("queue = [0]\nv = queue.pop(0)\nw = queue.pop()\n"
              "d = {}\nd.pop(0, None)\nx = stack.pop(-1)\n"
              "def f(q):\n    return q.pop(0)\n")
    assert front_pops(source) == [2, 8]
