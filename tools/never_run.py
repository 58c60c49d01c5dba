"""List the lines of the cubulations package that a test run never executes.

    python3 tools/never_run.py tests/test_fillball.py tests/test_core.py
    python3 tools/never_run.py -q            # the whole suite, ≈4× its time

Run from the root of a source checkout. The arguments go to pytest, which
runs in this process under a sys.settrace hook that traces frames of
src/cubulations only. A line is executable when some code object compiled
from the file maps bytecode to it (co_lines). Each never-run line is named
under the innermost function or class whose code holds it, then each file
gets one count, "<file>: <never run> of <executable> lines never run", and
the last line is the package's, "package: <never run> of <executable>
lines never run". The package must not be imported before the hook is
set, or its module-level lines read as never run; so nothing here imports
it. Uses the standard library only; pytest is the suite's own runner.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cubulations"


def _code_lines(code: CodeType, qualname: str,
                owner: dict[int, str]) -> None:
    """Map each line that code or a code object nested in it holds to the
    innermost one's name; nested ones are visited last, so they win. A
    comprehension or generator expression keeps the name of its function."""
    for _, _, line in code.co_lines():
        if line is not None:
            owner[line] = qualname
    for const in code.co_consts:
        if isinstance(const, CodeType):
            inner = qualname if const.co_name in (
                "<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>") \
                else const.co_qualname
            _code_lines(const, inner, owner)


def executable_lines(path: Path) -> dict[int, str]:
    """Line -> name of the innermost function or class holding it, for
    every line of the file that has bytecode; "<module>" for the rest."""
    owner: dict[int, str] = {}
    _code_lines(compile(path.read_text(), str(path), "exec"), "<module>",
                owner)
    return owner


def traced_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with the hook set; its exit code, and per package file
    the lines that ran."""
    import pytest

    prefix = str(PACKAGE) + "/"
    hit: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def enter(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hit.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(enter)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return int(code), hit


def report(hit: dict[str, set[int]]) -> list[str]:
    """Per package file, its never-run lines by function, then its count;
    last the package's count."""
    out = []
    never = lines_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        owner = executable_lines(path)
        ran = hit.get(str(path), set())
        missed: dict[str, list[int]] = {}
        for line in sorted(owner):
            if line not in ran:
                missed.setdefault(owner[line], []).append(line)
        for name, lines in missed.items():
            out.append(f"{path.name}:{name}: {len(lines)} never run: "
                       + ", ".join(map(str, lines)))
        count = sum(map(len, missed.values()))
        out.append(f"{path.name}: {count} of {len(owner)} lines never run")
        never += count
        lines_total += len(owner)
    out.append(f"package: {never} of {lines_total} lines never run")
    return out


def main(argv: list[str]) -> int:
    code, hit = traced_run(argv)
    print("\n".join(report(hit)))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
