"""Spans around the public functions of ``cubulations``, recorded from outside.

The tracer wraps each function listed in ``spec.TRACED_FUNCTIONS`` once and
installs the wrapper on every attribute of every loaded ``cubulations``
module whose value is that very function, so names bound by ``from .core
import validate`` and aliases such as ``sphere_builder._remove_facet`` are
traced too.  No source file is touched; ``restore`` puts every original
back.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import NamedTuple, Sequence

from .spec import TRACED_FUNCTIONS

PACKAGE = "cubulations"


class Span(NamedTuple):
    id: int
    parent: int          # -1 for a span opened outside any traced call
    name: str            # "<module>.<function>"
    start: float
    end: float
    outer: bool          # no span of the same function is open around it
    error: str | None    # exception class name when the call raised
    steps: int | None    # the exception's `steps`, as FillFailed carries


class Tracer:
    """Context manager: install wrappers on the functions listed in
    spec.TRACED_FUNCTIONS on enter, restore the originals on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            depth[name] = depth.get(name, 0) + 1
            error = steps = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                steps = getattr(exc, "steps", None)
                raise
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                spans.append(Span(sid, parent, name, start, end,
                                  depth[name] == 0, error, steps))
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, tuple[object, object]] = {}
        for module, names in TRACED_FUNCTIONS.items():
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            for fn_name in names:
                fn = getattr(mod, fn_name)
                wrappers[id(fn)] = (fn, self._wrap(f"{module}.{fn_name}", fn))
        prefix = PACKAGE + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def restore(self) -> None:
        while self._patched:
            mod, attr, value = self._patched.pop()
            setattr(mod, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def dump(self, path: Path, origin: float, **meta) -> None:
        """Write the spans as JSON, times in seconds from `origin`."""
        rows = [[s.id, s.parent, s.name, s.start - origin, s.end - origin,
                 s.error, s.steps] for s in sorted(self.spans)]
        doc = dict(meta, columns=["id", "parent", "name", "start", "end",
                                  "error", "steps"], spans=rows)
        path.write_text(json.dumps(doc))


def summarize(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """Per function: calls, busy time and self time.

    Busy time counts only the outermost span of a function, so recursion is
    not counted twice; self time is that span's duration minus the time of
    its direct child spans.
    """
    child: dict[int, float] = {}
    for s in spans:
        if s.parent >= 0:
            child[s.parent] = child.get(s.parent, 0.0) + (s.end - s.start)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        agg = out.setdefault(s.name, {"calls": 0, "busy_s": 0.0,
                                      "self_s": 0.0})
        agg["calls"] += 1
        dur = s.end - s.start
        if s.outer:
            agg["busy_s"] += dur
        agg["self_s"] += dur - child.get(s.id, 0.0)
    return out
