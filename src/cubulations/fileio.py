"""Plain-text serialization of cube complexes, to and from strings:
dumps_complex writes the text and loads_complex reads it, and a caller
that keeps a complex in a file reads or writes the text itself.

The text format has one header line and one line per maximal cell:

    cubecomplex <dim> <n_vertices>
    cube <k> <v_0> ... <v_{2^k-1}>

Corners are listed in bitmask order: corner i differs from corner
i ^ (1 << j) exactly in axis j. Everything from `#` to the end of a
line is a comment, blank lines are skipped. The writer emits maximal
cells in canonical order by ascending dimension, so writing, reading
and writing again reproduces the file byte for byte; reading what the
writer produced reproduces the complex exactly.
"""

from __future__ import annotations

from .core import CubeComplex, CubeComplexError, build_complex

__all__ = [
    "FormatError",
    "dumps_complex",
    "loads_complex",
]


class FormatError(CubeComplexError):
    """A serialized complex that does not parse."""


def dumps_complex(C: CubeComplex) -> str:
    lines = [f"cubecomplex {C.dim} {C.n_vertices}"]
    maximal = C.maximal_cells()
    for k in sorted(maximal):
        for cell in maximal[k]:
            lines.append(f"cube {k} " + " ".join(map(str, cell)))
    return "\n".join(lines) + "\n"


def _content_lines(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line.split()))
    return out


def loads_complex(text: str) -> CubeComplex:
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty input, expected a cubecomplex header")
    ln, head = lines[0]
    if head[0] != "cubecomplex" or len(head) != 3:
        raise FormatError(f"line {ln}: expected 'cubecomplex <dim> "
                          f"<n_vertices>', got {' '.join(head)!r}")
    try:
        dim, n_vertices = int(head[1]), int(head[2])
    except ValueError:
        raise FormatError(f"line {ln}: dimension and vertex count must be "
                          "integers") from None
    if dim < 0 or n_vertices < 0:
        raise FormatError(f"line {ln}: dimension and vertex count must not "
                          "be negative")
    tops: list[tuple[int, ...]] = []
    for ln, parts in lines[1:]:
        if parts[0] != "cube":
            raise FormatError(f"line {ln}: expected a 'cube' line, got "
                              f"{parts[0]!r}")
        try:
            k = int(parts[1])
            corners = tuple(int(p) for p in parts[2:])
        except (IndexError, ValueError):
            raise FormatError(f"line {ln}: malformed cube line") from None
        if not 0 <= k <= dim:
            raise FormatError(f"line {ln}: cube dimension {k} out of "
                              f"range 0..{dim}")
        if len(corners) != 1 << k:
            raise FormatError(f"line {ln}: a {k}-cube needs {1 << k} "
                              f"corners, got {len(corners)}")
        tops.append(corners)
    try:
        return build_complex(dim, tops, n_vertices=n_vertices)
    except CubeComplexError as e:
        raise FormatError(str(e)) from e
