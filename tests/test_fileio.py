"""Text serialization round-trips."""

import pytest

from cubulations.core import build_complex, cube_faces
from cubulations.fileio import (
    FormatError,
    dumps_complex,
    loads_complex,
)
from cubulations.transforms import apply_gadget, torus_complex


def boundary_c3():
    return build_complex(2, list(cube_faces(tuple(range(8)))))


def samples():
    S = boundary_c3()
    return [
        S,
        torus_complex(2),
        apply_gadget(S, S.cells[2][0], "insert_square_5"),
        build_complex(3, [tuple(range(8))]),
        build_complex(2, [(0, 1, 2, 3), (4, 5)]),  # mixed-dim maximal cells
        build_complex(0, [(0,), (1,), (2,)]),
    ]


def test_text_round_trip_is_exact():
    for C in samples():
        text = dumps_complex(C)
        assert loads_complex(text) == C
        assert dumps_complex(loads_complex(text)) == text


def test_header_shape():
    S = boundary_c3()
    first = dumps_complex(S).splitlines()[0]
    assert first == "cubecomplex 2 8"
    assert dumps_complex(S).count("cube 2 ") == 6


def test_comments_and_blank_lines_ignored():
    S = boundary_c3()
    body = dumps_complex(S).splitlines()
    noisy = ["# header to ignore", "", body[0] + "  # trailing",
             "   "] + body[1:]
    assert loads_complex("\n".join(noisy)) == S


def test_malformed_inputs_rejected():
    with pytest.raises(FormatError, match="empty"):
        loads_complex("# nothing here\n")
    with pytest.raises(FormatError, match="cubecomplex"):
        loads_complex("complex 2 8\n")
    with pytest.raises(FormatError, match="integers"):
        loads_complex("cubecomplex two 8\n")
    with pytest.raises(FormatError, match="cube"):
        loads_complex("cubecomplex 2 4\nsquare 0 1 2 3\n")
    with pytest.raises(FormatError, match="needs 4 corners"):
        loads_complex("cubecomplex 2 4\ncube 2 0 1 2\n")
    with pytest.raises(FormatError, match="malformed"):
        loads_complex("cubecomplex 2 4\ncube 2 0 1 2 x\n")
    with pytest.raises(FormatError):  # ids not dense
        loads_complex("cubecomplex 2 9\ncube 2 0 1 2 3\n")


@pytest.mark.parametrize("text, message", [
    ("cubecomplex 2 4\ncube -1 0\n", "line 2: cube dimension -1 out of "
     "range 0..2"),
    ("cubecomplex 2 4\ncube 100000000 0\n", "line 2: cube dimension "
     "100000000 out of range 0..2"),
    ("cubecomplex -1 0\n", "line 1: dimension and vertex count must not "
     "be negative"),
    ("cubecomplex 2 -3\ncube 2 0 1 2 3\n", "line 1: dimension and vertex "
     "count must not be negative"),
], ids=["negative-cube", "huge-cube", "negative-dimension",
        "negative-vertex-count"])
def test_out_of_range_numbers_are_format_errors(text, message):
    with pytest.raises(FormatError) as ei:
        loads_complex(text)
    assert (type(ei.value), str(ei.value)) == (FormatError, message)
