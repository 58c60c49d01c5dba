"""Filling quadrangulated 2-spheres with cubulated 3-balls."""

import hashlib
import logging
import re
import time
from collections import Counter
from itertools import combinations

import pytest

from cubulations import fillball
from cubulations.core import (
    _reachable,
    build_complex,
    canonical,
    cube_faces,
    validate,
)
from cubulations.fileio import FormatError, dumps_complex
from cubulations.fillball import (
    FillCertificate,
    FillError,
    FillFailed,
    _cube_squares,
    _sq_edges,
    fill_ball,
    read_certificate,
    verify_filling,
    write_certificate,
)
from cubulations.sphere_builder import handlebody, sphere3
from cubulations.transforms import apply_gadget, boundary_complex, glue, \
    torus_complex


def boundary_c3():
    return build_complex(2, list(cube_faces(tuple(range(8)))))


def pillar_sphere(depth: int = 1):
    """Boundary of C^3 with `depth` nested square-to-five replacements,
    each applied to a square on the original vertices."""
    C = boundary_c3()
    for i in range(depth):
        sq = C.cells[2][0] if i == 0 else next(
            t for t in C.cells[2] if max(t) < 8)
        C = apply_gadget(C, sq, "insert_square_5")
    return C


def pinwheel_pair():
    """Two square-to-ten replacements; each is odd, together even."""
    S = boundary_c3()
    T = apply_gadget(S, S.cells[2][0], "square_10")
    return apply_gadget(T, next(t for t in T.cells[2] if max(t) < 8),
                        "square_10")


def opposite_pinwheel():
    """Two square-to-ten replacements on opposite squares of the cube."""
    S = boundary_c3()
    T = apply_gadget(S, (0, 2, 4, 6), "square_10")
    return apply_gadget(T, (1, 3, 5, 7), "square_10")


def gadget_corpus():
    """Deterministic family of even quadrangulated spheres with budgets."""
    S = boundary_c3()
    out = [("boundary_c3", S, 4000)]
    for depth in range(1, 7):
        out.append((f"tower_{depth}", pillar_sphere(depth), 4000))
    for i in range(1, 6):
        out.append((f"pillar_at_{i}",
                    apply_gadget(S, S.cells[2][i], "insert_square_5"), 4000))
    base = pillar_sphere(1)
    inner = [t for t in base.cells[2] if max(t) >= 8]
    for i in range(3):
        out.append((f"nested_{i}",
                    apply_gadget(base, inner[i], "insert_square_5"), 4000))
    two = pillar_sphere(2)
    inner2 = [t for t in two.cells[2] if max(t) >= 12]
    for i in range(2):
        out.append((f"deep_nested_{i}",
                    apply_gadget(two, inner2[i], "insert_square_5"), 4000))
    twin = pinwheel_pair()
    out.append(("pinwheel_pair", twin, 1500))
    out.append(("pinwheel_tower",
                apply_gadget(twin, twin.cells[2][-1], "insert_square_5"),
                1500))
    side = apply_gadget(base, base.cells[2][-1], "insert_square_5")
    out.append(("two_pillars", side, 4000))
    out.append(("three_pillars",
                apply_gadget(side, next(t for t in side.cells[2]
                                        if max(t) < 8), "insert_square_5"),
                4000))
    return out


@pytest.fixture(scope="module")
def structural_n11():
    """The fill requests of sphere3 at n = 11, k = 4: pillows, then the
    two 1218-square handlebody spheres."""
    report, _ = sphere3(11, k=4, structural=True)
    return report.requests


def test_cube_boundary_fills_with_one_cube():
    S = boundary_c3()
    cert = fill_ball(S)
    assert cert.n_cubes == 1
    assert cert.ball.f_vector() == (8, 12, 6, 1)
    assert cert.boundary_iso == {v: v for v in range(8)}


def test_certificate_verifies():
    S = boundary_c3()
    chk = verify_filling(fill_ball(S), S)
    assert chk
    assert chk.reason == ""
    assert chk.witness is None


def test_five_replaced_sphere_fills_small():
    S = pillar_sphere(1)
    cert = fill_ball(S)
    assert cert.n_cubes == 2
    assert cert.ball.f_vector() == (12, 20, 11, 2)
    assert cert.boundary_iso == {v: v for v in range(12)}
    assert verify_filling(cert, S)


def test_pillar_towers_fill_with_linear_cube_count():
    for depth in range(1, 7):
        S = pillar_sphere(depth)
        cert = fill_ball(S)
        assert cert.n_cubes == depth + 1
        assert verify_filling(cert, S)


def test_fill_is_deterministic():
    a = fill_ball(pillar_sphere(2))
    b = fill_ball(pillar_sphere(2))
    assert a.ball == b.ball
    assert a.boundary_iso == b.boundary_iso


def test_failure_is_deterministic():
    errs = []
    for _ in range(2):
        with pytest.raises(FillFailed) as ei:
            fill_ball(pinwheel_pair(), budget=1200)
        errs.append(ei.value)
    assert (errs[0].glued, errs[0].states, errs[0].best) == \
        (errs[1].glued, errs[1].states, errs[1].best)


def test_exhausted_search_reports_frontier():
    with pytest.raises(FillFailed) as ei:
        fill_ball(pinwheel_pair(), budget=1200)
    e = ei.value
    assert e.steps == 1200
    assert e.budget == 1200
    assert e.start == 24
    assert 0 < e.best <= e.start
    assert e.glued > 0 and e.states > e.glued // 2
    assert "never dropped below" in str(e)


def test_odd_square_count_rejected():
    S = boundary_c3()
    odd = apply_gadget(S, S.cells[2][0], "square_10")
    assert len(odd.cells[2]) == 15
    with pytest.raises(FillError, match="odd number of squares"):
        fill_ball(odd)


def test_positive_genus_rejected():
    with pytest.raises(FillError, match="genus 1"):
        fill_ball(torus_complex(2))


def test_open_surface_rejected():
    open_disk = build_complex(
        2, list(cube_faces(tuple(range(8))))[:-1])
    with pytest.raises(FillError, match="not closed"):
        fill_ball(open_disk)


def test_stray_edge_is_a_fill_error():
    # the squares alone form a closed sphere; the edge (0, 7), a diagonal
    # of the cube, lies in no square
    S = build_complex(2, [*boundary_c3().cells[2], (0, 7)])
    assert validate(S).is_complex
    with pytest.raises(FillError, match="not closed"):
        fill_ball(S)


def test_wedge_of_spheres_is_a_fill_error():
    # two cube boundaries glued at a vertex: a valid closed complex with
    # evenly many squares, whose link at the wedge point is two circles
    S = glue(boundary_c3(), boundary_c3(), {0: 0})
    assert S.f_vector() == (15, 24, 12) and validate(S).is_complex
    with pytest.raises(FillError, match="not a surface"):
        fill_ball(S)


def test_wrong_dimension_rejected():
    ball = fill_ball(boundary_c3()).ball
    with pytest.raises(FillError, match="2-complex"):
        fill_ball(ball)


def test_invalid_complex_rejected():
    C = build_complex(2, [(0, 1, 2, 3), (0, 1, 2, 4)])
    with pytest.raises(FillError, match="not a valid complex"):
        fill_ball(C)


@pytest.mark.parametrize("budget", [-1, 2.5, True, "10", None])
def test_unreachable_budget_is_a_fill_error(budget):
    # the search stops when its step count equals the budget, so any
    # other budget would run it unbounded
    with pytest.raises(FillError, match="budget"):
        fill_ball(boundary_c3(), budget=budget)


def test_zero_budget_examines_nothing():
    with pytest.raises(FillFailed) as ei:
        fill_ball(boundary_c3(), budget=0)
    assert (ei.value.steps, ei.value.glued, ei.value.best) == (0, 0, 6)


def test_verify_rejects_deleted_cube():
    S = pillar_sphere(2)
    cert = fill_ball(S)
    assert cert.n_cubes == 3
    smaller = build_complex(3, cert.ball.cells[3][:2])
    chk = verify_filling(FillCertificate(smaller, cert.boundary_iso), S)
    assert not chk
    assert chk.reason


def test_verify_rejects_twisted_boundary_map():
    S = boundary_c3()
    cert = fill_ball(S)
    twisted = dict(cert.boundary_iso)
    twisted[1], twisted[2] = 2, 1
    chk = verify_filling(FillCertificate(cert.ball, twisted), S)
    assert not chk
    assert chk.witness is not None
    assert len(chk.witness) in (2, 4)


def test_verify_rejects_wrong_homology():
    two_balls = build_complex(3, [tuple(range(8)), tuple(range(8, 16))])
    assert validate(two_balls).is_complex
    iso = {v: v for v in range(16)}
    chk = verify_filling(FillCertificate(two_balls, iso), boundary_c3())
    assert not chk
    assert "homology" in chk.reason


def test_opposite_pinwheel_is_refused_for_its_homology():
    with pytest.raises(FillError, match=re.escape(
            "ball homology (1, 0, 0, 1) differs from a ball")):
        fill_ball(opposite_pinwheel(), budget=500)


def test_verify_certifies_a_collapsible_ball_without_homology(monkeypatch):
    S = pillar_sphere(2)
    cert = fill_ball(S)

    def refuse(*args, **kwargs):
        raise AssertionError("a collapsible ball needs no Betti numbers")

    monkeypatch.setattr(fillball, "betti_numbers", refuse)
    assert verify_filling(cert, S)


def test_stuck_collapse_gives_the_same_fill_checks(monkeypatch):
    # the Betti numbers decide when the reduction proves nothing
    S = pillar_sphere(2)
    cert = fill_ball(S)
    two_balls = build_complex(3, [tuple(range(8)), tuple(range(8, 16))])
    cases = [(cert, S),
             (FillCertificate(two_balls, {v: v for v in range(16)}),
              boundary_c3())]
    before = [verify_filling(c, T) for c, T in cases]
    monkeypatch.setattr(fillball, "_reduces_to_nothing",
                        lambda C, drop=None: False)
    assert [verify_filling(c, T) for c, T in cases] == before
    assert before[0] and "homology" in before[1].reason


def test_certificate_file_round_trip(tmp_path):
    S = pillar_sphere(1)
    cert = fill_ball(S)
    path = tmp_path / "ball.cc"
    write_certificate(cert, S, path)
    back = read_certificate(path, S)
    assert back.ball == cert.ball
    assert back.boundary_iso == cert.boundary_iso
    assert verify_filling(back, S)


def test_external_certificate_verified_independently(tmp_path):
    S = boundary_c3()
    n_cells = sum(len(S.cells[k]) for k in range(3))
    lines = ["cubecomplex 3 8", "cube 3 0 1 2 3 4 5 6 7"]
    lines += [f"bmap {i} {i}" for i in range(n_cells)]
    path = tmp_path / "external.cc"
    path.write_text("\n".join(lines) + "\n")
    cert = read_certificate(path, S)
    assert cert.n_cubes == 1
    assert verify_filling(cert, S)


def test_tampered_certificate_file_rejected(tmp_path):
    S = pillar_sphere(1)
    cert = fill_ball(S)
    path = tmp_path / "ball.cc"
    write_certificate(cert, S, path)
    text = path.read_text()
    path.write_text(text.replace("bmap 3 3\n", "bmap 3 4\n"))
    with pytest.raises(FormatError, match="mapped twice"):
        read_certificate(path, S)
    path.write_text("\n".join(text.splitlines()[:-4]) + "\n")
    with pytest.raises(FormatError, match="covers"):
        read_certificate(path, S)


def test_a_line_that_only_starts_with_bmap_is_no_map_line(tmp_path):
    S = pillar_sphere(1)
    path = tmp_path / "ball.cc"
    write_certificate(fill_ball(S), S, path)
    text = path.read_text()
    path.write_text(text.replace("bmap ", "bmapx ", 1))
    with pytest.raises(FormatError, match="expected a 'cube' line, got "
                                          "'bmapx'"):
        read_certificate(path, S)


def test_certificate_map_that_misses_the_boundary_is_a_fill_error(tmp_path):
    S = boundary_c3()
    ball = fill_ball(S).ball
    short = {v: v for v in range(7)}
    with pytest.raises(FillError, match="boundary vertex 7 missing"):
        write_certificate(FillCertificate(ball, short), S, tmp_path / "a")
    twisted = {v: v for v in range(8)} | {1: 2, 2: 1}
    with pytest.raises(FillError, match=re.escape(
            "boundary cell (1, 5) maps to (2, 5), which is not a cell")):
        write_certificate(FillCertificate(ball, twisted), S, tmp_path / "b")
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


def _check_refused_through_a_file(cert, S, tmp_path, reason, witness):
    """verify_filling refuses cert, and so it does after a write and a
    read, which keep the certificate as it was."""
    chk = verify_filling(cert, S)
    assert (chk.ok, chk.reason, chk.witness) == (False, reason, witness)
    path = tmp_path / "ball.cc"
    write_certificate(cert, S, path)
    back = read_certificate(path, S)
    assert back == cert
    assert verify_filling(back, S) == chk


# a cube with a square hung on its edge (0, 1), and one with an edge hung
# on its corner 0: contractible, valid, and bounded by the cube's own
# boundary, so only their purity tells them from a ball
@pytest.mark.parametrize("extra, f", [
    ((0, 1, 8, 9), (10, 15, 7, 1)),
    ((0, 8), (9, 13, 6, 1)),
])
def test_verify_refuses_a_cube_with_a_dangling_cell(extra, f, tmp_path):
    ball = build_complex(3, [tuple(range(8)), extra])
    assert ball.f_vector() == f and validate(ball).is_complex
    cert = FillCertificate(ball, {v: v for v in range(8)})
    _check_refused_through_a_file(cert, boundary_c3(), tmp_path,
                                  "ball is not a pure 3-complex", extra)


# two cubes on one vertex, or on one edge: pure, valid and contractible,
# and their boundary is theirs, but a link there is two triangles
@pytest.mark.parametrize("second, vertex", [
    (tuple(range(7, 15)), 7),
    ((0, 1, 8, 9, 10, 11, 12, 13), 0),
])
def test_verify_refuses_two_cubes_pinched_together(second, vertex,
                                                   tmp_path):
    ball = build_complex(3, [tuple(range(8)), second])
    S = boundary_complex(ball)
    assert S.n_vertices == ball.n_vertices  # every vertex is on the rim
    cert = FillCertificate(ball, {v: v for v in range(ball.n_vertices)})
    _check_refused_through_a_file(cert, S, tmp_path,
                                  f"link of vertex {vertex} is not a disk",
                                  (vertex,))


# two cubes on a diagonal of a square of the first
DIAGONAL_PAIR = (tuple(range(8)), (0, 3, 8, 9, 10, 11, 12, 13))


@pytest.mark.parametrize("ball, iso, reason, witness", [
    (boundary_c3(), {v: v for v in range(8)},
     "ball has dimension 2, not 3", None),
    (build_complex(3, DIAGONAL_PAIR), {v: v for v in range(14)},
     "ball is not a valid complex", (*DIAGONAL_PAIR, "shared-diagonal")),
    (build_complex(3, [tuple(range(8))]), {v: v for v in range(7)},
     "boundary vertex 7 missing from the map", None),
    (build_complex(3, [tuple(range(8))]), {v: v for v in range(7)} | {7: 6},
     "boundary map is not injective on vertices", None),
    (build_complex(3, [tuple(range(8)), (2, 3, 6, 7, 8, 9, 10, 11)]),
     {v: v for v in range(12)}, "boundary has 12 vertices, sphere has 8",
     None),
])
def test_verify_refuses_a_ball_or_map_that_does_not_fit(ball, iso, reason,
                                                        witness):
    chk = verify_filling(FillCertificate(ball, iso), boundary_c3())
    assert (chk.ok, chk.reason, chk.witness) == (False, reason, witness)


# the one-cube certificate of the cube boundary, whose 26 cells are
# paired with themselves on lines 3 to 28; each case rewrites some lines
@pytest.mark.parametrize("lines, message", [
    ({3: "bmap 0 zero"}, "line 3: malformed bmap line"),
    ({3: "bmap 0"}, "line 3: malformed bmap line"),
    ({4: "bmap 1 1 1"}, "line 4: malformed bmap line"),
    ({28: "bmap 26 25"}, "bmap index pair (26, 25) out of range"),
    ({28: "bmap 25 -1"}, "bmap index pair (25, -1) out of range"),
    ({3: "bmap 0 8", 11: "bmap 8 0"},
     "bmap pair (0, 8) mixes a 0-cell with a 1-cell"),
    ({4: "bmap 1 2", 5: "bmap 2 1"},
     "bmap pair (8, 8) contradicts the vertex pairs in the same file"),
])
def test_malformed_certificate_file_is_refused(lines, message, tmp_path):
    text = ["cubecomplex 3 8", "cube 3 0 1 2 3 4 5 6 7"]
    text += [f"bmap {i} {i}" for i in range(26)]
    for ln, line in lines.items():
        text[ln - 1] = line
    path = tmp_path / "ball.cc"
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(FormatError) as ei:
        read_certificate(path, boundary_c3())
    assert (type(ei.value), str(ei.value)) == (FormatError, message)


def test_a_ball_error_names_the_line_of_the_file(tmp_path):
    # the 26 bmap lines first, then a cube one corner short, on line 28
    text = ["cubecomplex 3 8", *(f"bmap {i} {i}" for i in range(26)),
            "cube 3 0 1 2 3 4 5 6"]
    path = tmp_path / "ball.cc"
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(FormatError, match="^line 28: a 3-cube needs 8 "
                                          "corners, got 7"):
        read_certificate(path, boundary_c3())


def test_zero_growth_slack_still_fills_shrinking_instances(monkeypatch):
    monkeypatch.setattr(fillball, "GROWTH_SLACK", 0)
    S = pillar_sphere(3)
    cert = fill_ball(S)
    assert cert.n_cubes == 4
    assert verify_filling(cert, S)


def test_gadget_corpus_fills_or_fails_explicitly():
    outcomes = {}
    for name, sphere, budget in gadget_corpus():
        assert validate(sphere).is_complex, name
        assert len(sphere.cells[2]) % 2 == 0, name
        try:
            cert = fill_ball(sphere, budget=budget)
        except FillFailed as e:
            outcomes[name] = ("failed", e.best)
            continue
        chk = verify_filling(cert, sphere)
        assert chk, (name, chk.reason)
        outcomes[name] = ("filled", cert.n_cubes)
    assert len(outcomes) >= 20
    filled = sorted(n for n, (kind, _) in outcomes.items()
                    if kind == "filled")
    assert len(filled) >= 17
    # the two pinwheel spheres exceed what the bounded search explores
    assert outcomes["pinwheel_pair"][0] == "failed"


def _next_boundary_by_rebuild(state, glued, cube):
    """Boundary after gluing, or None when the move is illegal, decided by
    rebuilding the edge index of the whole next boundary and walking all
    of it. The reference for fillball's local check (_delta, _legal)."""
    faces = _cube_squares(cube)
    glued_set = set(glued)
    drop = set(glued)
    add = []
    for f in faces:
        if f in glued_set:
            continue
        if f in state:
            if f in drop:
                return None
            drop.add(f)
        else:
            if any(set(f) == set(sq) for sq in state):
                return None  # same four vertices, incompatible diagonal
            add.append(f)
    return _sphere_by_rebuild(state, drop, add)


def _faces_clash_by_sets(survivors, add):
    """Whether an added square meets a survivor or an earlier added one
    in anything but a common face, by intersecting the vertex sets of
    the squares at its vertices."""
    index = {}
    for sq in survivors:
        for v in sq:
            index.setdefault(v, []).append(sq)
    for i, f in enumerate(add):
        others = {sq for v in f for sq in index.get(v, ())}
        others.update(add[:i])
        fs = set(f)
        fe = {frozenset(e) for e in _sq_edges(f)}
        for sq in others:
            shared = fs & set(sq)
            if len(shared) < 2:
                continue
            if len(shared) != 2:
                return True
            if shared not in fe:
                return True
            if shared not in {frozenset(e) for e in _sq_edges(sq)}:
                return True
    return False


def _sphere_by_rebuild(state, drop, add):
    """state less drop plus add when it is a sphere state, else None."""
    new_state = (state - drop) | set(add)
    if not new_state:
        return new_state
    survivors = [sq for sq in new_state if sq not in set(add)]
    if _faces_clash_by_sets(survivors, add):
        return None
    at = {}
    verts = set()
    for sq in new_state:
        verts.update(sq)
        for u, w in _sq_edges(sq):
            e = (u, w) if u < w else (w, u)
            at.setdefault(e, []).append(sq)
    if any(len(sqs) != 2 for sqs in at.values()):
        return None
    if len(verts) - len(at) + len(new_state) != 2:
        return None

    def across(sq):
        return [nb for u, w in _sq_edges(sq)
                for nb in at[(u, w) if u < w else (w, u)]]

    if len(_reachable(min(new_state), across)) != len(new_state):
        return None
    return new_state


def _hand_made_moves():
    """(name, state, drop, add) on the cube boundary, each dropping at
    most two squares. No search has generated a move that only the Euler
    characteristic or only the connectivity check rejects, so these do.
    """
    cube = tuple(range(8))
    state = frozenset(canonical(f) for f in cube_faces(cube))
    bottom, top = canonical((0, 1, 2, 3)), canonical((4, 5, 6, 7))

    def faces(c):
        return [canonical(f) for f in cube_faces(c)]
    bump = [f for f in faces((0, 1, 2, 3, 14, 15, 16, 17)) if f != bottom]
    # a second cube boundary at the antipodes 0 and 7: two spheres that
    # share no edge, only two vertices, so V - E + F is still 2
    twin = faces((0, 8, 9, 10, 11, 12, 13, 7))
    # a tube from the bottom hole to the top hole through a ring of fresh
    # vertices: a torus, connected and with every edge on two squares
    ring = (0, 1, 2, 3), (8, 9, 10, 11), (4, 5, 6, 7)
    tube = [canonical((lo[a], lo[b], hi[a], hi[b]))
            for lo, hi in zip(ring, ring[1:])
            for a, b in ((0, 1), (1, 3), (3, 2), (2, 0))]
    # a torus beside the cube, dropping nothing: no edge of it is on the
    # cube, so every edge keeps two squares, and χ = 2 + 0
    beside = [tuple(v + 8 for v in sq) for sq in torus_complex(2).cells[2]]
    return [("bump", state, (bottom,), bump),
            ("pinched twin", state, (bottom,), bump + twin),
            ("torus", state, (bottom, top), tube),
            ("torus beside", state, (), beside)]


def test_local_check_matches_the_rebuild(monkeypatch):
    """Every candidate move the searches generate, and each hand-made
    move, gets the same verdict, and a legal one the same next boundary,
    from the local check as from a rebuild of the whole boundary. A
    corner candidate is checked in every frame that offers it, whether
    the frame built it or took it from its parent."""
    for name, state, drop, add in _hand_made_moves():
        want = _sphere_by_rebuild(state, set(drop), add)
        bd = fillball._Boundary(state, fillball._Pairs())
        legal = fillball._legal(bd, drop, add)
        assert legal == (want is not None) == (name == "bump"), name
    real_delta, real_corners = fillball._delta, fillball._corners
    building = []   # non-empty while _corners builds its candidates
    verdicts = Counter()
    mismatches = []

    def check(state, bd, glued, cube, move):
        want = _next_boundary_by_rebuild(state, glued, cube)
        if move is None:
            got, kind = None, "rejected early"
        else:
            drop, add = move
            legal = fillball._legal(bd, drop, add)
            got = state.difference(drop).union(add) if legal else None
            kind = "legal" if legal else "illegal"
        verdicts[kind] += 1
        if got != want:
            mismatches.append((sorted(state), glued, cube))

    def delta(bd, glued, cube):
        move = real_delta(bd, glued, cube)
        if not building:    # roofs and bumps; corners are checked below
            check(bd.squares, bd, glued, cube, move)
        return move

    def corners(bd, nid, *rest):
        building.append(nid)
        try:
            table, ranked = real_corners(bd, nid, *rest)
        finally:
            building.pop()
        for corner in table.values():
            cube, move = fillball._named(corner, nid)
            check(bd.squares, bd, corner[0], cube, move)
        return table, ranked

    monkeypatch.setattr(fillball, "_delta", delta)
    monkeypatch.setattr(fillball, "_corners", corners)
    spheres = [(S, budget) for _, S, budget in gadget_corpus()]
    spheres += [(pinwheel_pair(), 1200), (opposite_pinwheel(), 500)]
    for S, budget in spheres:
        try:
            fill_ball(S, budget=budget)
        except (FillFailed, FillError):
            pass
    assert not mismatches, mismatches[0]
    assert verdicts["legal"] > 1000 and verdicts["illegal"] > 1000, verdicts


def test_face_test_matches_set_intersections():
    """The face test read off the pair indexes gives the verdict of
    intersecting vertex sets, for every square on ten vertices added to
    the cube boundary: alone, after one of a few other added squares,
    and with the bottom square dropped. The searches never add a square
    whose only fault is an edge on a survivor's diagonal, so they alone
    would leave that case untested."""
    state = frozenset(boundary_c3().cells[2])
    bd = fillball._Boundary(state, fillball._Pairs())
    squares = [q for a, b, c, d in combinations(range(10), 4)
               for q in ((a, b, c, d), (a, b, d, c), (a, c, d, b))]
    firsts = [None, (0, 1, 8, 9), (0, 8, 9, 7), (4, 5, 8, 9), (2, 3, 8, 9)]
    verdicts = Counter()
    for dropped in (set(), {(0, 1, 2, 3)}):
        survivors = state - dropped
        for first in firsts:
            for f in squares:
                add = [f] if first is None else [first, f]
                want = _faces_clash_by_sets(survivors, add)
                assert fillball._faces_clash(bd, dropped, add) == want, \
                    (dropped, add)
                verdicts[want] += 1
    assert verdicts[True] > 1000 and verdicts[False] > 200, verdicts


def _square(a, b, c, d):
    """The square with a's neighbours b and c, and d opposite a."""
    return canonical((a, b, c, d))


def _hand_made(*squares):
    return fillball._Boundary(frozenset(squares), fillball._Pairs())


def test_corner_and_roof_cubes_refuse_the_corners_a_boundary_forces():
    """The far corners a boundary forces on a candidate cube: two
    different ones, one among the cube's other corners, or one for both
    side faces of a roof, each planted on a hand-made boundary next to
    the same squares without the fault."""
    # the corner at v = 0: A, B, C meet pairwise in the edges 0-2, 0-3,
    # 0-1; their far corners are a = 4, b = 5, c = 6
    A, B, C = _square(0, 1, 2, 4), _square(0, 2, 3, 5), _square(0, 3, 1, 6)
    on_zcb = _square(3, 6, 5, 7)    # fixes w = 7, opposite z = 3
    on_xac = _square(1, 4, 6, 8)    # fixes w = 8, opposite x = 1

    def far_corner(*more):
        """The corner cube's far corner and next fresh id, or None."""
        bd = _hand_made(A, B, C, *more)
        got = fillball._corner_cube(bd, 0, *bd.star[0], 9)
        return got and (sorted(got[0][:7]), got[0][7], got[1])

    seven = [0, 1, 2, 3, 4, 5, 6]
    assert far_corner() == (seven, 9, 10)                  # w fresh
    assert far_corner(on_zcb) == (seven, 7, 9)
    assert far_corner(on_xac) == (seven, 8, 9)
    assert far_corner(on_zcb, on_xac) is None              # w = 7 and 8
    assert far_corner(_square(3, 6, 5, 4)) is None         # w = a = 4

    # the roof on the edge 0-1: A = (0, 1, 2, 3), B = (0, 1, 4, 5)
    A, B = _square(0, 1, 2, 3), _square(0, 1, 4, 5)
    side_p = _square(0, 2, 4, 6)    # fixes w1 = 6, opposite p = 0
    side_q = _square(1, 3, 5, 6)    # fixes w2 = 6, opposite q = 1

    def roof(*more):
        return fillball._roof_cube(_hand_made(A, B, *more), (0, 1), A, B, 7)

    assert roof() == ((0, 1, 2, 3, 4, 5, 7, 8), 9)
    assert roof(side_p) == ((0, 1, 2, 3, 4, 5, 6, 7), 8)
    assert roof(side_q) == ((0, 1, 2, 3, 4, 5, 7, 6), 8)
    assert roof(side_p, side_q) is None                    # w1 = w2 = 6


def _moves_by_rebuild(state, nid, cap):
    """The reference move generation: the state indexed afresh, every
    corner candidate built, and each move's legality decided by a
    rebuild of the whole next boundary. Returns the ranked corner
    candidates as (cube, next fresh id, split), and the legal moves in
    order as (cube, next boundary, next fresh id)."""
    bd = fillball._Boundary(state, fillball._Pairs())

    def size(move):
        return len(state) - len(move[0]) + len(move[1])

    def offer(glued, cube):
        move = fillball._delta(bd, glued, cube)
        return move if move is not None and size(move) <= cap else None

    corners = []
    for v in sorted(bd.star):
        st = bd.star[v]
        if len(st) != 3:
            continue
        got = fillball._corner_cube(bd, v, *st, nid)
        if got is not None:
            cube, nid2 = got
            move = offer(tuple(st), cube)
            if move is not None:
                corners.append(((nid2 - nid, size(move), cube), nid2, move))
    corners.sort(key=lambda c: c[0])
    ranked = [(key[2], nid2, move) for key, nid2, move in corners]
    roofs = []
    for e in sorted(bd.at_edge):
        A, B = bd.at_edge[e]
        got = fillball._roof_cube(bd, e, A, B, nid)
        if got is not None:
            roofs.append(((got[1] - nid, got[0]), got[0], got[1], (A, B)))
    roofs.sort(key=lambda r: r[0])
    tries = list(ranked)
    tries += [(cube, nid2, offer(glued, cube))
              for _, cube, nid2, glued in roofs]
    if len(state) + 4 <= cap:
        for A in sorted(state):
            cube, nid2 = fillball._bump_cube(A, nid)
            tries.append((cube, nid2, offer((A,), cube)))
    moves = []
    for cube, nid2, move in tries:
        if move is None:
            continue
        drop, add = move
        nxt = _sphere_by_rebuild(state, set(drop), add)
        if nxt is not None:
            moves.append((cube, frozenset(nxt), nid2))
    return ranked, moves


def _index(bd):
    return bd.squares, bd.star, bd.at_edge, bd.at_diag


def test_frames_match_a_fresh_generation(monkeypatch):
    """Every frame of the corpus searches, each reached by a glued move
    but the first: its index, derived from its parent's, equals a fresh
    index, list order included; its ranked corner candidates, reused or
    built, equal those of a fresh generation; and it yields the moves a
    fresh generation finds legal, in the same order."""
    real = fillball._moves
    tallies = []
    frames = Counter()

    def moves(bd, nid, cap, corners, tally):
        if tally not in tallies:
            tallies.append(tally)
        state = bd.squares
        assert _index(bd) == _index(fillball._Boundary(state,
                                                       fillball._Pairs()))
        ranked, want = _moves_by_rebuild(state, nid, cap)
        got = []
        for corner in corners:
            cube, move = fillball._named(corner, nid)
            got.append((cube, nid + corner[2], move))
        assert got == ranked
        frames["checked"] += 1
        n = 0
        for mv in real(bd, nid, cap, corners, tally):
            _, cube, _, _, nxt, nid2 = mv
            assert (cube, nxt, nid2) == want[n]
            n += 1
            yield mv
        assert n == len(want)
        frames["exhausted"] += 1

    monkeypatch.setattr(fillball, "_moves", moves)
    for _, S, budget in gadget_corpus():
        try:
            fill_ball(S, budget=budget)
        except FillFailed:
            pass
    assert frames["checked"] > 500 and frames["exhausted"] > 30, frames
    assert sum(t.reused for t in tallies) > 1000


# What the search found on these spheres, pinned: a change to how it
# works must offer, check and take the same moves, so none of it moves.
# Handlebody spheres of torus_complex(2) by curve: the sha256 of the
# ball's serialization, and (steps, glued, states, candidates generated,
# fully checked).
HANDLEBODY_FILLS = {
    (0, 1, 2, 3): ("0f3e6532277232a51ad1dda2ff0484603ccf6b158ee9d3e21579f29"
                   "daa94b39e", (206, 32, 33, 389, 268)),
    (0, 4, 8, 12): ("1af4ab5f7ecf16b5f3a31453a45bc270fd5a42da39e4f567df727fc"
                    "974e135a8", (511, 134, 135, 1723, 1194)),
}
# The same fills' certificate files, as write_certificate writes them:
# their sha256, so the boundary read keeps every bmap line where it was.
HANDLEBODY_CERTIFICATES = {
    (0, 1, 2, 3): "15d9c466e251e3c79b3a3999d889f0c482db6aae787df4c366577f7"
                  "d73eaacc2",
    (0, 4, 8, 12): "66d472d321aaf849ccd75d60adf20ce077d8c783fad25c556d50bc3"
                   "f703036ed",
}
# sphere3(11, 4) fill requests at budget 800: FillFailed's (steps, glued,
# states, best), then candidates generated and fully checked
PILLOW_FAILURES = {
    0: ((800, 130, 131, 20), (2629, 2180)),
    26: ((800, 130, 131, 20), (2628, 2180)),
    41: ((800, 82, 83, 24), (2320, 2038)),
}


def test_search_outcomes_are_pinned(caplog, structural_n11):
    torus = torus_complex(2)
    with caplog.at_level(logging.DEBUG, logger="cubulations.fillball"):
        for curve, (digest, counts) in HANDLEBODY_FILLS.items():
            caplog.clear()
            cert = fill_ball(handlebody(torus, [curve]).sphere)
            got = hashlib.sha256(dumps_complex(cert.ball).encode())
            assert got.hexdigest() == digest, curve
            rec = RECORD.match(caplog.records[-1].getMessage())
            assert tuple(map(int, rec.groups()[2:7])) == counts, curve
        for i, (failure, counts) in PILLOW_FAILURES.items():
            with pytest.raises(FillFailed) as ei:
                fill_ball(structural_n11[i].sphere, budget=800)
            e = ei.value
            assert (e.steps, e.glued, e.states, e.best) == failure, i
            rec = RECORD.match(caplog.records[-1].getMessage())
            assert tuple(map(int, rec.groups()[5:7])) == counts, i


def test_handlebody_certificates_are_pinned(tmp_path):
    torus = torus_complex(2)
    for curve, digest in HANDLEBODY_CERTIFICATES.items():
        S = handlebody(torus, [curve]).sphere
        cert = fill_ball(S)
        path = tmp_path / "ball.cert"
        write_certificate(cert, S, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, curve
        assert read_certificate(path, S) == cert


def test_cube_squares_match_canonical(monkeypatch):
    """The closed form of a built cube's squares equals the generic
    canonical form, on every cube the searches build."""
    real = fillball._cube_squares
    cubes = set()

    def squares(cube):
        cubes.add(cube)
        return real(cube)

    monkeypatch.setattr(fillball, "_cube_squares", squares)
    spheres = [(S, budget) for _, S, budget in gadget_corpus()]
    for S, budget in spheres + [(pinwheel_pair(), 1200)]:
        try:
            fill_ball(S, budget=budget)
        except (FillFailed, FillError):
            pass
    assert len(cubes) > 1000, len(cubes)
    for cube in cubes:
        want = [canonical(tuple(cube[i] for i in range(8)
                                if (i >> j) & 1 == side))
                for j in range(3) for side in (0, 1)]
        assert real(cube) == want, cube


def test_handlebody_sphere_search_stays_local(structural_n11):
    """A search on a 1218-square sphere costs per step what its moves
    touch, not a copy and a walk of the whole boundary per candidate."""
    S = structural_n11[42].sphere
    assert len(S.cells[2]) == 1218
    start = time.perf_counter()
    with pytest.raises(FillFailed) as ei:
        fill_ball(S, budget=25)
    elapsed = time.perf_counter() - start
    e = ei.value
    assert (e.steps, e.glued, e.states, e.best) == (25, 25, 26, 1118)
    assert elapsed < 60


RECORD = re.compile(
    r"fill_ball: (\w+); (\d+) squares in, (\d+) steps, (\d+) glued cubes, "
    r"(\d+) states, (\d+) candidates generated, (\d+) fully checked; "
    r"steps (\d+) corner, (\d+) roof, (\d+) bump; pruned (\d+) visited, "
    r"(\d+) collision; candidates (\d+) built, (\d+) reused; "
    r"\d+\.\d{3} s$")


def test_fill_ball_logs_one_debug_record(caplog):
    with caplog.at_level(logging.DEBUG, logger="cubulations.fillball"):
        cert = fill_ball(pillar_sphere(1))
        with pytest.raises(FillFailed) as ei:
            fill_ball(pinwheel_pair(), budget=50)
        with pytest.raises(FillError):
            fill_ball(torus_complex(2))
    records = [r for r in caplog.records if r.name == "cubulations.fillball"]
    assert len(records) == 3
    got = [RECORD.match(r.getMessage()) for r in records]
    assert all(got), [r.getMessage() for r in records]
    filled, failed, rejected = (m.groups() for m in got)
    assert filled[:2] == ("filled", "10")
    assert int(filled[3]) == cert.n_cubes
    e = ei.value
    assert failed[:6] == ("FillFailed", "24", "50", str(e.glued),
                          str(e.states), failed[5])
    assert rejected[:3] == ("FillError", "16", "0")
    assert all(int(n) == 0 for n in rejected[7:])
    for rec in (filled, failed):
        steps, glued, _, generated, checked = map(int, rec[2:7])
        corner, roof, bump, visited, collision, built, reused = \
            map(int, rec[7:])
        assert generated >= checked >= steps > 0
        assert corner + roof + bump == steps
        assert glued + visited + collision == steps
        assert built + reused == generated
    assert int(failed[-1]) > 0      # later frames take corners from earlier
