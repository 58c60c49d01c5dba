"""Sphere assembly: refining cylinders, handlebodies, the pipeline, doubling."""

import hashlib
import logging
import random
import re
import time
from types import SimpleNamespace
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from cubulations.core import (
    CubeComplex,
    CubeComplexError,
    ValidationReport,
    build_complex,
    cube_faces,
    manifold_check,
    pseudomanifold_check,
    validate,
)
from cubulations.topology import betti_numbers, surface_invariants
from cubulations.transforms import (
    GlueError,
    boundary_complex,
    cartesian_product,
    glue,
    interval_complex,
    remove_facet,
    torus_complex,
)
from cubulations import basis, core, fillball, sphere_builder, topology, \
    transforms
from cubulations.basis import (
    BasisError,
    RegularNeighborhoodCert,
    canonical_basis,
    refine_report,
    regularize_with_chains,
)
from cubulations.fileio import dumps_complex
from cubulations.fillball import FillFailed
from cubulations.surface_gen import build_graph, cubulate_cycles, \
    split_paths, surface_report, trace_cycles
from test_basis import _double_torus
from test_core import assert_checks_match_the_oracles
from test_fillball import opposite_pinwheel
from test_topology import (
    betti_over,
    dunce_hat,
    klein_4x4,
    relabel,
    sphere_wedge,
    torus_4x4,
)
from cubulations.sphere_builder import (
    AssemblyError,
    FillRequest,
    StructuralReport,
    _disk_cells,
    _patch_map,
    _quotient_ids,
    _wheel,
    assemble_sphere3,
    check_fill_request,
    handlebody,
    induct_dimension,
    refining_cylinder,
    sphere3,
    sphere_d,
)


def boundary_c3():
    return build_complex(2, list(cube_faces(tuple(range(8)))))


def boundary_c4():
    return build_complex(3, list(cube_faces(tuple(range(16)))))


TORUS_MERIDIAN = (0, 1, 2, 3)
TORUS_LONGITUDE = (0, 4, 8, 12)


def _balls(requests):
    return [fillball.fill_ball(req.sphere).ball for req in requests]


def _closed_cylinder(Q, cyl):
    """The refining cylinder, closed from the balls that fill its
    pillows, as assemble_sphere3 closes it."""
    return sphere_builder._close_cylinder(Q, cyl, _balls(cyl.requests))


def _closed_handlebody(Qpp, hb):
    """The handlebody and its boundary map, closed from the ball that
    fills its sphere, as assemble_sphere3 closes it."""
    return sphere_builder._close_handlebody(Qpp, hb, *_balls(hb.requests))


@pytest.fixture(scope="module")
def toy_pieces():
    """Trivial-refinement pipeline over the cube boundary."""
    Q = boundary_c3()
    cyl = refining_cylinder(Q, Q)
    hb = handlebody(Q, [])
    return Q, cyl, hb


@pytest.fixture(scope="module")
def toy_closed(toy_pieces):
    """The toy cylinder and the ball, closed."""
    Q, cyl, hb = toy_pieces
    return _closed_cylinder(Q, cyl), _closed_handlebody(Q, hb)


@pytest.fixture(scope="module")
def heegaard_pieces():
    """Genus-one splitting: torus cylinder capped by two solid tori."""
    T = torus_complex(2)
    cyl = refining_cylinder(T, T)
    hbA = handlebody(T, [TORUS_MERIDIAN])
    hbB = handlebody(T, [TORUS_LONGITUDE])
    return T, cyl, hbA, hbB


@pytest.fixture(scope="module")
def heegaard_closed(heegaard_pieces):
    """The torus cylinder and the two solid tori with their boundary
    maps, closed."""
    T, cyl, hbA, hbB = heegaard_pieces
    return _closed_cylinder(T, cyl), _closed_handlebody(T, hbA), \
        _closed_handlebody(T, hbB)


@pytest.fixture(scope="module")
def heegaard_s3(heegaard_pieces):
    """The genus-one Heegaard S^3 that the climb workload doubles."""
    T, cyl, hbA, hbB = heegaard_pieces
    return assemble_sphere3(T, 2, cyl, hbA, hbB)


@pytest.fixture(scope="module")
def pipeline11():
    return sphere3(11, k=8, structural=True)


@pytest.fixture(scope="module")
def pipeline4():
    return sphere3(11, k=4, structural=True)


# ---------------------------------------------------------------------------
# refining cylinder


def _patch_map_by_edge_walk(Q, Qp, chains):
    """_patch_map, walking each square's boundary a-b-d-c and joining the
    squares across every edge that is not a wall, depth first."""
    def sides(t):
        a, b, c, d = t
        return [frozenset(p) for p in ((a, b), (b, d), (d, c), (c, a))]

    wall_of = {}
    for key, path in chains.items():
        for a, b in zip(path, path[1:]):
            if wall_of.setdefault(frozenset((a, b)), key) != key:
                raise AssemblyError("two subdivided edges share a segment")
    sqs = Qp.cells[2]
    by_edge = {}
    for idx, t in enumerate(sqs):
        for pe in sides(t):
            by_edge.setdefault(pe, []).append(idx)
    if any(len(by_edge.get(pe, ())) != 2 for pe in wall_of):
        raise AssemblyError("a subdivided edge segment is not interior")
    comp = [-1] * len(sqs)
    n_comp = 0
    for start in range(len(sqs)):
        if comp[start] >= 0:
            continue
        comp[start] = n_comp
        stack = [start]
        while stack:
            for pe in sides(sqs[stack.pop()]):
                if pe not in wall_of:
                    for j in by_edge[pe]:
                        if comp[j] < 0:
                            comp[j] = n_comp
                            stack.append(j)
        n_comp += 1
    faces_of_chain = {}
    for F in Q.cells[2]:
        for pe in sides(F):
            faces_of_chain.setdefault(tuple(sorted(pe)), set()).add(F)
    touched = [set() for _ in range(n_comp)]
    for idx, t in enumerate(sqs):
        for pe in sides(t):
            if pe in wall_of:
                touched[comp[idx]].add(wall_of[pe])
    patches = {}
    for ci in range(n_comp):
        (F,) = set.intersection(*(faces_of_chain[k] for k in touched[ci]))
        assert F not in patches
        patches[F] = [sqs[i] for i in range(len(sqs)) if comp[i] == ci]
    assert set(patches) == set(Q.cells[2])
    return patches


@pytest.fixture(scope="module")
def refined11():
    """The n = 11 surface, its regularized refinement and edge chains,
    and the end the refining cylinder makes of it by its parity fixes."""
    Q, _ = surface_report(11)
    rep = refine_report(Q, canonical_basis(Q))
    Q2, B2, _, chains = regularize_with_chains(rep.complex, rep.basis,
                                               rep.edge_chains)
    end = refining_cylinder(Q, Q2, B2, chains=chains).end
    return Q, Q2, end, chains


def test_patch_map_matches_the_edge_walk(refined11):
    Q, Q2, end, chains = refined11
    assert end != Q2  # the parity fixes split some squares
    for Qp in (Q2, end):
        got = _patch_map(Q, Qp, chains)
        assert list(got.items()) == \
            list(_patch_map_by_edge_walk(Q, Qp, chains).items())


def test_patch_map_of_the_trivial_refinement_matches_the_edge_walk():
    T = torus_complex(2)
    chains = {e: e for e in T.cells[1]}
    got = _patch_map(T, T, chains)
    assert got == _patch_map_by_edge_walk(T, T, chains)
    assert got == {F: [F] for F in T.cells[2]}


def test_trivial_refinement_gives_product_layer(toy_pieces, toy_closed):
    Q, cyl, _ = toy_pieces
    assert cyl.end == Q
    assert cyl.census["pillows"] == 6
    assert cyl.census["parity_fixes"] == 0
    assert cyl.census["splits"] == 0
    assert cyl.census["scaffold_vertices"] == 16  # both ends, no walls
    assert len(cyl.requests) == len(cyl.sphere_ids) == 6
    for req, ids in zip(cyl.requests, cyl.sphere_ids):
        assert req.sphere.f_vector() == (8, 12, 6)
        assert len(ids) == 8 and max(ids) < 16
        check_fill_request(req)
    # six pillows of one cube each, inset into seven
    C, _ = toy_closed
    assert C.f_vector() == (64, 152, 132, 42)
    rep = validate(C)
    assert rep.is_complex


def test_cylinder_ends_carry_the_surface_ids(toy_pieces, toy_closed):
    Q, _, _ = toy_pieces
    squares = set(toy_closed[0].cells[2])
    for t in Q.cells[2]:
        assert t in squares
        assert tuple(Q.n_vertices + v for v in t) in squares


def test_fill_request_of_a_non_surface_is_an_assembly_error():
    S = glue(boundary_c3(), boundary_c3(), {0: 0})
    with pytest.raises(AssemblyError, match="wedge: input is not a surface"):
        check_fill_request(FillRequest(S, "wedge"))


def test_fill_request_decides_closedness_once(monkeypatch):
    # surface_invariants reads closedness off the link verdicts, so
    # _is_closed is asked only of a complex that is no surface
    calls = _count_calls(monkeypatch, "_is_closed")
    check_fill_request(FillRequest(boundary_c3(), "cube boundary"))
    assert calls == []
    S = glue(boundary_c3(), boundary_c3(), {0: 0})
    with pytest.raises(AssemblyError, match="wedge: input is not a surface"):
        check_fill_request(FillRequest(S, "wedge"))
    assert calls == [(S,)]


def test_cylinder_is_deterministic(toy_pieces, toy_closed):
    Q, cyl, _ = toy_pieces
    again = refining_cylinder(Q, Q)
    assert again == cyl
    assert _closed_cylinder(Q, again) == toy_closed[0]


def test_refinement_without_chains_is_rejected():
    Q = boundary_c3()
    T = torus_complex(2)
    with pytest.raises(AssemblyError, match="edge chains"):
        refining_cylinder(Q, T)


def test_unevenly_subdivided_chains_are_rejected():
    Q = boundary_c3()
    chains = {tuple(e): tuple(e) for e in Q.cells[1]}
    chains[(0, 1)] = (0, 99, 1)
    with pytest.raises(AssemblyError, match="evenly"):
        refining_cylinder(Q, Q, chains=chains)


def test_cylinder_rejects_open_surface():
    Q = boundary_c3()
    open_Q = build_complex(2, list(Q.cells[2][:5]))
    with pytest.raises(AssemblyError, match="closed"):
        refining_cylinder(open_Q, open_Q)


def test_report_input_form():
    Q, _ = surface_report(11)
    B = canonical_basis(Q)
    rep = refine_report(Q, B)
    cyl = refining_cylinder(Q, rep.complex, rep.basis,
                            chains=rep.edge_chains)
    assert len(cyl.requests) == len(cyl.sphere_ids) == len(Q.cells[2])


def test_refining_cylinder_logs_one_debug_record(caplog):
    Q = boundary_c3()
    _, msg = _one_record(caplog, lambda: refining_cylinder(Q, Q))
    assert re.fullmatch(r"refining_cylinder: 6 pillows, 0 parity fixes, "
                        r"scaffold 16 vertices, \d+\.\d{3} s", msg)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=3, max_value=12))
def test_wheels_are_valid_disks(half):
    # over a 4-cycle the two wheel quads would share two edges; wall
    # construction uses a single square there, so start at six
    cycle = tuple(range(2 * half))
    disk = build_complex(2, _wheel(cycle, 2 * half))
    rep = validate(disk)
    assert rep.is_complex
    f = disk.f_vector()
    assert f[2] == half
    assert f[0] - f[1] + f[2] == 1  # a disk


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=10))
def test_capping_disks_are_valid(half):
    # the five-way subdivision also legalizes the 4-cycle case
    cycle = tuple(range(2 * half))
    cells, used = _disk_cells(cycle, 2 * half)
    disk = build_complex(2, cells)
    rep = validate(disk)
    assert rep.is_complex
    f = disk.f_vector()
    assert f[2] == 5 * half
    assert f[0] - f[1] + f[2] == 1
    assert f[0] == 2 * half + used


# ---------------------------------------------------------------------------
# handlebody


def test_ball_as_genus_zero_handlebody(toy_pieces, toy_closed):
    Q, _, hb = toy_pieces
    assert hb.pairs == {}
    assert len(fillball.fill_ball(hb.sphere).ball.cells[3]) == 1
    H, bmap = toy_closed[1]
    assert H.f_vector() == (16, 32, 24, 7)
    assert bmap == {v: 2 * v for v in range(8)}
    prof = betti_numbers(H)
    assert prof.betti == (1, 0, 0, 0)


def test_solid_torus_from_meridian(heegaard_pieces, heegaard_closed):
    T, _, hbA, _ = heegaard_pieces
    sphere = hbA.sphere
    assert sphere.f_vector() == (38, 72, 36)
    assert surface_invariants(sphere) == (True, True, 0)
    H, _ = heegaard_closed[1]
    assert H.f_vector() == (86, 230, 212, 68)
    # homology of a solid torus
    prof = betti_numbers(H)
    assert prof.betti == (1, 1, 0, 0)
    assert all(not t for t in prof.torsion)


def test_handlebody_boundary_is_the_input(heegaard_closed):
    H, bmap = heegaard_closed[1]
    count = {}
    for cube in H.cells[3]:
        for f in cube_faces(cube):
            key = tuple(sorted(f))
            count[key] = count.get(key, 0) + 1
    rim_verts = {v for f, n in count.items() if n == 1 for v in f}
    assert rim_verts == set(bmap.values())


def test_handlebody_is_deterministic(heegaard_pieces, heegaard_closed):
    T, _, hbA, _ = heegaard_pieces
    again = handlebody(T, [TORUS_MERIDIAN])
    assert again == hbA
    assert _closed_handlebody(T, again) == heegaard_closed[1]


def test_handlebody_structural_level():
    # what a structural run reports of a handlebody: its one request,
    # and the self-gluing that closes it, 4 curve copies and 9 disk
    # interior vertices onto their images at the prism's end t = 0
    T = torus_complex(2)
    hb = handlebody(T, [TORUS_MERIDIAN])
    assert len(hb.requests) == 1
    assert hb.requests[0].origin == "handlebody end"
    assert hb.requests[0].sphere is hb.sphere
    check_fill_request(hb.requests[0])
    assert len(hb.pairs) == 13
    assert all(a % 2 == b % 2 == 0 and a > b for a, b in hb.pairs.items())


def test_genus_two_handlebodies_are_spheres():
    # the double torus cut along both rows, or along both columns
    P, B = _double_torus()
    for curves in sphere_builder._split_alpha_beta(B):
        hb = handlebody(P, curves)
        assert hb.sphere.f_vector() == (72, 140, 70)
        check_fill_request(hb.requests[0])


@pytest.fixture(scope="module")
def refined_torus():
    """The torus, its own refinement regularized, with its basis and edge
    chains, and the refining cylinder over it."""
    T = torus_complex(2)
    rep = refine_report(T, canonical_basis(T))
    Q2, B2, _, chains = regularize_with_chains(rep.complex, rep.basis,
                                               rep.edge_chains)
    return T, Q2, B2, chains, refining_cylinder(T, Q2, B2, chains=chains)


def test_cylinder_and_handlebodies_over_a_refinement(refined_torus):
    _, _, B2, _, cyl = refined_torus
    assert (cyl.census["pillows"], cyl.census["parity_fixes"]) == (16, 16)
    assert cyl.end.f_vector() == (1072, 2144, 1072)
    for req in cyl.requests:
        check_fill_request(req)
    (alpha,), (beta,) = sphere_builder._split_alpha_beta(B2)
    for curve, f in ((alpha, (1194, 2384, 1192)),
                     (beta, (1234, 2464, 1232))):
        hb = handlebody(cyl.end, [curve])
        assert hb.sphere.f_vector() == f
        check_fill_request(hb.requests[0])


def _one_record(caplog, run):
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="cubulations.sphere_builder"):
        got = run()
    records = [r for r in caplog.records
               if r.name == "cubulations.sphere_builder"]
    assert len(records) == 1
    return got, records[0].getMessage()


def test_handlebody_logs_one_debug_record(caplog):
    T = torus_complex(2)
    _, msg = _one_record(caplog, lambda: handlebody(T, [TORUS_MERIDIAN]))
    assert re.fullmatch(r"handlebody: 1 curves, sphere f \(38, 72, 36\), "
                        r"\d+\.\d{3} s", msg)


def test_assemble_sphere3_logs_one_debug_record(caplog, toy_pieces):
    Q, cyl, hb = toy_pieces
    S3, msg = _one_record(caplog,
                          lambda: assemble_sphere3(Q, 2, cyl, hb, hb))
    # six pillows and the one ball that serves both ends
    s = r"\d+\.\d{3} s"
    assert re.fullmatch(
        rf"assemble_sphere3: f \(152, 372, 330, 110\), {s}: 7 fills {s}, "
        rf"close {s} \(cylinder f \(64, 152, 132, 42\), handlebodies f "
        rf"\(16, 32, 24, 7\)\), glue {s}, checks {s}", msg)


def test_handlebody_rejects_odd_curve():
    T = torus_complex(2)
    with pytest.raises(AssemblyError, match="odd"):
        handlebody(T, [(0, 1, 2)])


def test_handlebody_rejects_wrong_curve_count():
    T = torus_complex(2)
    with pytest.raises(AssemblyError, match="not a sphere"):
        handlebody(T, [])


def test_genus_zero_handlebody_reads_its_surface_once(monkeypatch):
    calls = []
    real = topology.surface_invariants

    def counted(C):
        calls.append(C)
        return real(C)

    for module in (sphere_builder, fillball):
        monkeypatch.setattr(module, "surface_invariants", counted)
    Q = boundary_c3()
    hb = handlebody(Q, [])
    assert hb.sphere is Q and calls == [Q]


def test_quotient_refuses_bad_self_identifications():
    with pytest.raises(AssemblyError, match="not injective"):
        _quotient_ids(interval_complex(3), {2: 0, 3: 0})
    with pytest.raises(AssemblyError, match="domain and image overlap"):
        _quotient_ids(interval_complex(3), {1: 0, 2: 1})
    with pytest.raises(AssemblyError, match="degenerates"):
        _quotient_ids(interval_complex(1), {1: 0})  # the only edge onto itself


def test_quotient_numbers_by_rank_outside_the_domain():
    # closing a path into a cycle: 8 -> 0, and 5 -> 2 on a longer path
    assert _quotient_ids(interval_complex(8), {8: 0}) == [*range(8), 0]
    assert _quotient_ids(interval_complex(6), {1: 4, 5: 2}) \
        == [0, 3, 1, 2, 3, 1, 4]


def test_full_handlebody_closes_and_validates_once(monkeypatch):
    T = torus_complex(2)
    hb = handlebody(T, [TORUS_MERIDIAN])
    (ball,) = _balls(hb.requests)
    builds = _count_calls(monkeypatch, "build_complex")
    validates = _count_calls(monkeypatch, "validate")
    H, _ = sphere_builder._close_handlebody(T, hb, ball)
    # the interval of the prism is the one other closure
    assert [args[0] for args in builds] == [1, 3]
    assert len(validates) == 1 and validates[0][0] is H


# sha256 of dumps_complex: climb's handlebodies by curve, its Heegaard S^3
# at k = 2, and that sphere doubled at facet 0
HANDLEBODY_DIGESTS = {
    TORUS_MERIDIAN: "ce0c56bb68c60fd7f02db01da0f7d0b18cf7fb51362e1d62e48786"
                    "2b33de5d44",
    TORUS_LONGITUDE: "d46da85902b6369a43867ba129f1d993f839da18e1e4d888259036"
                     "f7b0b131d2",
}
HEEGAARD_DIGEST = ("561b8d3b286633f7dc3992376c0a6dede4bd17db076492a757a21bbe"
                   "c4ebc27f")
DOUBLED_DIGEST = ("826501367476e2500aff3596f3e396337aadccfb023292d625b5a178"
                  "52e0b975")


def _digest(C):
    return hashlib.sha256(dumps_complex(C).encode()).hexdigest()


def test_heegaard_complexes_are_pinned(heegaard_closed, heegaard_s3):
    _, (HA, _), (HB, _) = heegaard_closed
    assert {TORUS_MERIDIAN: _digest(HA),
            TORUS_LONGITUDE: _digest(HB)} == HANDLEBODY_DIGESTS
    assert _digest(heegaard_s3) == HEEGAARD_DIGEST
    assert _digest(induct_dimension(heegaard_s3)) == DOUBLED_DIGEST


def test_handlebody_without_curves_takes_its_input_as_the_sphere(toy_pieces):
    Q, _, hb = toy_pieces
    assert hb.sphere is Q and hb.requests[0].sphere is Q


# ---------------------------------------------------------------------------
# assembled 3-spheres


def test_toy_sphere_from_cube_boundary(toy_pieces):
    Q, cyl, hb = toy_pieces
    S3 = assemble_sphere3(Q, 2, cyl, hb, hb)
    assert S3.f_vector() == (152, 372, 330, 110)
    prof = betti_numbers(S3)
    assert prof.betti == (1, 0, 0, 1)
    assert all(not t for t in prof.torsion)
    assert manifold_check(S3, 3)


def test_heegaard_sphere_from_torus(heegaard_pieces):
    T, cyl, hbA, hbB = heegaard_pieces
    S3 = assemble_sphere3(T, 2, cyl, hbA, hbB)
    assert S3.f_vector() == (578, 1566, 1482, 494)
    assert validate(S3).is_complex and pseudomanifold_check(S3)
    prof = betti_numbers(S3)
    assert prof.betti == (1, 0, 0, 1)
    assert all(not t for t in prof.torsion)
    assert manifold_check(S3, 3)


def test_heegaard_sphere_checks_match_the_oracles(heegaard_pieces):
    T, cyl, hbA, hbB = heegaard_pieces
    assert_checks_match_the_oracles(assemble_sphere3(T, 2, cyl, hbA, hbB))


def _glue_ids(A, B, pairs):
    """B's ids in glue(A, B, pairs), by glue's documented rule: an
    identified vertex takes its image's id, the others fresh ids from
    A.n_vertices up, in increasing order."""
    fresh = iter(range(A.n_vertices, A.n_vertices + B.n_vertices))
    return [pairs[v] if v in pairs else next(fresh)
            for v in range(B.n_vertices)]


def _assemble_by_glue(Q, k, C, bottom, top):
    """The assembly of the closed cylinder C and the closed handlebodies
    with their boundary maps as four glue calls, each closing and
    validating the growing union: the reference assemble_sphere3 must
    equal."""
    nb = Q.n_vertices
    A = cartesian_product(Q, interval_complex(k))
    ends = []
    for t in (0, k):
        pairs = {v: v * (k + 1) + t for v in range(nb)}
        ends.append(_glue_ids(A, C, pairs))
        A = glue(A, C, pairs)
    for (H, bmap), m in zip((bottom, top), ends):
        A = glue(A, H, {bmap[x]: m[nb + x] for x in bmap})
    return A


@pytest.mark.parametrize("k", [1, 2, 3, 8])
def test_assembly_equals_the_four_glues(heegaard_pieces, heegaard_closed, k):
    T, cyl, hbA, hbB = heegaard_pieces
    S3 = assemble_sphere3(T, k, cyl, hbA, hbB)
    ref = _assemble_by_glue(T, k, *heegaard_closed)
    assert S3.n_vertices == ref.n_vertices
    assert S3.cells == ref.cells


def test_assembly_with_one_handlebody_equals_the_four_glues(toy_pieces,
                                                            toy_closed):
    Q, cyl, hb = toy_pieces
    C, closed = toy_closed
    assert assemble_sphere3(Q, 2, cyl, hb, hb) \
        == _assemble_by_glue(Q, 2, C, closed, closed)


def _count_calls(monkeypatch, name):
    """Every binding in the package of the function `name` of core,
    transforms or topology, wrapped to record the arguments of each
    call."""
    calls = []
    modules = (core, transforms, topology, fillball, sphere_builder, basis)
    real = next(getattr(mod, name) for mod in modules if hasattr(mod, name))

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in modules:
        if getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


def _filled_from(monkeypatch, requests):
    """sphere_builder.fill_ball answering each request's sphere from
    certificates filled beforehand, and the spheres it was asked for."""
    certs = {id(req.sphere): fillball.fill_ball(req.sphere)
             for req in requests}
    asked = []

    def fill(sphere):
        asked.append(sphere)
        return certs[id(sphere)]

    monkeypatch.setattr(sphere_builder, "fill_ball", fill)
    return asked


def test_assembly_closes_and_validates_once(heegaard_pieces, monkeypatch):
    T, cyl, hbA, hbB = heegaard_pieces
    asked = _filled_from(monkeypatch, cyl.requests + hbA.requests
                         + hbB.requests)
    builds = _count_calls(monkeypatch, "build_complex")
    validates = _count_calls(monkeypatch, "validate")
    glues = _count_calls(monkeypatch, "glue")
    S3 = assemble_sphere3(T, 2, cyl, hbA, hbB)
    assert S3.f_vector() == (578, 1566, 1482, 494)
    assert asked == [req.sphere for req in cyl.requests] \
        + [hbA.sphere, hbB.sphere]
    # each piece is closed once, each handlebody's prism interval and the
    # product's I_k are the other closures, and the five pieces are
    # closed once together
    assert [args[0] for args in builds] == [3, 1, 3, 1, 3, 1, 3]
    assert len(validates) == 4 and validates[-1][0] is S3
    assert glues == []


def test_one_handlebody_at_both_ends_is_filled_once(toy_pieces,
                                                    monkeypatch):
    Q, cyl, hb = toy_pieces
    asked = _filled_from(monkeypatch, cyl.requests + hb.requests)
    assemble_sphere3(Q, 2, cyl, hb, hb)
    assert asked == [req.sphere for req in cyl.requests] + [Q]


def test_fill_failed_names_its_request(heegaard_pieces, monkeypatch):
    T, cyl, hbA, hbB = heegaard_pieces
    real, asked = fillball.fill_ball, []

    def longitude_runs_out(sphere):
        asked.append(sphere)
        if sphere is hbB.sphere:
            raise FillFailed(3, 1, 2, 30, 36, 3)
        return real(sphere)

    monkeypatch.setattr(sphere_builder, "fill_ball", longitude_runs_out)
    with pytest.raises(FillFailed) as caught:
        assemble_sphere3(T, 2, cyl, hbA, hbB)
    n = len(cyl.requests)
    assert len(asked) == n + 2
    assert caught.value.__notes__ == [
        f"request {n + 1}, handlebody end, was not filled"]
    assert str(caught.value).startswith("fill search exhausted after 3 ")


def test_seam_that_does_not_match_names_its_seam(heegaard_pieces,
                                                 monkeypatch):
    T, cyl, hbA, hbB = heegaard_pieces
    real = sphere_builder._close_handlebody

    def close_shifting(shift):
        def close(Qpp, hb, ball):
            H, bmap = real(Qpp, hb, ball)
            if hb is shift:
                bmap = {x: bmap[(x + 1) % len(bmap)] for x in bmap}
            return H, bmap
        return close

    monkeypatch.setattr(sphere_builder, "_close_handlebody",
                        close_shifting(hbB))
    with pytest.raises(AssemblyError, match=re.escape(
            "top handlebody seam: identified subcomplexes are not "
            "isomorphic under the map")):
        assemble_sphere3(T, 2, cyl, hbA, hbB)
    monkeypatch.setattr(sphere_builder, "_close_handlebody",
                        close_shifting(hbA))
    with pytest.raises(AssemblyError, match="^bottom handlebody seam: "):
        assemble_sphere3(T, 2, cyl, hbA, hbB)


# ---------------------------------------------------------------------------
# checked constructions


def _torus_and_basis():
    T = torus_complex(2)
    return T, canonical_basis(T)


def _refined_torus():
    rep = refine_report(*_torus_and_basis())
    return rep.complex, rep.basis, rep.edge_chains


def _split_surface_11():
    G = build_graph(11)
    R = trace_cycles(G)
    return G, R, split_paths(R)


def _toy_assembly():
    Q = boundary_c3()
    hb = handlebody(Q, [])
    return Q, 2, refining_cylinder(Q, Q), hb, hb


def _toy_cylinder_and_balls():
    Q = boundary_c3()
    cyl = refining_cylinder(Q, Q)
    return Q, cyl, _balls(cyl.requests)


def _toy_handlebody_and_ball():
    Q = boundary_c3()
    hb = handlebody(Q, [])
    return Q, hb, *_balls(hb.requests)


def _two_squares_on_an_edge():
    square = build_complex(2, [(0, 1, 2, 3)])
    return square, square, {0: 0, 1: 1}


# Each construction that validates what it built: the name its error gives
# what it built, the error's type, the construction, and a function that
# makes arguments it accepts.  The refining cylinder and the handlebody
# validate what their close step builds.
CHECKED_CONSTRUCTIONS = [
    ("refinement", BasisError, refine_report, _torus_and_basis),
    ("surgered surface", BasisError, regularize_with_chains, _refined_torus),
    ("cubulation", CubeComplexError, surface_report, lambda: (11,)),
    ("cubulation", CubeComplexError, cubulate_cycles, _split_surface_11),
    ("refining cylinder", AssemblyError, sphere_builder._close_cylinder,
     _toy_cylinder_and_balls),
    ("handlebody", AssemblyError, sphere_builder._close_handlebody,
     _toy_handlebody_and_ball),
    ("gluing of B onto A", GlueError, glue, _two_squares_on_an_edge),
    ("assembly", AssemblyError, assemble_sphere3, _toy_assembly),
    ("doubling input", AssemblyError, induct_dimension,
     lambda: (boundary_c4(),)),
]
# assemble_sphere3 closes the cylinder and the ball, validating each,
# before it validates the assembly
VALIDATED_BEFORE = {"assembly": 2}


@pytest.mark.parametrize(
    "what, error, construct, arguments", CHECKED_CONSTRUCTIONS,
    ids=["refine_report", "regularize_with_chains", "surface_report",
         "cubulate_cycles", "refining_cylinder", "handlebody", "glue",
         "assemble_sphere3", "induct_dimension"])
def test_a_construction_names_the_first_offending_pair(
        what, error, construct, arguments, monkeypatch):
    args = arguments()
    pairs = (((0, 1, 2, 3), (0, 1, 4, 5), "shared-diagonal"),
             ((0, 1, 2, 3), (2, 3, 6, 7), "shared-diagonal"))
    real, seen = core.validate, []

    def planted(C):
        seen.append(C)
        if len(seen) <= VALIDATED_BEFORE.get(what, 0):
            return real(C)
        return ValidationReport(False, pairs)

    monkeypatch.setattr(core, "validate", planted)
    with pytest.raises(error) as caught:
        construct(*args)
    assert caught.type is error
    assert str(caught.value) == (
        f"{what} is not a complex; offending pair (0, 1, 2, 3) / "
        "(0, 1, 4, 5) (shared-diagonal)")


@pytest.mark.parametrize("construct, arguments, message", [
    (sphere_builder._close_cylinder, _toy_cylinder_and_balls,
     "refining cylinder boundary is not the two ends"),
    (sphere_builder._close_handlebody, _toy_handlebody_and_ball,
     "handlebody boundary is not the input surface"),
], ids=["refining_cylinder", "handlebody"])
def test_a_piece_with_another_rim_is_refused(construct, arguments, message,
                                             monkeypatch):
    # the piece is closed without its first cube: still a complex, but
    # that cube's faces inside the piece are now on its rim
    args = arguments()
    real = sphere_builder.build_complex

    def less_one_cube(dim, tops, n_vertices=None):
        return real(dim, tops[1:] if dim == 3 else tops, n_vertices=n_vertices)

    monkeypatch.setattr(sphere_builder, "build_complex", less_one_cube)
    with pytest.raises(AssemblyError, match=f"^{message}$"):
        construct(*args)


# ---------------------------------------------------------------------------
# pipeline census at n = 11


def test_pipeline_structural_outcome(pipeline11):
    res, census = pipeline11
    assert isinstance(res, StructuralReport)
    assert census.pillows == 42
    assert len(res.requests) == 44  # pillows plus two handlebody ends
    for req in res.requests:
        check_fill_request(req)
        closed, orientable, genus = surface_invariants(req.sphere)
        assert closed and orientable and genus == 0
        assert len(req.sphere.cells[2]) % 2 == 0


def test_pipeline_census_identities(pipeline11):
    _, census = pipeline11
    f_Q = census.stage_f["surface"]
    f_P = census.stage_f["cylinder"]
    assert (f_P[0], f_P[3]) == ((census.k + 1) * f_Q[0], census.k * f_Q[2])
    # the product formula, against the product built at k = 8
    Q, _ = surface_report(census.n)
    assert f_P == cartesian_product(Q, interval_complex(census.k)).f_vector()
    assert census.scaffold_vertices <= f_P[0] \
        + census.growth_constant * census.n ** 4 + 1e-9


def test_pipeline_parity_chain(pipeline11):
    res, census = pipeline11
    assert census.stage_f["surface"][2] % 2 == 0
    assert census.stage_f["refined"][2] % 2 == 0
    assert census.stage_f["end"][2] % 2 == 0
    # the end differs from the refinement by at most one split per square
    assert census.parity_fixes <= census.pillows
    assert census.stage_f["end"][2] == census.stage_f["refined"][2] \
        + 9 * census.parity_fixes


def test_census_is_k_independent(pipeline11):
    res8, c8 = pipeline11
    _, c27 = sphere3(11, k=27, structural=True)
    d8, d27 = asdict(c8), asdict(c27)
    cylinder_keys = {"k", "stage_f", "scaffold_vertices"}
    assert {key for key in d8 if d8[key] != d27[key]} <= cylinder_keys
    stages8, stages27 = d8["stage_f"], d27["stage_f"]
    assert {key for key in stages8 if stages8[key] != stages27.get(key)} \
        == {"cylinder"}


def test_genus_zero_pipeline_makes_one_handlebody(monkeypatch):
    made = []
    real = sphere_builder.handlebody

    def counted(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(sphere_builder, "handlebody", counted)
    res, census = sphere3(11, k=8, structural=True)
    assert len(made) == 1
    assert len(res.requests) == census.stage_f["surface"][2] + 2
    assert res.requests[-1].sphere is res.requests[-2].sphere
    assert res.requests[-1].sphere is made[0].sphere
    assert census.stage_f["sphere_bottom"] == census.stage_f["sphere_top"]


def test_sphere3_logs_one_debug_record(caplog):
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="cubulations.sphere_builder"):
        sphere3(11, k=4, structural=True)
    msgs = [r.getMessage() for r in caplog.records
            if r.name == "cubulations.sphere_builder"
            and r.getMessage().startswith("sphere3:")]
    assert len(msgs) == 1
    msg = msgs[0]
    assert msg.startswith(
        "sphere3: n 11, k 4, levels {'refining_cylinder': 'structural', "
        "'handlebody_bottom': 'structural', 'handlebody_top': "
        "'structural'}; ")
    for stage in ("surface and basis", "refinement", "cylinder",
                  "handlebodies"):
        assert re.search(stage + r" \d+\.\d{3} s", msg), stage
    assert msg.endswith(", assembly skipped")


def _requests_as_text(report):
    return [(dumps_complex(req.sphere), req.origin) for req in report.requests]


def test_a_full_run_that_runs_out_returns_its_requests(caplog, monkeypatch,
                                                       pipeline4):
    # the first two pillows "fill"; no ball is placed before the fill
    # step ends
    structural, _ = pipeline4
    calls = []

    def runs_out_at_the_third(sphere):
        calls.append(sphere)
        if len(calls) == 3:
            raise FillFailed(3, 1, 2, 30, 36, 3)
        return SimpleNamespace(ball=None)

    monkeypatch.setattr(sphere_builder, "fill_ball", runs_out_at_the_third)
    with caplog.at_level(logging.DEBUG, logger="cubulations.sphere_builder"):
        res, census = sphere3(11, k=4)
    assert isinstance(res, StructuralReport)
    assert len(calls) == 3
    assert calls == [req.sphere for req in res.requests[:3]]
    assert _requests_as_text(res) == _requests_as_text(structural)
    assert census == pipeline4[1]
    assert set(res.stage_levels.values()) == {"structural"}
    (note,) = [n for n in res.notes if "not filled" in n]
    assert note.startswith(f"request 2, {res.requests[2].origin}, was not "
                           "filled: fill search exhausted after 3 ")
    (msg,) = [r.getMessage() for r in caplog.records
              if r.getMessage().startswith("sphere3:")]
    assert re.search(r", assembly \d+\.\d{3} s; request 2, ", msg)


def test_a_stage_is_full_when_all_its_requests_were_filled(monkeypatch,
                                                           pipeline4):
    # every pillow "fills", and the 1218-square handlebody sphere that
    # serves both ends runs out: the fill step stops there, before any
    # ball is placed
    calls = []

    def pillows_only(sphere):
        calls.append(sphere)
        if len(sphere.cells[2]) == 1218:
            raise FillFailed(3, 1, 2, 30, 36, 3)
        return SimpleNamespace(ball=None)

    monkeypatch.setattr(sphere_builder, "fill_ball", pillows_only)
    res, _ = sphere3(11, k=4)
    assert len(calls) == 43
    assert _requests_as_text(res) == _requests_as_text(pipeline4[0])
    assert res.stage_levels == {"refining_cylinder": "full",
                                "handlebody_bottom": "structural",
                                "handlebody_top": "structural"}
    assert res.notes[-1].startswith("request 42, handlebody end, was not "
                                    "filled: ")


def test_pipeline_input_validation():
    for n in (9, 12, 7, 10):
        with pytest.raises(AssemblyError, match="odd prime"):
            sphere3(n, k=1, structural=True)
    with pytest.raises(AssemblyError, match="k must be"):
        sphere3(11, k=0, structural=True)


def test_sphere3_rejects_a_forged_neighborhood_certificate(monkeypatch):
    """sphere3 checks the ribbon surgery's certificates against the
    refined surface; at n=11 the basis is empty, so one certificate is
    one too many."""
    real = sphere_builder.regularize_with_chains

    def forged(Qp, Bp, chains):
        Q2, B2, certs, chains2 = real(Qp, Bp, chains)
        a, b = Q2.cells[2][:2]
        return Q2, B2, certs + (RegularNeighborhoodCert(0, ((a, b),)),), \
            chains2

    monkeypatch.setattr(sphere_builder, "regularize_with_chains", forged)
    with pytest.raises(AssemblyError, match="neighbourhood certificate"):
        sphere3(11, k=4, structural=True)


# ---------------------------------------------------------------------------
# raising dimension


def test_double_cube_boundary():
    S4 = induct_dimension(boundary_c4())
    assert S4.f_vector() == (64, 192, 232, 136, 34)
    assert S4.n_vertices == 4 * 16
    assert len(S4.cells[4]) >= 2 * 8
    prof = betti_numbers(S4)
    assert prof.betti == (1, 0, 0, 0, 1)
    assert all(not t for t in prof.torsion)


def test_doubling_twice_within_budget():
    start = time.time()
    S4 = induct_dimension(boundary_c4())
    S5 = induct_dimension(S4)
    assert S5.n_vertices == 256
    prof = betti_numbers(S5)
    assert betti_over(prof, "q") == (1, 0, 0, 0, 0, 1)
    assert betti_over(prof, 2) == (1, 0, 0, 0, 0, 1)
    assert time.time() - start < 120


def test_doubling_is_facet_invariant():
    C4 = boundary_c4()
    outcomes = {induct_dimension(C4, facet=f).f_vector()
                for f in C4.cells[3]}
    assert outcomes == {(64, 192, 232, 136, 34)}


def _doubling_by_closure(S, facet):
    """The doubling step built as the product Q x I x I and the closure of
    its rim, the reference for induct_dimension's product formula."""
    Q = remove_facet(S, facet)
    R = cartesian_product(cartesian_product(Q, interval_complex(1)),
                          interval_complex(1))
    return boundary_complex(R)


def _check_doubling_by_closure(S, f):
    """The doubling equals the closure reference cell for cell, and its
    merged facet table, in 4-byte ids, equals the closure's and the one
    the index builds lazily on a copy."""
    out = induct_dimension(S, facet=f)
    ref = _doubling_by_closure(S, f)
    assert out == ref
    lazy = CubeComplex(out.dim, out.n_vertices, out.cells).incidence()
    for k in range(1, out.dim + 1):
        ids, coeffs = out.incidence().facets(k)
        assert (ids.typecode, coeffs.typecode) == ("i", "b")
        assert (ids, coeffs) == ref.incidence().facets(k) == lazy.facets(k)


def test_doubling_matches_the_closure_of_the_rim(heegaard_s3):
    C4 = boundary_c4()
    perm = list(range(16))
    random.Random(7).shuffle(perm)
    shuffled = relabel(C4, dict(enumerate(perm)))
    for S in (C4, shuffled):
        for f in S.cells[3]:
            _check_doubling_by_closure(S, f)
    S4 = induct_dimension(C4)
    _check_doubling_by_closure(S4, S4.cells[4][0])  # the S^5 doubled twice
    for i in (7, 68, 291):
        _check_doubling_by_closure(heegaard_s3, heegaard_s3.cells[3][i])


def test_doubling_canonicalises_almost_nothing(heegaard_s3, monkeypatch):
    # the products derive their facet tables and the merge keeps them, so
    # only the facet's boundary is canonicalised (64 694 calls when the
    # homology check built the output's table lazily)
    calls = []
    real = core.canonical_with_sign

    def counted(corners):
        calls.append(corners)
        return real(corners)

    monkeypatch.setattr(core, "canonical_with_sign", counted)
    induct_dimension(heegaard_s3, heegaard_s3.cells[3][7])
    assert 0 < len(calls) < 200


def test_doubling_builds_no_coface_table_of_its_output(heegaard_s3,
                                                     monkeypatch):
    # the homology checks collapse on the facet tables; with the reduction
    # they transposed the S^4's five tables, 129 248 entries
    sizes = []
    real = core._transpose

    def counted(table, width, n):
        sizes.append(len(table))
        return real(table, width, n)

    monkeypatch.setattr(core, "_transpose", counted)
    out = induct_dimension(heegaard_s3, heegaard_s3.cells[3][7])
    assert not out.incidence()._cofaces
    assert sum(sizes) < 100, sizes


def test_doubling_collapses_both_spheres(heegaard_s3, caplog):
    with caplog.at_level(logging.DEBUG, logger="cubulations.topology"):
        induct_dimension(heegaard_s3, heegaard_s3.cells[3][7])
    messages = [r.getMessage() for r in caplog.records
                if r.name == "cubulations.topology"]
    assert len(messages) == 2  # no betti_numbers fallback
    assert "4120 cells, dropped 3-cell 0, 2059 pairs removed, 1 cells " \
        "left, certified" in messages[0]
    assert "32978 cells, dropped 4-cell 0, 16488 pairs removed, 1 cells " \
        "left, certified" in messages[1]


def test_heegaard_s3_collapses_at_every_facet(heegaard_s3):
    assert len(heegaard_s3.cells[3]) == 494

    def collapses(i):
        collapsed, pairs, left = topology._reduce(heegaard_s3, i)
        return collapsed == pairs and not any(left)

    assert all(collapses(i) for i in range(494))


def test_longitude_handlebody_reduces_to_one_edge(heegaard_closed, caplog):
    # the collapse takes the solid torus to a circle and coreductions take
    # the circle to one edge, the generator of H_1
    hbB, _ = heegaard_closed[2]
    with caplog.at_level(logging.DEBUG, logger="cubulations.topology"):
        assert betti_numbers(hbB).betti == (1, 1, 0, 0)
    messages = [r.getMessage() for r in caplog.records
                if r.name == "cubulations.topology"]
    assert len(messages) == 1
    assert "remainder [0, 0, 1, 0, 0] in dimensions -1..3" in messages[0]


def _opposite_pinwheel_ball(monkeypatch):
    """The 36 cubes the fill search closes on the opposite pinwheel, which
    verify_filling refuses."""
    seen = []
    real = fillball.verify_filling

    def spy(cert, S):
        seen.append(cert.ball)
        return real(cert, S)

    with monkeypatch.context() as m:
        m.setattr(fillball, "verify_filling", spy)
        with pytest.raises(fillball.FillError):
            fillball.fill_ball(opposite_pinwheel(), budget=500)
    return seen[0]


@pytest.mark.parametrize("stuck", [False, True])
def test_sphere_check_matches_the_betti_oracle(heegaard_closed,
                                               heegaard_s3, monkeypatch,
                                               stuck):
    """homology_sphere_check gives the verdict of the Betti numbers, by
    the reduction and, with the reduction stuck, by its fallback."""
    C3, C4 = boundary_c3(), boundary_c4()
    ball = _opposite_pinwheel_ball(monkeypatch)
    assert ball.f_vector() == (58, 139, 117, 36)
    cases = [(C3, True), (C4, True), (induct_dimension(C4), True),
             (heegaard_s3, True), (torus_4x4(), False), (klein_4x4(), False),
             (sphere_wedge(C3, C3), False), (ball, True),
             (dunce_hat(), False), (heegaard_closed[2][0], False)]
    if stuck:
        monkeypatch.setattr(topology, "_reduces_to_nothing",
                            lambda C, drop=None: False)
    for C, verdict in cases:
        prof = betti_numbers(C)
        oracle = prof.betti == (1,) + (0,) * (C.dim - 1) + (1,) \
            and not any(prof.torsion)
        assert topology.homology_sphere_check(C, C.dim) == oracle == verdict


def test_doubling_rejects_a_facet_it_does_not_have():
    C4 = boundary_c4()
    for facet in ((0, 1, 2, 3, 12, 13, 14, 15), (0, 1, 2, 3),
                  (16, 17, 18, 19, 20, 21, 22, 23)):
        with pytest.raises(AssemblyError, match="is not a 3-cell"):
            induct_dimension(C4, facet=facet)


def test_assembly_names_the_homology_it_rejects(heegaard_pieces):
    # both handlebodies on the meridian make S^2 x S^1
    T, cyl, hbA, _ = heegaard_pieces
    with pytest.raises(AssemblyError, match=re.escape(
            "assembled homology is (1, 1, 1, 1) with torsion "
            "((), (), (), ()), not a 3-sphere's")):
        assemble_sphere3(T, 2, cyl, hbA, hbA)


def test_doubling_rejects_an_unused_vertex_id():
    # the product has 4 * n_vertices ids by construction; the guard counts
    # the vertices it has
    C4 = boundary_c4()
    S = CubeComplex.from_cells(3, 17, C4.cells)
    with pytest.raises(AssemblyError, match="vertex count"):
        induct_dimension(S)


def test_induct_dimension_logs_one_debug_record(caplog):
    with caplog.at_level(logging.DEBUG, logger="cubulations.sphere_builder"):
        induct_dimension(boundary_c4())
    records = [r for r in caplog.records
               if r.name == "cubulations.sphere_builder"]
    assert len(records) == 1
    msg = records[0].getMessage()
    assert "(16, 32, 24, 8) -> (64, 192, 232, 136, 34)" in msg
    for stage in ("validate", "products", "boundary", "homology checks"):
        assert re.search(stage + r" \d+\.\d{3} s", msg), stage


def test_doubling_rejects_non_spheres():
    with pytest.raises(AssemblyError, match="sphere homology"):
        induct_dimension(torus_complex(3))
    ball = build_complex(3, [tuple(range(8))])
    with pytest.raises(AssemblyError, match="closed"):
        induct_dimension(ball)


# ---------------------------------------------------------------------------
# dimension climber


def test_sphere_d_picks_the_largest_prime():
    res, census = sphere_d(3, 80_000, structural=True)
    assert isinstance(res, StructuralReport)
    assert census.n == 11
    assert census.k == 11 ** 3
    # the product formula, (k + 1) f_j(Q) + k f_(j-1)(Q), with nothing built
    f_Q, k = census.stage_f["surface"], census.k
    assert census.stage_f["cylinder"] == (
        (k + 1) * f_Q[0], (k + 1) * f_Q[1] + k * f_Q[0],
        (k + 1) * f_Q[2] + k * f_Q[1], k * f_Q[2])


def test_sphere_d_budget_errors():
    with pytest.raises(AssemblyError, match="at least"):
        sphere_d(2, 100)
    with pytest.raises(AssemblyError, match="2\\^"):
        sphere_d(3, 15)
    with pytest.raises(AssemblyError, match="no pipeline scale"):
        sphere_d(3, 20_000)


def test_sphere_d_stops_at_structural_level():
    res, census = sphere_d(4, 300_000, k=8, structural=True)
    assert isinstance(res, StructuralReport)
    assert census.d == 4
    assert census.stage_f["cylinder"][3] == \
        census.k * census.stage_f["surface"][2]
    assert any("full 3-sphere" in note for note in res.notes)


# ---------------------------------------------------------------------------
# refusals, each planted


def _refused(message, construct, *args, **kwargs):
    """construct(*args, **kwargs) raises AssemblyError with exactly this
    message."""
    with pytest.raises(AssemblyError) as caught:
        construct(*args, **kwargs)
    assert caught.type is AssemblyError
    assert str(caught.value) == message


def _identity_chains(Q):
    return {tuple(e): tuple(e) for e in Q.cells[1]}


def test_stages_refuse_inputs_that_are_not_closed_orientable_surfaces():
    Q, C4, klein = boundary_c3(), boundary_c4(), klein_4x4()
    open_Q = build_complex(2, list(Q.cells[2][:5]))
    chains = _identity_chains(Q)
    _refused("base must be a 2-complex", refining_cylinder, C4, C4)
    _refused("refinement must be a 2-complex", refining_cylinder, Q, C4,
             None, chains=chains)
    _refused("base is not a closed orientable surface", refining_cylinder,
             open_Q, open_Q)
    _refused("base is not a closed orientable surface", refining_cylinder,
             klein, klein)
    _refused("refinement is not a closed orientable surface",
             refining_cylinder, Q, klein, None, chains=chains)
    _refused("handlebody needs a 2-complex", handlebody, C4, [])
    for S in (open_Q, klein):
        _refused("handlebody needs a closed orientable surface", handlebody,
                 S, [(0, 1, 3, 2)])


def test_cylinder_refuses_chains_that_are_not_the_base_edges():
    Q = boundary_c3()
    fewer = _identity_chains(Q)
    del fewer[(0, 1)]
    _refused("chains must cover the base edges exactly", refining_cylinder,
             Q, Q, None, chains=fewer)
    more = {**_identity_chains(Q), (0, 7): (0, 7)}
    _refused("chains must cover the base edges exactly", refining_cylinder,
             Q, Q, None, chains=more)
    # the chain of 0-1 starts at 5, the others over 0 at 0
    moved = {**_identity_chains(Q), (0, 1): (5, 1)}
    _refused("chain endpoints disagree at surface vertex 0",
             refining_cylinder, Q, Q, None, chains=moved)


def test_cylinder_refuses_curves_that_are_not_edge_paths(refined_torus):
    # alpha at every other vertex steps across squares, not along edges
    T, Q2, B2, chains, _ = refined_torus
    alpha, beta = B2.curves
    skipping = basis.EdgePathBasis(1, (alpha[::2], beta))
    _refused(f"basis curve step {tuple(sorted(alpha[0:3:2]))} is "
             "not an edge of the refinement", refining_cylinder, T, Q2,
             skipping, chains=chains)


def test_patch_map_refuses_walls_that_do_not_cut_the_base_squares():
    Q = boundary_c3()
    walls = _identity_chains(Q)
    # 0 and 7 are opposite corners of the cube
    _refused("subdivided edge segment (0, 7) is not an interior edge of the "
             "refinement", _patch_map, Q, Q, {**walls, (0, 1): (0, 7)})
    _refused("two subdivided edges share a segment", _patch_map, Q, Q,
             {**walls, (0, 2): (0, 1)})
    _refused("refinement has squares bounded by no subdivided edge; patches "
             "are undefined", _patch_map, Q, Q, {})
    renamed = {(0, 7) if e == (0, 1) else e: p for e, p in walls.items()}
    _refused("chain (0, 7) is not an edge of the base", _patch_map, Q, Q,
             renamed)
    # without the wall 0-1 its two squares are one patch
    merged = {e: p for e, p in walls.items() if e != (0, 1)}
    _refused("patch does not sit over a unique base square", _patch_map, Q,
             Q, merged)
    # the walls of the bottom square alone leave it and the other five as
    # two patches, both bounded by its four edges
    bottom = {e: walls[e] for e in ((0, 1), (0, 2), (1, 3), (2, 3))}
    _refused("two patches over base square (0, 1, 2, 3)", _patch_map, Q, Q,
             bottom)
    # a second cube boundary, on ids 8..15, beside the first has no patch
    base2 = build_complex(2, list(Q.cells[2]) + [
        tuple(8 + v for v in t) for t in Q.cells[2]])
    _refused("no patch over base square (8, 9, 10, 11)", _patch_map, base2,
             Q, walls)


def test_assembly_refuses_a_product_of_no_layers(toy_pieces, monkeypatch):
    Q, cyl, hb = toy_pieces
    asked = _filled_from(monkeypatch, cyl.requests + hb.requests)
    _refused("the product cylinder needs at least one layer",
             assemble_sphere3, Q, 0, cyl, hb, hb)
    assert asked == []  # refused before the fill step


def test_assembly_refuses_what_is_not_a_closed_manifold(toy_pieces,
                                                        monkeypatch):
    Q, cyl, hb = toy_pieces
    _filled_from(monkeypatch, cyl.requests + hb.requests)
    real = sphere_builder._close_handlebody

    def with_a_loose_edge(Qpp, hb, ball):
        # an edge on two fresh vertices: the ball is still a complex, and
        # meets the cylinder on the same seam, but is no longer pure
        H, bmap = real(Qpp, hb, ball)
        n = H.n_vertices
        return build_complex(3, [*H.cells[3], (n, n + 1)],
                             n_vertices=n + 2), bmap

    with monkeypatch.context() as m:
        m.setattr(sphere_builder, "_close_handlebody", with_a_loose_edge)
        _refused("assembled complex is not a closed pseudomanifold",
                 assemble_sphere3, Q, 2, cyl, hb, hb)
    # a closed pseudomanifold with the homology of S^3 and a vertex link
    # that is no sphere needs two such links, one of Euler characteristic
    # below 2 and one above (the Euler characteristic of the complex is
    # the sum over the vertices of 1 - chi(link) / 2); no piece here makes
    # one, so the link verdict itself is planted
    monkeypatch.setattr(sphere_builder, "manifold_check", lambda C, d: False)
    _refused("assembled complex has a bad vertex link", assemble_sphere3,
             Q, 2, cyl, hb, hb)


def test_doubling_refuses_a_low_dimension_and_a_lost_sphere(monkeypatch):
    _refused("dimension raising needs a sphere of dim >= 2",
             induct_dimension, interval_complex(3))
    real = sphere_builder._union

    def less_a_facet(P, E):
        # the union with its first facet's interior missing: the same
        # vertices, and a rim where the sphere had none
        out = real(P, E)
        return remove_facet(out, out.cells[out.dim][0])

    monkeypatch.setattr(sphere_builder, "_union", less_a_facet)
    _refused("doubling lost the sphere homology", induct_dimension,
             boundary_c4())
