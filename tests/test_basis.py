"""Homology bases: construction, refinement to edge paths, ribbon surgery."""

import logging
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from cubulations.basis import (
    BasisError,
    Crossing,
    CurveBasis,
    CurveOnSurface,
    EdgePathBasis,
    _crossing_sign,
    _spanning_loops,
    _unimodular,
    arrangement_crossings,
    canonical_basis,
    intersection_matrix,
    oriented_face_cycles,
    pairing_matrix,
    refine_census,
    refine_report,
    regularize_with_chains,
    verify_basis,
    verify_neighborhoods,
)
from cubulations.core import build_complex, cube_faces, validate
from cubulations.surface_gen import surface_report
from cubulations.topology import betti_numbers, surface_invariants
from cubulations.transforms import torus_complex


def boundary_c3():
    return build_complex(2, list(cube_faces(tuple(range(8)))))


def klein_bottle():
    # 4x4 grid, torus wrap in j, orientation-reversing wrap in i
    def vid(i, j):
        if i == 4:
            return (-j) % 4
        return 4 * i + j % 4

    sqs = [
        (vid(i, j), vid(i + 1, j), vid(i, j + 1), vid(i + 1, j + 1))
        for i in range(4)
        for j in range(4)
    ]
    return build_complex(2, sqs)


def _pairing_by_scan(Q, B):
    """The pairing matrix by the direct triple loop: every crossing of
    every curve against every fundamental loop."""
    face_cycles = oriented_face_cycles(Q)
    loops = _spanning_loops(Q, B)
    M = []
    for c in B.curves:
        row = []
        for mult in loops:
            total = 0
            for ev in c.crossings:
                m = mult.get(ev.edge)
                if m:
                    total += m * _crossing_sign(face_cycles, ev)
            row.append(total)
        M.append(row)
    return M


def _det(M):
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    n = len(M)
    if n == 0:
        return 1
    A = [row[:] for row in M]
    prev = 1
    sign = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k]), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[-1][-1]


@pytest.fixture(scope="module")
def n31():
    Q, _ = surface_report(31)
    return Q, canonical_basis(Q)


@pytest.fixture(scope="module")
def n31_refined(n31):
    Q, B = n31
    return refine_report(Q, B)


# ---------------------------------------------------------------------------
# construction


def test_torus_basis_shape():
    T = torus_complex(2)
    B = canonical_basis(T)
    assert B.genus == 1
    assert B.curve_lengths() == (10, 14)
    assert B.intersection_matrix == ((0, 1), (-1, 0))
    assert verify_basis(T, B)


def test_basis_is_deterministic():
    T = torus_complex(2)
    assert canonical_basis(T) == canonical_basis(T)


def test_root_choice_changes_curves_not_validity():
    T = torus_complex(2)
    B = canonical_basis(T, root=5)
    assert sorted(B.curve_lengths()) == [10, 12]
    assert verify_basis(T, B)


def test_sphere_basis_is_empty():
    S = boundary_c3()
    B = canonical_basis(S)
    assert B.genus == 0
    assert B.curves == ()
    assert verify_basis(S, B)


def test_genus_zero_generated_surface():
    Q, rep = surface_report(11)
    assert rep.genus == 0
    assert canonical_basis(Q).curves == ()


def test_open_surface_is_rejected():
    square = build_complex(2, [(0, 1, 2, 3)])
    with pytest.raises(BasisError, match="closed"):
        canonical_basis(square)


def test_nonorientable_surface_is_rejected():
    K = klein_bottle()
    assert validate(K).is_complex
    assert surface_invariants(K)[:2] == (True, False)
    with pytest.raises(BasisError, match="orientable"):
        canonical_basis(K)


@settings(max_examples=16, deadline=None)
@given(root=st.integers(min_value=0, max_value=15))
def test_every_root_gives_a_verified_basis(root):
    T = torus_complex(2)
    B = canonical_basis(T, root=root)
    assert B.genus == 1
    assert verify_basis(T, B)
    assert pairing_matrix(T, B) == _pairing_by_scan(T, B)


# ---------------------------------------------------------------------------
# the two contracts at generated-surface scale


def test_crossing_bound_exhaustive_n31(n31):
    Q, B = n31
    assert B.genus == 61
    assert len(B.curves) == 122
    for c in B.curves:
        assert all(k <= 2 for k in c.edges_crossed().values())


def test_curve_lengths_n31(n31):
    _, B = n31
    lens = B.curve_lengths()
    assert max(lens) == 396
    assert sum(lens) == 21698


def test_unimodular_pattern_n31(n31):
    Q, B = n31
    assert verify_basis(Q, B)


def test_pairing_matrix_matches_the_scan(n31):
    T = torus_complex(2)
    B = canonical_basis(T)
    assert pairing_matrix(T, B) == _pairing_by_scan(T, B)
    Q, B = n31
    M = pairing_matrix(Q, B)
    assert M == _pairing_by_scan(Q, B)
    assert len(M) == 122 and all(len(row) == 122 for row in M)


def test_intersection_matrix_is_symplectic_n31(n31):
    _, B = n31
    M = B.intersection_matrix
    g = B.genus
    for i in range(2 * g):
        for j in range(2 * g):
            want = 0
            if i // 2 == j // 2 and i != j:
                want = 1 if i < j else -1
            assert M[i][j] == want


def test_arrangement_agrees_with_matrix():
    T = torus_complex(2)
    B = canonical_basis(T)
    assert intersection_matrix(T, B.curves) == B.intersection_matrix
    signed, unsigned = arrangement_crossings(T, B.curves)
    assert signed == {(0, 1): 1}
    assert unsigned == {(0, 1): 1}


# ---------------------------------------------------------------------------
# unimodularity by Smith normal form


@st.composite
def matrices_of_known_det(draw):
    """diag(d, 1, ..., 1) under random row additions and swaps, which
    keep |det| = |d|; d = 0 gives singular matrices."""
    n = draw(st.integers(min_value=1, max_value=6))
    d = draw(st.sampled_from([-2, -1, 0, 1, 2]))
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    M[0][0] = d
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for (i, j), k in draw(st.lists(st.tuples(pairs, st.integers(-3, 3)),
                                   max_size=12)):
        if i == j:
            continue
        if k == 0:
            M[i], M[j] = M[j], M[i]
        else:
            M[i] = [a + k * b for a, b in zip(M[i], M[j])]
    return M, abs(d)


small_matrices = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(case=matrices_of_known_det())
def test_unimodular_matches_the_determinant(case):
    M, abs_det = case
    assert abs(_det(M)) == abs_det
    assert _unimodular(M) == (abs_det == 1)


@settings(max_examples=200, deadline=None)
@given(M=small_matrices)
def test_unimodular_matches_the_determinant_on_any_matrix(M):
    assert _unimodular(M) == (abs(_det(M)) == 1)


def test_non_square_pairing_is_not_unimodular():
    assert not _unimodular([[1, 0]])
    assert not _unimodular([[1], [0]])


# ---------------------------------------------------------------------------
# the kept arrangement


def _copy_curve(c):
    return CurveOnSurface(tuple(
        Crossing(x.edge, x.vertex, x.depth, x.f_from, x.f_to)
        for x in c.crossings))


def test_kept_arrangement_is_sound():
    T = torus_complex(2)
    B = canonical_basis(T)
    assert verify_basis(T, B)
    a, b = B.curves
    for curves in ((a, a), (a, b.reversed_()), (b, a)):
        forged = CurveBasis(B.genus, curves, B.intersection_matrix,
                            B.handle_edges, B.spur_edges)
        assert not verify_basis(T, forged)
        assert verify_basis(T, B)
    signed, unsigned = arrangement_crossings(T, B.curves)
    signed[(0, 1)] = -7
    unsigned.clear()
    want = ({(0, 1): 1}, {(0, 1): 1})
    assert arrangement_crossings(T, B.curves) == want
    # an equal family of other objects gets the same answer
    assert arrangement_crossings(T, [_copy_curve(c) for c in B.curves]) \
        == want


RECORD = re.compile(
    r"verify_basis: (\w+); (\d+) curves, (\d+) crossing events, (\d+) "
    r"curve-pair crossings, (\d+) loop edges, (\d+) nonzeros in the pairing "
    r"matrix, (\d+) invariant factors, arrangement (reused|computed), "
    r"\d+\.\d{3} s$")


def test_verify_basis_logs_one_debug_record(caplog):
    T = torus_complex(2)
    B = canonical_basis(T)
    forged = CurveBasis(B.genus, (B.curves[0], B.curves[0]),
                        B.intersection_matrix, B.handle_edges, B.spur_edges)
    got = []
    for basis in (B, B, forged):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="cubulations.basis"):
            verify_basis(T, basis)
        records = [r for r in caplog.records if r.name == "cubulations.basis"]
        assert len(records) == 1
        m = RECORD.match(records[0].getMessage())
        assert m, records[0].getMessage()
        got.append(m.groups())
    # the canonical basis flips a curve after its own arrangement, so the
    # first check computes one; the second reuses it
    assert got[0] == ("accepted", "2", "24", "1", "8", "2", "2", "computed")
    assert got[1] == got[0][:-1] + ("reused",)
    assert got[2][0] == "rejected" and got[2][-1] == "computed"


# ---------------------------------------------------------------------------
# negative controls


def test_duplicated_curve_fails_verification():
    T = torus_complex(2)
    B = canonical_basis(T)
    forged = CurveBasis(
        B.genus,
        (B.curves[0], B.curves[0]),
        B.intersection_matrix,
        B.handle_edges,
        B.spur_edges,
    )
    assert not verify_basis(T, forged)


def test_wrong_genus_fails_verification():
    T = torus_complex(2)
    B = canonical_basis(T)
    assert not verify_basis(T, CurveBasis(2, B.curves, B.intersection_matrix,
                                          B.handle_edges, B.spur_edges))


# ---------------------------------------------------------------------------
# refinement


def test_torus_refinement_census():
    T = torus_complex(2)
    B = canonical_basis(T)
    rep = refine_report(T, B)
    assert rep.census == refine_census(T, B)
    assert rep.census.events == 24
    assert rep.census.crossings == 1
    assert rep.census.quads == 164
    assert rep.census.quad_edges == 2 * rep.census.quads
    assert rep.complex.f_vector() == (820, 1640, 820)
    assert validate(rep.complex).is_complex


def test_torus_refined_basis_paths():
    T = torus_complex(2)
    rep = refine_report(T, canonical_basis(T))
    Qp, Bp = rep.complex, rep.basis
    assert Bp.curve_lengths() == (22, 30)
    assert verify_basis(Qp, Bp)
    assert betti_numbers(Qp).betti == betti_numbers(T).betti


def test_edge_path_verification_rejects_a_stray_edge():
    T = torus_complex(2)
    B = EdgePathBasis(1, ((0, 1, 2, 3), (0, 4, 8, 12)))
    assert verify_basis(T, B)
    # the squares alone still form the torus; the edge lies in no square
    stray = build_complex(2, [*T.cells[2], (0, 10)], n_vertices=16)
    assert stray.euler_characteristic() == -1
    assert not verify_basis(stray, B)


def test_torus_edges_evenly_subdivided():
    T = torus_complex(2)
    rep = refine_report(T, canonical_basis(T))
    assert set(rep.edge_chains) == set(T.cells[1])
    for e, chain in rep.edge_chains.items():
        assert chain[0] < chain[-1]
        assert len(chain) % 2 == 1  # chain of 2k edges lists 2k+1 vertices
        assert len(chain) >= 3


def test_sphere_refinement():
    S = boundary_c3()
    rep = refine_report(S, canonical_basis(S))
    assert rep.complex.f_vector() == (122, 240, 120)
    assert rep.census.quads == 24
    assert rep.basis.curves == ()


def test_generated_sphere_refinement():
    Q, _ = surface_report(11)
    rep = refine_report(Q, canonical_basis(Q))
    assert rep.census.quads == 168
    assert rep.complex.f_vector() == (842, 1680, 840)
    assert validate(rep.complex).is_complex
    assert betti_numbers(rep.complex).betti == (1, 0, 1)


def test_refined_n31_census_and_validity(n31, n31_refined):
    Q, B = n31
    rep = n31_refined
    assert rep.census == refine_census(Q, B)
    assert rep.complex.f_vector() == (440980, 882200, 441100)
    assert validate(rep.complex).is_complex
    assert betti_numbers(rep.complex).betti == (1, 122, 1)


def test_every_edge_evenly_subdivided_n31(n31, n31_refined):
    Q, _ = n31
    chains = n31_refined.edge_chains
    assert set(chains) == set(Q.cells[1])
    for chain in chains.values():
        assert len(chain) % 2 == 1 and len(chain) >= 3


def test_refined_basis_verifies_n31(n31_refined):
    rep = n31_refined
    assert verify_basis(rep.complex, rep.basis)


def test_surgery_n31(n31_refined):
    rep = n31_refined
    Qpp, Bpp, certs, chains = regularize_with_chains(
        rep.complex, rep.basis, rep.edge_chains
    )
    assert Qpp.f_vector() == (528504, 1057248, 528624)
    assert len(certs) == 122
    assert verify_neighborhoods(Qpp, Bpp, certs)
    assert verify_basis(Qpp, Bpp)
    assert betti_numbers(Qpp).betti == (1, 122, 1)
    for e in rep.edge_chains:
        assert len(chains[e]) % 2 == len(rep.edge_chains[e]) % 2


def test_refinement_growth_slope():
    # quartic growth with a fitted log-log slope under 4.3
    pts = []
    for n in (31, 61, 101):
        Q, _ = surface_report(n)
        B = canonical_basis(Q)
        pts.append((n, refine_census(Q, B).f_vector[2]))
    assert [f2 for _, f2 in pts] == [441100, 4356040, 44836660]
    xs = [math.log(n) for n, _ in pts]
    ys = [math.log(f2) for _, f2 in pts]
    mx, my = sum(xs) / 3, sum(ys) / 3
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )
    assert slope <= 4.3


# ---------------------------------------------------------------------------
# ribbon surgery and neighborhood certificates


def test_torus_surgery_end_to_end():
    T = torus_complex(2)
    rep = refine_report(T, canonical_basis(T))
    Qpp, Bpp, certs, chains = regularize_with_chains(
        rep.complex, rep.basis, rep.edge_chains
    )
    assert validate(Qpp).is_complex
    assert Qpp.f_vector() == (928, 1856, 928)
    assert Bpp.curve_lengths() == (24, 32)
    assert [len(c.columns) for c in certs] == [24, 32]
    assert verify_neighborhoods(Qpp, Bpp, certs)
    assert verify_basis(Qpp, Bpp)
    assert betti_numbers(Qpp).betti == (1, 2, 1)
    # surgery adds two edges per crossing detour: parity survives
    for e in rep.edge_chains:
        assert len(chains[e]) % 2 == len(rep.edge_chains[e]) % 2


def test_torus_pair_meets_in_one_vertex():
    T = torus_complex(2)
    rep = refine_report(T, canonical_basis(T))
    Qp, Bp = rep.complex, rep.basis
    _, Bpp, _, _ = regularize_with_chains(Qp, Bp, {})
    a, b = Bpp.curves
    assert len(set(a) & set(b)) == 1


def test_genus_zero_surgery_is_identity():
    Q, _ = surface_report(11)
    rep = refine_report(Q, canonical_basis(Q))
    Qp, Bp = rep.complex, rep.basis
    Qpp, Bpp, certs, _ = regularize_with_chains(Qp, Bp, {})
    assert Qpp is Qp
    assert certs == ()


def test_forged_certificate_fails():
    T = torus_complex(2)
    rep = refine_report(T, canonical_basis(T))
    Qp, Bp = rep.complex, rep.basis
    Qpp, Bpp, certs, _ = regularize_with_chains(Qp, Bp, {})
    cert = certs[0]
    cols = list(cert.columns)
    cols[0], cols[1] = cols[1], cols[0]
    forged = type(cert)(cert.curve, tuple(cols))
    assert not verify_neighborhoods(Qpp, Bpp, (forged,) + certs[1:])


def test_duplicated_path_fails_verification():
    T = torus_complex(2)
    rep = refine_report(T, canonical_basis(T))
    Qp, Bp = rep.complex, rep.basis
    forged = EdgePathBasis(Bp.genus, (Bp.curves[0], Bp.curves[0]))
    assert not verify_basis(Qp, forged)
