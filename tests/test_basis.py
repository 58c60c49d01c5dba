"""Homology bases: construction, refinement to edge paths, ribbon surgery."""

import hashlib
import logging
import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import astuple
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from cubulations import basis
from cubulations.basis import (
    BasisError,
    Crossing,
    CurveBasis,
    CurveOnSurface,
    EdgePathBasis,
    FanEvent,
    RegularNeighborhoodCert,
    _crossing_sign,
    _edge,
    _edge_event_key,
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
from cubulations.transforms import glue, remove_facet, torus_complex
from test_topology import pivots_checked_by_full_scan, smith_record_counts


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


def _face_positions(face_cycles, curves):
    """Circular position of every crossing event around every face."""
    at = {}
    for ci, c in enumerate(curves):
        for k, ev in enumerate(c.crossings):
            for face in (ev.f_from, ev.f_to):
                at.setdefault((ev.edge, face), []).append((ev, ci, k))
    pos = {}
    for fi, cyc in enumerate(face_cycles):
        counter = 0
        for i in range(4):
            a, b = cyc[i], cyc[(i + 1) % 4]
            events = at.get((_edge(a, b), fi), [])
            events.sort(key=lambda t: _edge_event_key(t[0], a))
            for ev, ci, k in events:
                pos[(fi, ci, k)] = counter
                counter += 1
    return pos


def _segment_cross_sign(p1, q1, p2, q2):
    def inside(a, x, b):  # x strictly on arc a -> b
        if a < b:
            return a < x < b
        return x > a or x < b
    start_in = inside(p1, p2, q1)
    end_in = inside(p1, q2, q1)
    if start_in == end_in:
        return 0
    return 1 if start_in else -1


def _arrangement_by_positions(Q, curves):
    """arrangement_crossings by the direct construction: a dict of every
    event's position around both of its faces, each edge's events sorted
    once per face, and a sweep of every face's chords by left endpoint."""
    pos = _face_positions(oriented_face_cycles(Q), curves)
    by_face = {}
    for ci, c in enumerate(curves):
        m = len(c.crossings)
        for k, ev in enumerate(c.crossings):
            by_face.setdefault(ev.f_to, []).append((ci, k, (k + 1) % m))
    signed, unsigned = {}, {}
    for fi, triples in by_face.items():
        ivs = []
        for ci, k_in, k_out in triples:
            p, q = pos[(fi, ci, k_in)], pos[(fi, ci, k_out)]
            ivs.append((min(p, q), max(p, q), ci, p, q))
        ivs.sort()
        rs, dat = [], []
        for l, r, c2, p2, q2 in ivs:
            lo = bisect_right(rs, l)
            hi = bisect_left(rs, r)
            for c1, p1, q1 in dat[lo:hi]:
                s = _segment_cross_sign(p1, q1, p2, q2)
                if c1 <= c2:
                    key, val = (c1, c2), s
                else:
                    key, val = (c2, c1), -s
                signed[key] = signed.get(key, 0) + val
                unsigned[key] = unsigned.get(key, 0) + 1
            at = bisect_left(rs, r)
            rs.insert(at, r)
            dat.insert(at, (c2, p2, q2))
    return signed, unsigned


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


def test_curves_that_are_not_partners_must_not_cross_n31(n31, monkeypatch):
    """Curves 0 and 2 lie in different handle pairs. Two crossings of
    theirs with opposite signs leave the pairing unimodular, but the
    curves are no longer disjoint, so the basis is rejected."""
    Q, B = n31
    real = basis.arrangement_crossings

    def crossed(Q, curves):
        signed, unsigned = real(Q, curves)
        unsigned[(0, 2)] = 2
        signed[(0, 2)] = 0
        return signed, unsigned

    monkeypatch.setattr(basis, "arrangement_crossings", crossed)
    assert not verify_basis(Q, B)


def test_pairing_matrix_pivots_all_cost_0_n31(n31, caplog):
    Q, B = n31
    M = pairing_matrix(Q, B)
    cols = [{i: row[j] for i, row in enumerate(M) if row[j]}
            for j in range(len(M))]
    found = pivots_checked_by_full_scan(cols)
    assert len(found) == 122
    factors, counts = smith_record_counts(caplog, cols)
    assert factors == [1] * 122
    # shape, nonzeros, then pivots: 122 cost-0, no scan, no non-unit
    assert counts[:6] == (122, 122, 2856, 122, 0, 0)


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


def test_events_are_named_tuples():
    x = Crossing(edge=(0, 1), vertex=0, depth=2, f_from=3, f_to=4)
    assert Crossing._fields == ("edge", "vertex", "depth", "f_from", "f_to")
    assert FanEvent._fields == ("edge", "vertex", "f_from", "f_to")
    assert (x.edge, x.vertex, x.depth, x.f_from, x.f_to) == ((0, 1), 0, 2, 3, 4)
    y = Crossing((0, 1), 0, 2, 3, 4)
    assert x == y and hash(x) == hash(y)
    assert x != Crossing((0, 1), 0, 2, 4, 3)
    B = canonical_basis(torus_complex(2))
    for c in B.curves:
        assert c.reversed_() != c
        assert c.reversed_().reversed_() == c
    # equal curves of other objects hash alike
    assert len({*B.curves, *map(_copy_curve, B.curves),
                *(c.reversed_() for c in B.curves)}) == 4


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
# the arrangement: flat arrays against the positions oracle, kept per family


@cache
def _surface(name):
    return torus_complex(2) if name == "torus" else surface_report(name)[0]


@cache
def _basis_at(name, root):
    return canonical_basis(_surface(name), root)


BASIS_CASES = [("torus", r) for r in range(16)] + [
    (n, r) for n in (31, 37) for r in (0, 1, 7, 100)]


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:12]


# Per case, digests of the canonical_basis curves (as plain tuples) and
# intersection matrix, of pairing_matrix and of refine_census; taken
# before the arrangement was computed on flat arrays.
BASIS_PINS = {
    ("torus", 0): ('330bc0e5bf6f', 'e6daf3ccc5da', '810e03c9ac27', 'd3474c5f8034'),
    ("torus", 1): ('330bc0e5bf6f', 'e6daf3ccc5da', '810e03c9ac27', 'd3474c5f8034'),
    ("torus", 2): ('87450dbf3b45', 'e6daf3ccc5da', '96e2842b6137', '4d39e3cc4ddb'),
    ("torus", 3): ('bf56b0c85d91', 'e6daf3ccc5da', 'c81871409de2', 'c9ce6128ec27'),
    ("torus", 4): ('6da82a799bf0', 'e6daf3ccc5da', 'c81871409de2', 'd3474c5f8034'),
    ("torus", 5): ('49a6dedaabb0', 'e6daf3ccc5da', 'c81871409de2', '60d892aeb8a4'),
    ("torus", 6): ('1b7d72c3a5b2', 'e6daf3ccc5da', '810e03c9ac27', 'c915f7bee076'),
    ("torus", 7): ('6ebaaf350d1a', 'e6daf3ccc5da', 'c81871409de2', 'd3474c5f8034'),
    ("torus", 8): ('d19c58f247fd', 'e6daf3ccc5da', 'c81871409de2', 'c915f7bee076'),
    ("torus", 9): ('eec51c67d732', 'e6daf3ccc5da', 'b35a6b4503c8', '4d39e3cc4ddb'),
    ("torus", 10): ('92afd1a64250', 'e6daf3ccc5da', '96e2842b6137', '60d892aeb8a4'),
    ("torus", 11): ('a87f139e4299', 'e6daf3ccc5da', 'b35a6b4503c8', 'd3474c5f8034'),
    ("torus", 12): ('6d3612bedb3e', 'e6daf3ccc5da', '810e03c9ac27', 'c915f7bee076'),
    ("torus", 13): ('c73c5a3bb9a5', 'e6daf3ccc5da', '810e03c9ac27', '60d892aeb8a4'),
    ("torus", 14): ('40ed658c8ac1', 'e6daf3ccc5da', 'c81871409de2', 'd3474c5f8034'),
    ("torus", 15): ('ffedd0846860', 'e6daf3ccc5da', '810e03c9ac27', 'd3474c5f8034'),
    (31, 0): ('440f1d996b98', '61085f3dff0c', 'f54f131c8f5f', '043922f6c058'),
    (31, 1): ('3994e699fa6c', '61085f3dff0c', '605fdf21e05b', '5d535b6716a9'),
    (31, 7): ('e3dc5c617f9d', '61085f3dff0c', '5f721414b4ac', '36c84ef45801'),
    (31, 100): ('c47cff294816', '61085f3dff0c', '7fa768669b91', '07d05571dd71'),
    (37, 0): ('e3e461e9617d', 'f6df20f5a189', '35e78bfd0ac4', '5bdf3f48cb9b'),
    (37, 1): ('fcf44f0ebe16', 'f6df20f5a189', '2ec69e23ff21', '1164dedc4113'),
    (37, 7): ('fa8d3e1a0240', 'f6df20f5a189', '88f3d723d14e', 'f8b1c6842765'),
    (37, 100): ('998de23fec77', 'f6df20f5a189', '8507c634c098', 'b151a474fc68'),
}


@pytest.mark.parametrize("name,root", BASIS_CASES)
def test_arrangement_matches_the_positions_oracle(name, root):
    Q, B = _surface(name), _basis_at(name, root)
    assert basis._arrangement(Q, B.curves) == \
        _arrangement_by_positions(Q, B.curves)


@pytest.mark.parametrize("name,root", BASIS_CASES)
def test_basis_outputs_match_their_pins(name, root):
    Q, B = _surface(name), _basis_at(name, root)
    curves = [[(x.edge, x.vertex, x.depth, x.f_from, x.f_to)
               for x in c.crossings] for c in B.curves]
    assert (_digest(curves), _digest(B.intersection_matrix),
            _digest(pairing_matrix(Q, B)),
            _digest(astuple(refine_census(Q, B)))) == BASIS_PINS[(name, root)]


@settings(max_examples=40, deadline=None)
@given(name_root=st.sampled_from(BASIS_CASES[:16] + [(31, 0), (37, 7)]),
       data=st.data())
def test_reversed_family_is_answered_from_the_kept_one(name_root, data):
    Q, B = _surface(name_root[0]), _basis_at(*name_root)
    flip = data.draw(st.sets(st.integers(0, len(B.curves) - 1)))
    family = [c.reversed_() if i in flip else c
              for i, c in enumerate(B.curves)]
    arrangement_crossings(Q, B.curves)
    hits = basis._last_arrangement.hits
    assert arrangement_crossings(Q, family) == \
        _arrangement_by_positions(Q, family)
    assert basis._last_arrangement.hits == hits + 1


def _copy_curve(c):
    return CurveOnSurface(tuple(
        Crossing(x.edge, x.vertex, x.depth, x.f_from, x.f_to)
        for x in c.crossings))


@pytest.fixture
def counted_arrangements(monkeypatch):
    """A fresh kept arrangement, and the list of families _arrangement
    computes from now on."""
    monkeypatch.setattr(basis, "_last_arrangement", basis._LastArrangement())
    computed = []
    real = basis._arrangement

    def counting(Q, curves):
        computed.append(curves)
        return real(Q, curves)
    monkeypatch.setattr(basis, "_arrangement", counting)
    return computed


def test_kept_arrangement_is_sound(counted_arrangements):
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
    # b reversed gets the reversed answer without a computation
    before = len(counted_arrangements)
    assert arrangement_crossings(T, (a, b.reversed_())) == \
        ({(0, 1): -1}, {(0, 1): 1})
    assert len(counted_arrangements) == before
    # b started one event later is the same closed curve, but not equal
    # to b or to b reversed, so it is computed
    rotated = CurveOnSurface(b.crossings[1:] + b.crossings[:1])
    assert arrangement_crossings(T, (a, rotated)) == want
    assert len(counted_arrangements) == before + 1
    assert counted_arrangements[-1] == (a, rotated)
    # b's events in reverse order with their faces unswapped is not b
    # reversed: computed, and not a family of closed normal curves
    backwards = CurveOnSurface(tuple(reversed(b.crossings)))
    with pytest.raises(BasisError, match="continues its curve"):
        arrangement_crossings(T, (a, backwards))
    assert len(counted_arrangements) == before + 2


def test_shared_lanes_are_refused():
    T = torus_complex(2)
    a, b = canonical_basis(T).curves
    with pytest.raises(BasisError, match="lane"):
        arrangement_crossings(T, (a, b, _copy_curve(b)))


@pytest.mark.parametrize("name,root", [("torus", r) for r in range(16)]
                         + [(31, 0)])
def test_a_census_job_computes_one_arrangement(name, root,
                                               counted_arrangements):
    Q = _surface(name)
    B = canonical_basis(Q, root)
    assert verify_basis(Q, B)
    refine_census(Q, B)
    assert len(counted_arrangements) == 1


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
    for family in (B, B, forged):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="cubulations.basis"):
            verify_basis(T, family)
        records = [r for r in caplog.records if r.name == "cubulations.basis"]
        assert len(records) == 1
        m = RECORD.match(records[0].getMessage())
        assert m, records[0].getMessage()
        got.append(m.groups())
    # the canonical basis flips a curve after its own arrangement, and the
    # flipped family is answered from that arrangement, so both checks
    # reuse it
    assert got[0] == ("accepted", "2", "24", "1", "8", "2", "2", "reused")
    assert got[1] == got[0]
    assert got[2][0] == "rejected" and got[2][-1] == "computed"


def test_canonical_basis_logs_one_debug_record(caplog):
    T = torus_complex(2)
    with caplog.at_level(logging.DEBUG, logger="cubulations.basis"):
        canonical_basis(T)
    records = [r.getMessage() for r in caplog.records
               if r.name == "cubulations.basis"]
    assert len(records) == 1
    assert re.fullmatch(r"canonical_basis: 2 curves, 24 crossing events, "
                        r"1 flips, arrangement \d+\.\d{3} s", records[0]), \
        records[0]


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


def _deeper(c, k):
    """c, k lanes deeper on every edge it crosses: a parallel copy."""
    return CurveOnSurface(tuple(x._replace(depth=x.depth + k)
                                for x in c.crossings))


def _lanes_swapped(c):
    """c with the lanes of its two crossings of the first edge it crosses
    twice swapped: the strands cross beside that edge."""
    at = {}
    for i, x in enumerate(c.crossings):
        at.setdefault(x.edge, []).append(i)
    i, j = next(ids for ids in at.values() if len(ids) == 2)
    ev = list(c.crossings)
    ev[i], ev[j] = (ev[i]._replace(vertex=ev[j].vertex, depth=ev[j].depth),
                    ev[j]._replace(vertex=ev[i].vertex, depth=ev[i].depth))
    return CurveOnSurface(tuple(ev))


@pytest.mark.parametrize("forge, record", [
    # a crosses each of its edges three times: refused before any
    # arrangement is computed
    (lambda a, b: (CurveOnSurface(a.crossings * 3), b), None),
    # a with the lanes of its two crossings of one edge swapped crosses
    # itself once, and b once
    (lambda a, b: (_lanes_swapped(a), b), ("rejected", "2", "24", "2", "0")),
    # a and a parallel copy: partners that never cross
    (lambda a, b: (a, _deeper(a, 1)), ("rejected", "2", "20", "0", "0")),
], ids=["edge-crossed-thrice", "self-crossing", "partners-apart"])
def test_curve_verification_refuses_a_planted_fault(caplog, forge, record,
                                                     counted_arrangements):
    T = torus_complex(2)
    B = canonical_basis(T)
    del counted_arrangements[:]
    forged = CurveBasis(B.genus, forge(*B.curves), B.intersection_matrix,
                        B.handle_edges, B.spur_edges)
    with caplog.at_level(logging.DEBUG, logger="cubulations.basis"):
        assert not verify_basis(T, forged)
    [m] = [RECORD.match(r.getMessage()) for r in caplog.records
           if r.name == "cubulations.basis"]
    # verdict, curves, crossing events, curve-pair crossings, loop edges
    assert len(counted_arrangements) == (record is not None)
    if record is not None:
        assert m.groups()[:5] == record


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


TORUS_PATHS = ((0, 1, 2, 3), (0, 4, 8, 12))


@pytest.mark.parametrize("make, paths", [
    (lambda: build_complex(3, [tuple(range(8))]), EdgePathBasis(1, TORUS_PATHS)),
    (lambda: build_complex(2, [(0, 1, 2, 3)]), EdgePathBasis(0, ())),
    (lambda: torus_complex(2), EdgePathBasis(2, TORUS_PATHS)),
    (lambda: torus_complex(2), EdgePathBasis(1, TORUS_PATHS[:1])),
    (lambda: torus_complex(2), EdgePathBasis(1, ((0, 1), TORUS_PATHS[1]))),
    (lambda: torus_complex(2),
     EdgePathBasis(1, ((0, 1, 2, 3, 2, 1), TORUS_PATHS[1]))),
    (lambda: torus_complex(2),
     EdgePathBasis(1, ((0, 5, 10, 15), TORUS_PATHS[1]))),
    # a square's boundary, which meets the row along an edge
    (lambda: torus_complex(2),
     EdgePathBasis(1, (TORUS_PATHS[0], (0, 4, 5, 1)))),
    # two rows: partners that never meet
    (lambda: torus_complex(2),
     EdgePathBasis(1, (TORUS_PATHS[0], (4, 5, 6, 7)))),
], ids=["solid", "disk", "genus", "one-curve", "short", "not-simple",
        "not-edges", "touching", "apart"])
def test_edge_path_verification_refuses_a_planted_fault(make, paths):
    assert not verify_basis(make(), paths)


def test_edge_path_verification_of_a_sphere_needs_no_curves():
    assert verify_basis(boundary_c3(), EdgePathBasis(0, ()))


def test_edge_path_verification_rejects_a_wedge_of_tori():
    # two tori glued at a vertex: valid, closed and orientable, of odd
    # Euler characteristic, and the link at the wedge point is two circles
    T = torus_complex(2)
    P = glue(T, torus_complex(2), {0: 0})
    assert P.f_vector() == (31, 64, 32) and validate(P).is_complex
    assert betti_numbers(P).betti == (1, 4, 2)
    assert not verify_basis(P, EdgePathBasis(1, ((4, 5, 6, 7), (1, 5, 9, 13))))


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


def _double_torus():
    """Two copies of torus_complex(2) less the square on 10, 11, 14, 15,
    glued along its boundary, with a row and a column of each copy: a
    genus-2 surface and an edge-path basis of it. The second copy's
    vertex x off the seam has id 16 + (the number of its ids below x off
    the seam)."""
    T = torus_complex(2)
    seam = (10, 11, 14, 15)
    half = remove_facet(T, seam)
    P = glue(half, half, {v: v for v in seam})
    ids = dict(zip([v for v in range(16) if v not in seam], range(16, 28)))
    ids.update((v, v) for v in seam)
    curves = TORUS_PATHS + tuple(tuple(map(ids.__getitem__, c))
                                 for c in TORUS_PATHS)
    return P, EdgePathBasis(2, curves)


def test_edge_path_verification_refuses_a_vertex_on_three_curves():
    P, B = _double_torus()
    assert surface_invariants(P) == (True, True, 2)
    assert verify_basis(P, B)
    # the first row in place of the second copy's: vertex 0 is on the
    # first row, the first column and the copy of the row
    a, b, _, d = B.curves
    assert not verify_basis(P, EdgePathBasis(2, (a, b, a, d)))


def _flank_cert(Q, path):
    """The certificate regularize_with_chains would write for path: per
    path edge, the two squares on it."""
    inc = Q.incidence()
    edge_id, (ptr, owners) = inc.position(1), inc.cofaces(1)
    cols = []
    for k in range(len(path)):
        e = edge_id[_edge(path[k], path[(k + 1) % len(path)])]
        cols.append(tuple(Q.cells[2][j] for j in owners[ptr[e]:ptr[e + 1]]))
    return RegularNeighborhoodCert(0, tuple(cols))


@pytest.mark.parametrize("path, forge, witness", [
    ((0, 1, 2, 3), None, None),
    # one column short
    ((0, 1, 2, 3), lambda cols: cols[:-1], (0,)),
    # around one square, which flanks every edge of the path
    ((0, 1, 5, 4), None, (0, 1, 4, 5)),
    # along the seam's edge 10-11, where the stars have six squares
    ((8, 9, 10, 11), None, "star"),
    # a square that is not in the surface
    ((0, 1, 2, 3), lambda cols: [((90, 91, 92, 93), cols[0][1]), *cols[1:]],
     (90, 91, 92, 93)),
], ids=["holds", "short", "one-square", "seam-star", "not-a-square"])
def test_neighborhood_check_refuses_a_planted_fault(path, forge, witness):
    Q, _ = _double_torus()
    B = EdgePathBasis(1, (path,))
    cert = _flank_cert(Q, path)
    if forge is not None:
        cert = RegularNeighborhoodCert(0, tuple(forge(list(cert.columns))))
    assert verify_neighborhoods(Q, B, [cert]) is (witness is None)
    if witness == (90, 91, 92, 93):
        return  # refused before the cell-by-cell check
    got = basis._check_cert(basis._curve_stars(Q, B), path, cert)
    if witness == "star":
        # a square at vertex 10 on neither column there
        assert 10 in got and not set(got) & {8, 9, 11}
    else:
        assert got == witness


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
