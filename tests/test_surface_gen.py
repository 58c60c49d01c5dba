"""Tests for the circulant-graph surface generator.

Expected values for n=11 and n=31 were frozen from independent checks:
pairwise square-intersection scans, Euler/conservation identities, and
Smith-normal-form homology on the assembled complexes.
"""

import pytest

from cubulations.core import (
    CubeComplexError,
    bipartite_classes,
    validate,
)
from cubulations.surface_gen import (
    CirculantBipartite,
    CyclePathSplit,
    PathPiece,
    RotationSurface,
    SplitCycle,
    TracedCycle,
    build_graph,
    check_properties,
    cubulate_cycles,
    d_max_for,
    divisibility_table,
    split_paths,
    surface_report,
    trace_cycles,
)
from cubulations.topology import (
    rank_over_q,
    smith_invariant_factors,
    surface_invariants,
)
from cubulations.transforms import apply_gadget
from test_core import boundary_columns

PRIMES = [11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
          71, 73, 79, 83, 89, 97, 101]


# ---------------------------------------------------------------------------
# graph


def test_d_max_values():
    for n, dm in [(11, 1), (29, 1), (31, 3), (47, 3), (53, 5), (67, 5),
                  (71, 7), (89, 7), (97, 9), (101, 9)]:
        assert d_max_for(n) == dm
        assert build_graph(n).d_max == dm


def test_graph_edge_structure():
    G = build_graph(31)
    edges = G.edges()
    assert len(edges) == G.n_edges == 2 * 31 * 3
    assert len(set(edges)) == len(edges)
    degree = {}
    for a, b in edges:
        assert a < 31 <= b  # left-right only
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    assert set(degree.values()) == {2 * G.d_max}
    for a, b in edges:
        d = (b - 31 - a) % 31
        assert d in range(1, 4) or (31 - d) in range(1, 4)


def test_graph_example_sizes():
    assert build_graph(11).n_edges == 22
    assert build_graph(31).n_edges == 186
    assert build_graph(101).n_edges == 1818


def test_build_graph_rejects_bad_n():
    with pytest.raises(CubeComplexError, match="not an odd prime"):
        build_graph(15)
    with pytest.raises(CubeComplexError, match="not an odd prime"):
        build_graph(4)
    with pytest.raises(CubeComplexError, match="too small"):
        build_graph(7)


# ---------------------------------------------------------------------------
# tracing


def test_trace_small_cycle_census():
    R11 = trace_cycles(build_graph(11))
    assert sorted((c.parity, len(c)) for c in R11.cycles) == [
        ("even", 22), ("odd", 22)]
    R31 = trace_cycles(build_graph(31))
    assert sorted((c.parity, len(c)) for c in R31.cycles) == [
        ("even", 62), ("even", 62), ("even", 62), ("odd", 186)]


@pytest.mark.parametrize("n", [11, 31, 53, 101])
def test_trace_conservation_and_euler(n):
    G = build_graph(n)
    R = trace_cycles(G)
    assert sum(len(c) for c in R.cycles) == 2 * G.n_edges
    assert R.euler_characteristic() == 2 * n - G.n_edges + len(R.cycles)
    assert R.genus() == (G.d_max - 1) * (2 * n - 1) // 2


@pytest.mark.parametrize("n", [11, 31, 71])
def test_even_cycles_are_arithmetic(n):
    # an even cycle steps by a constant d, alternating parts
    G = build_graph(n)
    for cyc in trace_cycles(G).cycles:
        if cyc.parity != "even":
            continue
        assert len(cyc) == 2 * n
        d = cyc.states[0][2]
        for (p1, x1, d1), (p2, x2, d2) in zip(cyc.states,
                                              cyc.states[1:] + cyc.states[:1]):
            assert d1 == d2 == d
            assert p2 == 1 - p1
            assert (x2 - x1) % n == d
        assert len(set(cyc.vertices)) == 2 * n  # simple


def test_odd_cycle_difference_sequence():
    # consecutive differences ascend 1..d_max cyclically; the wrap window
    # j, j+d_max, j+d_max+1 is the only even same-part gap
    G = build_graph(31)
    (odd,) = [c for c in trace_cycles(G).cycles if c.parity == "odd"]
    assert len(odd) == 2 * 31 * 3
    diffs = [st[2] for st in odd.states]
    for a, b in zip(diffs, diffs[1:] + diffs[:1]):
        assert b == (a + 1 if a < 3 else 1)
    assert diffs.count(3) == 2 * 31
    for i, st in enumerate(odd.states):
        if st[2] == 1:  # wrap: previous step was d_max
            j = odd.states[i - 2][1]
            mid = odd.states[i - 1][1]
            k = st[1]
            assert (mid - j) % 31 == 3 and (k - mid) % 31 == 1


def test_trace_is_deterministic():
    a = trace_cycles(build_graph(31))
    b = trace_cycles(build_graph(31))
    assert a == b


def test_each_state_in_exactly_one_cycle():
    G = build_graph(31)
    R = trace_cycles(G)
    for parity in ("even", "odd"):
        states = [st for c in R.cycles if c.parity == parity
                  for st in c.states]
        assert len(states) == len(set(states)) == G.n_edges


# ---------------------------------------------------------------------------
# property checks


@pytest.mark.parametrize("n", [11, 31, 53])
def test_properties_hold(n):
    R = trace_cycles(build_graph(n))
    split = split_paths(R)
    rep = check_properties(R, split)
    assert rep.property_i and rep.property_ii and rep.property_iii
    assert rep.witness_i is None and rep.witness_ii is None
    assert rep.c_measured <= 1.2


def test_property_i_negative_control():
    # two "even" cycles sharing the window 0,?,1 must be flagged
    G = CirculantBipartite(4, 1)
    doctored = RotationSurface(G, (
        TracedCycle("even", ((0, 0, 1),) * 4, (0, 4, 1, 5)),
        TracedCycle("even", ((0, 0, 1),) * 4, (0, 6, 1, 7)),
    ))
    rep = check_properties(doctored, CyclePathSplit(()))
    assert not rep.property_i
    assert rep.witness_i is not None
    parity, pair, first, second = rep.witness_i
    assert parity == "even" and pair == (0, 1)


def test_property_ii_negative_control():
    G = CirculantBipartite(4, 1)
    doctored = RotationSurface(G, (
        TracedCycle("even", ((0, 0, 1),) * 6, (0, 4, 1, 5, 0, 6)),))
    rep = check_properties(doctored, CyclePathSplit(()))
    assert not rep.property_ii
    assert rep.witness_ii is not None


# ---------------------------------------------------------------------------
# splitting


def test_divisibility_table():
    table = divisibility_table(31, 3)
    assert [(d, c) for d, c, _ in table] == [
        (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (3, 0)]
    assert [r for _, _, r in table] == [1, 3, 6, 2, 5, 3]
    assert all(r != 0 for _, _, r in table)


@pytest.mark.parametrize("n", PRIMES)
def test_divisibility_table_nonzero_all_primes(n):
    assert all(r != 0 for _, _, r in divisibility_table(n, d_max_for(n)))


def _check_split_consistency(R, split):
    n = R.graph.n
    for cyc, sc in zip(R.cycles, split.cycles):
        pieces = sc.pieces
        assert len(pieces) >= 2
        total = 0
        for piece, nxt in zip(pieces, pieces[1:] + pieces[:1]):
            vs = piece.vertices
            assert len(vs) == len(set(vs))  # simple
            assert len(vs) % 2 == 1 and len(vs) >= 3  # even path length
            want_right = piece.endpoint_class == "right"
            for v in (vs[0], vs[-1]):
                assert (v >= n) == want_right
            assert vs[-1] == nxt.vertices[0]  # chained
            total += len(vs) - 1
        assert total == len(cyc)
        junctions = [p.vertices[0] for p in pieces]
        assert len(junctions) == len(set(junctions))  # distinct hub edges


@pytest.mark.parametrize("n", PRIMES)
def test_split_paths_structure(n):
    R = trace_cycles(build_graph(n))
    _check_split_consistency(R, split_paths(R))


def test_split_even_and_degenerate_cycles():
    R = trace_cycles(build_graph(11))
    split = split_paths(R)
    for cyc, sc in zip(R.cycles, split.cycles):
        assert len(sc.pieces) == 2
        assert sorted(len(p.vertices) - 1 for p in sc.pieces) == [2, 20]
        cls = "left" if cyc.parity == "even" else "right"
        assert all(p.endpoint_class == cls for p in sc.pieces)


def test_split_records_runs_of_length_d_max():
    R = trace_cycles(build_graph(31))
    split = split_paths(R)
    (odd,) = [c for c in split.cycles if c.parity == "odd"]
    assert odd.raw_run_lengths == (3,) * 62  # one run per reset, 2n of them
    evens = [c for c in split.cycles if c.parity == "even"]
    assert all(c.raw_run_lengths == () for c in evens)


def test_split_pieces_walk_the_cycle():
    R = trace_cycles(build_graph(31))
    split = split_paths(R)
    for cyc, sc in zip(R.cycles, split.cycles):
        walk = tuple(v for piece in sc.pieces for v in piece.vertices[:-1])
        # the split walks the traced cycle, possibly from another anchor
        vs = cyc.vertices
        assert len(walk) == len(vs)
        assert any(walk == vs[i:] + vs[:i] for i in range(len(vs)))


# ---------------------------------------------------------------------------
# cubulation


def test_cubulate_n11_frozen():
    G = build_graph(11)
    R = trace_cycles(G)
    C = cubulate_cycles(G, R, split_paths(R))
    assert C.f_vector() == (44, 84, 42)
    assert validate(C).is_complex
    assert surface_invariants(C) == (True, True, 0)
    bipartite_classes(C)  # 1-skeleton stays bipartite


def test_cubulate_n11_no_shared_diagonal_bruteforce():
    # direct pairwise oracle, independent of validate()
    G = build_graph(11)
    R = trace_cycles(G)
    C = cubulate_cycles(G, R, split_paths(R))
    squares = C.cells[2]
    edges = set(C.cells[1])
    diagonals = {}
    for sq in squares:
        for pair in ((sq[0], sq[3]), (sq[1], sq[2])):
            pair = tuple(sorted(pair))
            assert pair not in edges
            assert pair not in diagonals, (pair, diagonals[pair], sq)
            diagonals[pair] = sq


def test_cubulate_n31_frozen():
    G = build_graph(31)
    R = trace_cycles(G)
    split = split_paths(R)
    C = cubulate_cycles(G, R, split)
    S = sum(len(c.pieces) for c in split.cycles)
    assert S == 22
    assert C.f_vector() == (176, 592, 296)
    assert C.f_vector()[0] == 2 * 31 + len(R.cycles) + 5 * S
    assert C.f_vector()[2] == G.n_edges + 5 * S
    assert C.f_vector()[0] <= 2 * 31 + 6 * S
    assert surface_invariants(C) == (True, True, 61)


def test_cubulate_genus_matches_snf_homology():
    # b1 via integer Smith normal form, no surface shortcut involved
    for n, genus in ((11, 0), (31, 61)):
        G = build_graph(n)
        R = trace_cycles(G)
        C = cubulate_cycles(G, R, split_paths(R))
        cols1 = boundary_columns(C, 1)
        cols2 = boundary_columns(C, 2)
        r1 = rank_over_q(cols1)
        r2 = rank_over_q(cols2)
        f = C.f_vector()
        b1 = f[1] - r1 - r2
        assert b1 == 2 * genus
        assert all(x == 1 for x in smith_invariant_factors(cols2))


def test_cubulate_reports_offending_diagonal():
    # a 4-cycle face split in two forces both subcycle squares to share
    # the diagonal of the original face
    G = CirculantBipartite(2, 1)
    cyc = TracedCycle("even", ((0, 0, 1), (1, 1, 1), (0, 1, 1), (1, 0, 1)),
                      (0, 2, 1, 3))
    R = RotationSurface(G, (cyc,))
    P = CyclePathSplit((SplitCycle("even", (
        PathPiece((0, 2, 1), "left"),
        PathPiece((1, 3, 0), "left"),
    ), ()),))
    with pytest.raises(CubeComplexError, match="offending pair"):
        cubulate_cycles(G, R, P)


def test_hub_and_interior_vertex_degrees():
    G = build_graph(31)
    R = trace_cycles(G)
    split = split_paths(R)
    C = cubulate_cycles(G, R, split)
    # hubs are the first new ids, one per cycle, each in two squares per
    # piece of its cycle (the subdivided corner square's side quads)
    base = 2 * 31
    offset = base
    for cyc, sc in zip(R.cycles, split.cycles):
        hub = offset
        offset += 1 + sum(5 for _ in sc.pieces)
        count = sum(1 for sq in C.cells[2] if hub in sq)
        assert count == 2 * len(sc.pieces)


# ---------------------------------------------------------------------------
# driver


def test_n_square_surface_smoke_n11():
    Q = surface_report(11)[0]
    assert Q.f_vector() == (44, 84, 42)
    assert len(Q.cells[2]) % 2 == 0


def test_n_square_surface_parity_gadget():
    # n=37 cubulates to 277 squares; one ten-square subdivision fixes parity
    Q = surface_report(37)[0]
    assert len(Q.cells[2]) == 286
    assert surface_invariants(Q) == (True, True, 73)
    # the gadget is applied before the one build, to the square
    # apply_gadget would pick in the built cubulation
    G = build_graph(37)
    R = trace_cycles(G)
    C = cubulate_cycles(G, R, split_paths(R))
    assert Q == apply_gadget(C, C.cells[2][0], "square_10")


@pytest.mark.parametrize("n", [11, 31, 41])
def test_n_square_surface_survives_checks(n):
    Q = surface_report(n)[0]
    closed, orientable, genus = surface_invariants(Q)
    assert closed and orientable
    assert genus == (d_max_for(n) - 1) * (2 * n - 1) // 2
    assert len(Q.cells[2]) % 2 == 0
    assert len(Q.cells[2]) >= n * d_max_for(n)


def test_surface_report_fields():
    Q, rep = surface_report(31)
    assert (rep.n, rep.d_max, rep.n_even, rep.n_odd) == (31, 3, 3, 1)
    assert rep.genus == 61
    assert rep.f_vector == (176, 592, 296)
    assert rep.even_squares
    assert rep.properties.all_hold()
    assert 0 < rep.c_measured <= 1.2
    assert Q.f_vector() == rep.f_vector
