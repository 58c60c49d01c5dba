"""Homology: boundary operators, SNF, field ranks, surface classification."""

import logging
import re
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from cubulations import core
from cubulations.core import (
    CubeComplex,
    CubeComplexError,
    build_complex,
    canonical,
    cube_faces,
    validate,
    vertex_link,
)
from cubulations import topology
from cubulations.topology import (
    HomologyProfile,
    NonSurfaceLinkError,
    _choose_pivot,
    _isolate_pivot,
    _SparseMat,
    betti_numbers,
    homology_sphere_check,
    orientation_assignment,
    rank_mod_p,
    rank_over_q,
    smith_invariant_factors,
    surface_invariants,
)
from cubulations.sphere_builder import sphere3
from cubulations.surface_gen import surface_report
from cubulations.transforms import remove_facet, torus_complex
from test_core import (
    boundary_columns,
    link_is_path,
    link_is_single_cycle,
    repeats_a_link_simplex,
    small_complexes,
    tangled_complexes,
)

SOLID_CUBE = tuple(range(8))


def boundary_c3():
    return build_complex(2, list(cube_faces(SOLID_CUBE)))


def boundary_c4():
    return build_complex(3, list(cube_faces(tuple(range(16)))))


def torus_4x4():
    def v(i, j):
        return 4 * (i % 4) + (j % 4)

    tops = [
        (v(i, j), v(i + 1, j), v(i, j + 1), v(i + 1, j + 1))
        for i in range(4)
        for j in range(4)
    ]
    return build_complex(2, tops)


def klein_4x4():
    # like the torus but the i = 3 strip glues back with j reversed
    def v(i, j):
        return 4 * (i % 4) + (j % 4)

    tops = []
    for i in range(3):
        for j in range(4):
            tops.append((v(i, j), v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)))
    for j in range(4):
        tops.append((v(3, j), v(0, -j), v(3, j + 1), v(0, -j - 1)))
    return build_complex(2, tops)


def two_spheres():
    """Two disjoint cube boundaries."""
    return build_complex(2, list(cube_faces(tuple(range(8))))
                         + list(cube_faces(tuple(range(8, 16)))))


def pinched_spheres():
    """Two cube boundaries that share vertex 7."""
    return build_complex(2, list(cube_faces(tuple(range(8))))
                         + list(cube_faces(tuple(range(7, 15)))))


def relabel(C, mapping):
    """C with each vertex v renamed mapping[v] and every cell put in
    canonical form again; its ids run up to the largest new one."""
    cells = {k: {canonical([mapping[v] for v in c]) for c in level}
             for k, level in C.cells.items()}
    return CubeComplex.from_cells(C.dim, max(mapping.values()) + 1, cells)


def sphere_wedge(S, T):
    """S and T glued at vertex 0 of each."""
    shift = {v: v + S.n_vertices - 1 if v else 0
             for v in range(T.n_vertices)}
    tops = list(S.maximal_cells()[S.dim]) \
        + list(relabel(T, shift).maximal_cells()[T.dim])
    return build_complex(S.dim, tops)


def dunce_hat():
    """A cubulated dunce hat: a 9-gon whose rim b0..b8 reads
    P u w P u w P w u (a a a^-1, with a = P u w P), an inner ring r0..r8
    and a centre c, with triangles (b_i, b_i+1, r_i+1), (b_i, r_i, r_i+1)
    and (c, r_i, r_i+1), each cut into three squares at its barycentre
    and edge midpoints. Contractible, and with no free edge."""
    rim = [0, 1, 2, 0, 1, 2, 0, 2, 1]  # P = 0, u = 1, w = 2
    ring = [3 + i for i in range(9)]
    centre = 12
    mids: dict = {}

    def mid(x, y):
        return mids.setdefault(frozenset((x, y)), 13 + len(mids))

    triangles = []
    for i in range(9):
        j = (i + 1) % 9
        triangles += [(rim[i], rim[j], ring[j]), (rim[i], ring[i], ring[j]),
                      (centre, ring[i], ring[j])]
    tops = []
    for t, (x, y, z) in enumerate(triangles):
        barycentre = 13 + 39 + t  # after the 39 edge midpoints
        for v, p, q in ((x, y, z), (y, z, x), (z, x, y)):
            tops.append((v, mid(v, p), mid(v, q), barycentre))
    return build_complex(2, tops)


def sphere_wedge_moore_space(n=35):
    """S^2 v M(Z/3, 1): the boundary of the grid cube [0, n]^3, and a 6x6
    grid disc whose 24 boundary edges wrap three times around an 8-edge
    circle through the sphere's vertex (0, 0, 0)."""
    ids = {}

    def vid(key):
        return ids.setdefault(key, len(ids))

    tops = []
    for axis in range(3):
        u, w = (x for x in range(3) if x != axis)
        for side in (0, n):
            for a in range(n):
                for b in range(n):
                    corners = []
                    for j in (0, 1):
                        for i in (0, 1):
                            p = [0, 0, 0]
                            p[axis], p[u], p[w] = side, a + i, b + j
                            corners.append(vid(tuple(p)))
                    tops.append(tuple(corners))
    circle = [vid((0, 0, 0))] + [vid(("circle", i)) for i in range(1, 8)]

    def disc(i, j):
        if 0 < i < 6 and 0 < j < 6:
            return vid(("disc", i, j))
        # position on the 24-edge boundary walk, wrapped onto the circle
        walk = i if j == 0 else 6 + j if i == 6 else 18 - i if j == 6 \
            else 24 - j
        return circle[walk % 8]

    tops += [(disc(i, j), disc(i + 1, j), disc(i, j + 1), disc(i + 1, j + 1))
             for i in range(6) for j in range(6)]
    return build_complex(2, tops)


# ---------------------------------------------------------------------------
# boundary matrices


def test_single_edge_matrix():
    C = build_complex(1, [(0, 1)])
    assert C.cells[0] == ((0,), (1,))
    assert C.cells[1] == ((0, 1),)
    assert boundary_columns(C, 1) == [{0: -1, 1: 1}]


def test_single_square_columns_sum_to_zero():
    C = build_complex(2, [(0, 1, 2, 3)])
    col = boundary_columns(C, 2)[0]
    assert sorted(col.values()) == [-1, -1, 1, 1]
    assert sum(col.values()) == 0


def test_boundary_squared_is_zero():
    for C in (boundary_c3(), boundary_c4(), torus_4x4(), klein_4x4(),
              build_complex(3, [SOLID_CUBE])):
        for k in range(2, C.dim + 1):
            low = boundary_columns(C, k - 1)
            for col in boundary_columns(C, k):
                prod = {}
                for i, v in col.items():
                    for r, w in low[i].items():
                        prod[r] = prod.get(r, 0) + v * w
                assert all(x == 0 for x in prod.values())


def test_rank_of_boundary2_of_cube_boundary():
    cols = boundary_columns(boundary_c3(), 2)
    assert len(smith_invariant_factors(cols)) == 5
    assert rank_mod_p(cols, 2) == 5
    assert rank_mod_p(cols, 97) == 5
    assert rank_over_q(cols) == 5


# ---------------------------------------------------------------------------
# Smith normal form against an independent implementation


@st.composite
def sparse_int_matrices(draw, max_size=6,
                        entries=st.integers(min_value=-4, max_value=4)):
    nrows = draw(st.integers(min_value=1, max_value=max_size))
    ncols = draw(st.integers(min_value=1, max_value=max_size))
    dense = draw(
        st.lists(
            st.lists(entries, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return dense


def _to_columns(dense):
    ncols = len(dense[0])
    cols = [dict() for _ in range(ncols)]
    for i, row in enumerate(dense):
        for j, v in enumerate(row):
            if v:
                cols[j][i] = v
    return cols


@given(sparse_int_matrices())
@settings(max_examples=250, deadline=None)
def test_smith_matches_sympy(dense):
    import sympy
    from sympy.matrices.normalforms import smith_normal_form

    cols = _to_columns(dense)
    got = smith_invariant_factors(cols)
    M = sympy.Matrix(dense)
    S = smith_normal_form(M, domain=sympy.ZZ)
    want = sorted(
        abs(S[i, i]) for i in range(min(S.shape)) if S[i, i] != 0
    )
    assert got == want
    assert len(got) == M.rank()  # rational rank agrees
    for p in (2, 3, 5):
        assert rank_mod_p(cols, p) == sum(1 for d in got if d % p)


def test_smith_divisibility_chain():
    cols = _to_columns([[2, 0], [0, 3]])
    assert smith_invariant_factors(cols) == [1, 6]
    cols = _to_columns([[4, 0], [0, 6]])
    assert smith_invariant_factors(cols) == [2, 12]


# ---------------------------------------------------------------------------
# the pivot choice against the full Markowitz scan


def _pivot_by_full_scan(M):
    """The pivot rule as one scan over every candidate, the oracle for
    _choose_pivot: the unit of least Markowitz cost, ties to the least
    (i, j); with no unit left, the entry of least (|v|, i, j)."""
    if M.units:
        return min(
            M.units,
            key=lambda ij: (
                (len(M.rows[ij[0]]) - 1) * (len(M.col_index[ij[1]]) - 1),
                ij,
            ),
        )
    best = None
    for i in sorted(M.rows):
        for j, v in sorted(M.rows[i].items()):
            cand = (abs(v), i, j)
            if best is None or cand < best:
                best = cand
    return best[1], best[2]


def pivots_checked_by_full_scan(columns):
    """Eliminate as smith_invariant_factors does, asserting at every step
    that _choose_pivot picks the oracle's pivot. Returns each pivot with
    how _choose_pivot found it."""
    M = _SparseMat(columns)
    found = []
    while M.rows:
        i, j, how = _choose_pivot(M)
        assert (i, j) == _pivot_by_full_scan(M)
        found.append((i, j, how))
        i, j = _isolate_pivot(M, i, j)
        M.set(i, j, 0)
    return found


# up to 12 x 12, with zeros, units and larger entries, so that pivots come
# from the cost-0 pass, the full scan and the non-unit rule
pivot_matrices = sparse_int_matrices(
    12, st.sampled_from([0, 0, 0, 1, -1, 1, -1, 2, -2, 3, 4]))


@given(pivot_matrices)
@settings(max_examples=300, deadline=None)
def test_pivot_is_the_full_scans(dense):
    cols = _to_columns(dense)
    found = pivots_checked_by_full_scan(cols)
    assert len(found) == len(smith_invariant_factors(cols))


SMITH_RECORD = re.compile(
    r"smith_invariant_factors: (\d+) x (\d+), (\d+) nonzeros; pivots (\d+) "
    r"cost-0, (\d+) by Markowitz scan, (\d+) non-unit; (\d+) row and "
    r"(\d+) column operations, \d+\.\d{4} s")


def smith_record_counts(caplog, columns):
    """smith_invariant_factors(columns) and the counts of its one record."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="cubulations.topology"):
        factors = smith_invariant_factors(columns)
    records = [r.getMessage() for r in caplog.records
               if r.name == "cubulations.topology"]
    assert len(records) == 1
    m = SMITH_RECORD.fullmatch(records[0])
    assert m, records[0]
    return factors, tuple(map(int, m.groups()))


def test_smith_logs_how_each_pivot_was_found(caplog):
    # (2, 2) is alone in its column; then every unit left shares its row
    # and its column, so the scan picks (0, 0); -2 is left
    cols = _to_columns([[1, 1, 0], [1, -1, 0], [0, 2, 1]])
    assert [how for *_, how in pivots_checked_by_full_scan(cols)] == \
        [topology._COST0, topology._SCAN, topology._NON_UNIT]
    factors, counts = smith_record_counts(caplog, cols)
    assert factors == [1, 1, 2]
    assert counts == (3, 3, 6, 1, 1, 1, 1, 2)
    # nothing to eliminate, nothing logged
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="cubulations.topology"):
        assert smith_invariant_factors([{}, {}]) == []
    assert not caplog.records


# ---------------------------------------------------------------------------
# Betti numbers


def test_boundary_c4_is_a_3_sphere():
    prof = betti_numbers(boundary_c4())
    assert prof.betti == (1, 0, 0, 1)
    assert all(not t for t in prof.torsion)
    assert prof.euler == 0
    assert homology_sphere_check(boundary_c4(), 3)


def test_torus_betti():
    prof = betti_numbers(torus_4x4())
    assert prof.betti == (1, 2, 1)
    assert all(not t for t in prof.torsion)
    assert not homology_sphere_check(torus_4x4(), 2)


def test_torus_fast_path_agrees_with_generic_elimination():
    C = torus_4x4()
    cols1 = boundary_columns(C, 1)
    cols2 = boundary_columns(C, 2)
    r1 = len(smith_invariant_factors(cols1))
    r2 = len(smith_invariant_factors(cols2))
    f = C.f_vector()
    want = (f[0] - r1, f[1] - r1 - r2, f[2] - r2)
    assert betti_numbers(C).betti == want == (1, 2, 1)


def betti_over(prof, coeff):
    """Betti numbers over Q ("q") or over the field of p elements (a prime
    p) from an integral profile, by universal coefficients: b_k over F_p
    is b_k plus the torsion factors of H_k and of H_(k-1) that p divides."""
    if coeff == "q":
        return prof.betti
    divisible = [sum(1 for t in ts if t % coeff == 0) for ts in prof.torsion]
    return tuple(b + divisible[k] + (divisible[k - 1] if k else 0)
                 for k, b in enumerate(prof.betti))


def test_klein_bottle_torsion():
    prof = betti_numbers(klein_4x4())
    assert prof.betti == (1, 1, 0)
    assert prof.torsion[1] == (2,)
    assert betti_over(prof, 2) == (1, 2, 1)  # mod 2 sees the torsion
    assert betti_over(prof, "q") == (1, 1, 0)


def test_snf_size_guard():
    # integer homology has no size limit; every ring is exact on the ball
    prof = betti_numbers(build_complex(3, [SOLID_CUBE]))
    assert prof.betti == (1, 0, 0, 0)
    assert not any(prof.torsion)
    for coeff in ("q", 2, 3):
        assert betti_over(prof, coeff) == (1, 0, 0, 0)


def test_surface_fast_path_ignores_threshold():
    # the closed-surface certificate is exact in every coefficient ring
    prof = betti_numbers(torus_4x4())
    assert prof.betti == (1, 2, 1)
    assert not any(prof.torsion)
    for coeff in ("q", 2, 3):
        assert betti_over(prof, coeff) == (1, 2, 1)


def test_odd_torsion_is_seen_above_twenty_thousand_cells():
    X = sphere_wedge_moore_space()
    assert sum(X.f_vector()) == 29538
    assert not homology_sphere_check(X, 2)
    prof = betti_numbers(X)
    assert prof.betti == (1, 0, 1)
    assert prof.torsion[1] == (3,)
    assert not (prof.betti[1] == 0 and not prof.torsion[1])
    assert betti_over(prof, 3) == (1, 1, 2)
    assert betti_over(prof, 2) == (1, 0, 1)


def _betti_by_full_matrices(C, coeff):
    """Reference: invariant factors or ranks of the full boundary matrices."""
    d, f = C.dim, C.f_vector()
    cols = [None] + [boundary_columns(C, k) for k in range(1, d + 1)]
    inv = [[]] + [smith_invariant_factors(cols[k]) for k in range(1, d + 1)] \
        + [[]]
    if coeff in ("z", "q"):
        ranks = [len(x) for x in inv]
    else:
        ranks = [0] + [rank_mod_p(cols[k], coeff) for k in range(1, d + 1)] \
            + [0]
    betti = tuple(f[k] - ranks[k] - ranks[k + 1] for k in range(d + 1))
    torsion = tuple(tuple(x for x in inv[k + 1] if x > 1) if coeff == "z"
                    else () for k in range(d + 1))
    return betti, torsion


def _assert_matches_full_matrices(C):
    prof = betti_numbers(C)
    assert (prof.betti, prof.torsion) == _betti_by_full_matrices(C, "z")
    for coeff in ("q", 2, 3):
        assert betti_over(prof, coeff) == _betti_by_full_matrices(C, coeff)[0]


@given(small_complexes())
@settings(max_examples=150, deadline=None)
def test_reduced_homology_matches_full_matrices(C):
    _assert_matches_full_matrices(C)


def test_reduced_homology_matches_full_matrices_on_fixed_complexes():
    for C in (torus_4x4(), klein_4x4(), boundary_c4()):
        _assert_matches_full_matrices(C)


def test_betti_numbers_logs_one_debug_record(caplog):
    with caplog.at_level(logging.DEBUG, logger="cubulations.topology"):
        betti_numbers(boundary_c4())
    records = [r for r in caplog.records if r.name == "cubulations.topology"]
    assert len(records) == 1
    # the 3-sphere reduces to a single 3-cell
    assert "remainder [0, 0, 0, 0, 1]" in records[0].getMessage()


def test_collapse_logs_one_debug_record(caplog):
    with caplog.at_level(logging.DEBUG, logger="cubulations.topology"):
        assert homology_sphere_check(boundary_c4(), 3)
    records = [r for r in caplog.records if r.name == "cubulations.topology"]
    assert len(records) == 1  # certified: no betti_numbers reduction
    assert re.fullmatch(
        r"reduce: 80 cells, dropped 3-cell 0, 39 pairs removed, 1 cells "
        r"left, certified contractible; 39 pairs by collapse, remainder "
        r"\[0, 0, 0, 0, 0\] in dimensions -1\.\.3, \d+\.\d{3} s",
        records[0].getMessage())


def test_stuck_collapse_logs_its_fallback(caplog):
    W = sphere_wedge(boundary_c3(), boundary_c3())
    assert W.f_vector() == (15, 24, 12)
    assert betti_numbers(W).betti == (1, 0, 2)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="cubulations.topology"):
        assert not homology_sphere_check(W, 2)
    messages = [r.getMessage() for r in caplog.records
                if r.name == "cubulations.topology"]
    assert len(messages) == 2
    # the five squares left of the first sphere collapse; the other
    # sphere's squares have no free edge, so the collapse stops after the
    # top level, and coreductions leave one square: the other sphere
    assert "51 cells, dropped 2-cell 0, 24 pairs removed, 2 cells left, " \
        "undecided; 5 pairs by collapse, remainder [0, 0, 0, 1] " \
        in messages[0]
    # betti_numbers' own reduction: one square per sphere
    assert "51 cells, dropped none, 24 pairs removed, 3 cells left, " \
        "undecided; 0 pairs by collapse, remainder [0, 0, 0, 2] " \
        in messages[1]


def test_dunce_hat_is_acyclic_but_does_not_collapse(caplog):
    D = dunce_hat()
    assert validate(D).is_complex
    assert D.f_vector() == (79, 159, 81)
    with caplog.at_level(logging.DEBUG, logger="cubulations.topology"):
        prof = betti_numbers(D)
    assert prof.betti == (1, 0, 0) and not any(prof.torsion)
    records = [r.getMessage() for r in caplog.records
               if r.getMessage().startswith("reduce:")]
    # every edge lies in two or three squares, so nothing collapses
    assert len(records) == 1 and "; 0 pairs by collapse," in records[0]


@given(small_complexes())
@settings(max_examples=150, deadline=None)
def test_reduction_less_a_top_cell_matches_the_full_matrices(C):
    """C less the open top cell i reduces to nothing exactly when
    remove_facet(C, i) is acyclic by the full boundary matrices."""
    d = C.dim
    acyclic = ((1,) + (0,) * d, ((),) * (d + 1))
    for i, cell in enumerate(C.cells[d]):
        assert topology._reduces_to_nothing(C, drop=i) == (
            _betti_by_full_matrices(remove_facet(C, cell), "z") == acyclic)


@given(st.permutations(list(range(16))))
@settings(max_examples=25, deadline=None)
def test_betti_invariant_under_relabeling(perm):
    C = torus_4x4()
    D = relabel(C, {v: perm[v] for v in range(16)})
    assert betti_numbers(D).betti == (1, 2, 1)


# ---------------------------------------------------------------------------
# surfaces


def test_surface_invariants_sphere_and_torus():
    assert surface_invariants(boundary_c3()) == (True, True, 0)
    assert surface_invariants(torus_4x4()) == (True, True, 1)
    # closed and orientable, but in two parts
    assert surface_invariants(two_spheres()) == (True, True, None)
    assert orientation_assignment(two_spheres())[1:] == (None, 2)


def test_surface_invariants_disk():
    C = build_complex(2, [(0, 1, 2, 3), (2, 3, 4, 5)])
    closed, orientable, genus = surface_invariants(C)
    assert (closed, orientable, genus) == (False, True, None)


def test_surface_invariants_klein_bottle():
    closed, orientable, genus = surface_invariants(klein_4x4())
    assert closed and not orientable and genus is None
    signs, witness, _ = orientation_assignment(klein_4x4())
    assert signs == [] and witness is not None


def test_surface_invariants_pinched_vertex_error():
    C = build_complex(2, [(0, 1, 2, 3), (3, 4, 5, 6)])
    with pytest.raises(NonSurfaceLinkError, match="3"):
        surface_invariants(C)


def test_surface_invariants_needs_a_2_complex():
    with pytest.raises(CubeComplexError, match="needs a 2-complex"):
        surface_invariants(boundary_c4())


def _connected_by_edges(C):
    """Whether the edges of C join all its vertices, by a walk of its own
    over C.cells[1]."""
    adj = {v: [] for v in range(C.n_vertices)}
    for a, b in C.cells[1]:
        adj[a].append(b)
        adj[b].append(a)
    seen, todo = {0}, [0]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == C.n_vertices


def _surface_invariants_by_links(C, skip):
    """surface_invariants, deciding each vertex but those in skip from its
    simplicial link, orientability by the edge walk below and
    connectedness by the vertices' own walk."""
    for v in range(C.n_vertices):
        link = vertex_link(C, v)
        if v not in skip and not (link_is_single_cycle(link)
                                  or link_is_path(link)):
            raise NonSurfaceLinkError(v)
    ptr, _ = C.incidence().cofaces(1)
    closed = bool(C.cells.get(2)) and all(
        ptr[e + 1] - ptr[e] == 2 for e in range(len(ptr) - 1))
    orientable = _orientation_by_edge_walk(C)[0]
    genus = None
    if closed and orientable and _connected_by_edges(C):
        genus = (2 - C.euler_characteristic()) // 2
    return closed, orientable, genus


def assert_surface_invariants_match_the_oracle(C):
    """The same triple, or NonSurfaceLinkError at the same vertex, deciding
    by the simplicial link every vertex whose squares span distinct link
    edges. At a vertex where two span the same one the reader counts both
    (see test_core) and the simplicial link one, so surface_invariants may
    also refuse C at such a vertex first; validate refuses every such C."""
    repeats = {v for v in range(C.n_vertices)
               if repeats_a_link_simplex(C, v)}
    try:
        want = _surface_invariants_by_links(C, repeats)
    except NonSurfaceLinkError as e:
        with pytest.raises(NonSurfaceLinkError) as got:
            surface_invariants(C)
        v = got.value.vertex
        assert v == e.vertex or v in repeats and v < e.vertex
        return
    try:
        assert surface_invariants(C) == want
    except NonSurfaceLinkError as e:
        assert e.vertex in repeats


@given(tangled_complexes(dim=2, max_vertices=10))
@settings(max_examples=200, deadline=None)
def test_surface_invariants_match_the_link_oracle(C):
    if C.dim == 2:
        assert_surface_invariants_match_the_oracle(C)


@pytest.mark.parametrize("make", [
    lambda: build_complex(2, [(0, 1, 2, 3), (3, 4, 5, 6)]),
    pinched_spheres,
    lambda: build_complex(2, [(0, 1, 2, 3), (0, 1, 4, 5), (0, 1, 6, 7)]),
    lambda: build_complex(2, [(0, 1, 2, 3), (2, 3, 4, 5)]),
    lambda: build_complex(2, [(0, 1, 2, 3), (0, 1, 3, 2)]),
    boundary_c3, torus_4x4, klein_4x4, two_spheres,
], ids=["pinched-squares", "pinched-spheres", "edge-in-three", "disk",
        "twisted-pair", "sphere", "torus", "klein", "two-spheres"])
def test_surface_invariants_fixed_cases_match_the_oracle(make):
    assert_surface_invariants_match_the_oracle(make())


def _orientation_by_edge_walk(C):
    """orientation_assignment, walking each square's boundary a-b-d-c and
    indexing the squares on every edge by that walk: (ok, sign per square,
    conflict, components seeded)."""
    squares = C.cells.get(2, ())
    edge_use = {}
    for idx, (a, b, c, d) in enumerate(squares):
        walk = (a, b, d, c, a)
        for t in range(4):
            u, v = walk[t], walk[t + 1]
            key = (u, v) if u < v else (v, u)
            edge_use.setdefault(key, []).append((idx, 1 if u < v else -1))
    sign = {}
    parts = 0
    for seed in range(len(squares)):
        if seed in sign:
            continue
        sign[seed] = 1
        parts += 1
        stack = [seed]
        while stack:
            cur = stack.pop()
            a, b, c, d = squares[cur]
            walk = (a, b, d, c, a)
            for t in range(4):
                u, v = walk[t], walk[t + 1]
                key = (u, v) if u < v else (v, u)
                direction = 1 if u < v else -1
                for other, odir in edge_use[key]:
                    if other == cur:
                        continue
                    want = -sign[cur] * direction * odir
                    if other not in sign:
                        sign[other] = want
                        stack.append(other)
                    elif sign[other] != want:
                        return (False, {}, (squares[cur], squares[other], key),
                                parts)
    return True, {squares[i]: s for i, s in sign.items()}, None, parts


def assert_orientation_matches_the_edge_walk(C):
    """The same verdict, signs and components; a conflict names two
    squares on its edge. A component either has a conflict or has none,
    whatever order it is walked in, so both walks stop in the same one."""
    signs, witness, parts = orientation_assignment(C)
    want_ok, want_signs, _, want_parts = _orientation_by_edge_walk(C)
    got = (witness is None, dict(zip(C.cells.get(2, ()), signs)), parts)
    assert got == (want_ok, want_signs, want_parts)
    if witness is not None:
        a, b, (u, v) = witness
        assert a != b and {u, v} <= set(a) and {u, v} <= set(b)
        assert (u, v) in C.cells[1]


@given(tangled_complexes(dim=2))
@settings(max_examples=300, deadline=None)
def test_orientation_matches_the_edge_walk(C):
    assert_orientation_matches_the_edge_walk(C)


@pytest.fixture(scope="module")
def pillows_11():
    report, _ = sphere3(11, 4, structural=True)
    return report.requests


@pytest.mark.parametrize("make", [
    klein_4x4,
    lambda: build_complex(2, [(0, 1, 2, 3), (0, 1, 4, 5), (0, 1, 6, 7)]),
    torus_4x4,
    lambda: torus_complex(2),
    boundary_c3,
    two_spheres,
], ids=["klein", "edge-in-three", "torus", "torus-product", "sphere",
        "two-spheres"])
def test_orientation_fixed_cases_match_the_edge_walk(make):
    assert_orientation_matches_the_edge_walk(make())


@pytest.mark.parametrize("index", [0, 42])
def test_orientation_of_pillows_matches_the_edge_walk(pillows_11, index):
    assert_orientation_matches_the_edge_walk(pillows_11[index].sphere)


@cache
def census_surface(n):
    return surface_report(n)[0]


def double_torus():
    from test_basis import _double_torus
    return _double_torus()[0]


# connected closed orientable surfaces of genus 0, 1, 1, 2, 0, 61 and 73
SURFACE_PATH_CASES = {
    "sphere": boundary_c3,
    "torus-product": lambda: torus_complex(2),
    "torus": torus_4x4,
    "double-torus": double_torus,
    "Q11": lambda: census_surface(11),
    "Q31": lambda: census_surface(31),
    "Q37": lambda: census_surface(37),
}


@pytest.mark.parametrize("name", [*SURFACE_PATH_CASES, "pillow"])
def test_surface_path_matches_the_reduction(name, pillows_11, monkeypatch):
    """The profile read off surface_invariants' genus is the one the
    reduction and Smith normal form compute."""
    C = pillows_11[0].sphere if name == "pillow" \
        else SURFACE_PATH_CASES[name]()
    _, _, genus = surface_invariants(C)
    fast = topology._surface_profile(C)
    assert fast == HomologyProfile((1, 2 * genus, 1), ((), (), ()),
                                   C.euler_characteristic())
    assert betti_numbers(C) == fast
    monkeypatch.setattr(topology, "_surface_profile", lambda C: None)
    assert betti_numbers(C) == fast


@pytest.mark.parametrize("make, betti", [
    (klein_4x4, (1, 1, 0)),
    (lambda: build_complex(2, [(0, 1, 2, 3), (2, 3, 4, 5)]), (1, 0, 0)),
    (two_spheres, (2, 0, 2)),
    (pinched_spheres, (1, 0, 2)),
], ids=["klein", "disk", "two-spheres", "pinched-spheres"])
def test_surface_path_refuses_other_complexes(make, betti):
    C = make()
    assert topology._surface_profile(C) is None
    assert betti_numbers(C).betti == betti


def test_the_surface_path_walks_the_squares_once(monkeypatch):
    """betti_numbers on a surface runs one orientation walk and no
    pseudomanifold check: topology does not import one."""
    walks = []
    walk = topology.orientation_assignment
    monkeypatch.setattr(topology, "orientation_assignment",
                        lambda C: walks.append(C) or walk(C))

    def refuse(C):
        raise AssertionError("betti_numbers ran pseudomanifold_check")

    monkeypatch.setattr(core, "pseudomanifold_check", refuse)
    assert not hasattr(topology, "pseudomanifold_check")
    C = torus_complex(2)
    assert betti_numbers(C).betti == (1, 2, 1)
    assert len(walks) == 1 and walks[0] is C


def test_euler_equals_alternating_betti_sum():
    for C in (boundary_c3(), boundary_c4(), torus_4x4(), klein_4x4()):
        prof = betti_numbers(C)
        assert prof.euler == sum(
            (-1) ** k * b for k, b in enumerate(betti_over(prof, "q"))
        )
        assert prof.euler == C.euler_characteristic()


# ---------------------------------------------------------------------------
# h1


def _h1_trivial(prof):
    return prof.betti[1] == 0 and not prof.torsion[1]


def test_h1_trivial_cases():
    assert _h1_trivial(betti_numbers(build_complex(3, [SOLID_CUBE])))
    assert not _h1_trivial(betti_numbers(torus_4x4()))
    # torsion counts as nontrivial
    assert not _h1_trivial(betti_numbers(klein_4x4()))
    assert build_complex(0, [(0,)]).dim < 1  # a 0-complex has no b_1
    assert _h1_trivial(betti_numbers(boundary_c3()))
