"""Core cube model: canonical forms, closure, validation, links."""

import logging
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from cubulations import core
from cubulations.core import (
    BoundReport,
    CubeComplex,
    CubeComplexError,
    MalformedCubeError,
    OddCycleError,
    ValidationReport,
    _link_shapes,
    _link_spans,
    _reachable,
    bipartite_classes,
    build_complex,
    canonical,
    canonical_with_sign,
    cube_faces,
    manifold_check,
    pseudomanifold_check,
    upper_bound_checks,
    validate,
    vertex_link,
)
from cubulations.fileio import FormatError, dumps_complex, loads_complex
from cubulations.transforms import boundary_complex

SOLID_CUBE = (0, 1, 2, 3, 4, 5, 6, 7)


def boundary_c3() -> CubeComplex:
    return build_complex(2, list(cube_faces(SOLID_CUBE)))


def boundary_columns(C: CubeComplex, k: int) -> list[dict[int, int]]:
    """Columns of partial_k as the incidence index holds them: column j
    maps the index in C.cells[k - 1] of each facet of the j-th k-cell to
    its coefficient."""
    ids, coeffs = C.incidence().facets(k)
    w = 2 * k
    return [dict(zip(ids[i:i + w], coeffs[i:i + w]))
            for i in range(0, len(ids), w)]


# ---------------------------------------------------------------------------
# canonical form


def _orbit_with_signs(corners):
    """Brute-force enumeration of the symmetry group (reference oracle)."""
    k = len(corners).bit_length() - 1
    out = []
    for perm in permutations(range(k)):
        inv = 0
        for i in range(k):
            for j in range(i + 1, k):
                if perm[i] > perm[j]:
                    inv += 1
        psign = -1 if inv % 2 else 1
        for refl in range(1 << k):
            rsign = -1 if bin(refl).count("1") % 2 else 1
            arr = tuple(
                corners[refl ^ sum(((c >> j) & 1) << perm[j] for j in range(k))]
                for c in range(1 << k)
            )
            out.append((arr, psign * rsign))
    return out


@st.composite
def small_cubes(draw, max_id=60):
    k = draw(st.integers(min_value=0, max_value=3))
    ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=max_id),
            min_size=1 << k,
            max_size=1 << k,
            unique=True,
        )
    )
    return tuple(ids)


@given(small_cubes())
@settings(max_examples=300)
def test_canonical_matches_group_minimum(corners):
    orbit = _orbit_with_signs(corners)
    best = min(arr for arr, _ in orbit)
    best_sign = next(s for arr, s in orbit if arr == best)
    got, sign = canonical_with_sign(corners)
    assert got == best
    assert sign == best_sign


@given(small_cubes())
@settings(max_examples=200)
def test_canonical_is_idempotent_and_orbit_invariant(corners):
    c, s = canonical_with_sign(corners)
    assert canonical_with_sign(c) == (c, 1)
    for arr, _ in _orbit_with_signs(corners):
        assert canonical(arr) == c


def test_canonical_signs_compose_over_the_orbit():
    corners = (3, 9, 1, 7)
    c, s = canonical_with_sign(corners)
    for arr, rel in _orbit_with_signs(corners):
        # arr = corners relabeled by an element of sign rel
        assert canonical_with_sign(arr) == (c, s * rel)


def test_same_square_different_corner_array():
    # both arrays describe the square with diagonals {0,3} and {1,2}
    assert canonical((0, 2, 1, 3)) == (0, 1, 2, 3)
    assert build_complex(2, [(0, 2, 1, 3)]) == build_complex(2, [(0, 1, 2, 3)])


def test_malformed_cubes_rejected():
    for dim, corners, why in ((2, (), "length 0 is not a power of two"),
                              (2, (0, 1, 2), "length 3 is not a power of two"),
                              (2, (0, 1, 1, 2), "repeated corner"),
                              (1, (0, -1), "negative vertex id"),
                              (1, (0, 1, 2, 3), "dimension 2 exceeds")):
        with pytest.raises(MalformedCubeError, match=why):
            build_complex(dim, [(0, 1), corners])


# ---------------------------------------------------------------------------
# build + f-vector


def test_boundary_of_cube_f_vector():
    C = boundary_c3()
    assert C.f_vector() == (8, 12, 6)
    assert C.euler_characteristic() == 2
    assert pseudomanifold_check(C)
    assert manifold_check(C, 2)


def test_solid_cube_f_vector():
    C = build_complex(3, [SOLID_CUBE])
    assert C.f_vector() == (8, 12, 6, 1)
    assert C.euler_characteristic() == 1
    assert not pseudomanifold_check(C)  # squares lie in one cube only
    # a square with a dangling edge is not pure
    assert not pseudomanifold_check(build_complex(2, [(0, 1, 2, 3), (3, 4)]))


def test_build_deduplicates_symmetric_copies():
    C = build_complex(2, [(0, 1, 2, 3), (0, 2, 1, 3), (3, 1, 2, 0)])
    assert C.f_vector() == (4, 4, 1)


def test_build_requires_dense_ids():
    with pytest.raises(MalformedCubeError, match="dense"):
        build_complex(2, [(0, 1, 2, 4)])
    with pytest.raises(MalformedCubeError, match="negative vertex count -3"):
        build_complex(2, [], n_vertices=-3)
    C = build_complex(2, [(0, 1, 2, 3)], n_vertices=4)
    assert C.n_vertices == 4


def test_maximal_cells_of_non_pure_complex():
    C = build_complex(2, [(0, 1, 2, 3), (3, 4)])
    m = C.maximal_cells()
    assert m[2] == ((0, 1, 2, 3),)
    assert m[1] == ((3, 4),)
    assert m[0] == ()


# ---------------------------------------------------------------------------
# validation


def test_two_squares_sharing_an_edge_are_valid():
    C = build_complex(2, [(0, 1, 2, 3), (2, 3, 4, 5)])
    assert C.f_vector() == (6, 7, 2)
    rep = validate(C)
    assert rep.is_complex
    assert rep.violations == ()


def test_two_squares_sharing_a_diagonal_are_invalid():
    C = build_complex(2, [(0, 1, 2, 3), (3, 4, 0, 5)])
    rep = validate(C)
    assert not rep.is_complex
    assert any(reason == "shared-diagonal" for *_, reason in rep.violations)


def test_three_shared_vertices_is_a_non_face_intersection():
    C = build_complex(2, [(0, 1, 2, 3), (0, 1, 4, 3)])
    rep = validate(C)
    assert not rep.is_complex
    assert any(reason == "non-face intersection" for *_, reason in rep.violations)


def test_boundary_cube_is_valid_closed_pseudomanifold():
    C = boundary_c3()
    assert validate(C).is_complex and pseudomanifold_check(C)


def test_validate_decides_only_the_face_property(monkeypatch):
    def refuse(C):
        raise AssertionError("validate ran pseudomanifold_check")

    monkeypatch.setattr(core, "pseudomanifold_check", refuse)
    assert validate(boundary_c3()) == ValidationReport(True, ())


# ---------------------------------------------------------------------------
# links, manifolds, bounds, bipartition


def test_vertex_link_of_boundary_cube_is_triangle_cycle():
    link = vertex_link(boundary_c3(), 0)
    assert {s for s in link if len(s) == 1} == {
        frozenset({1}),
        frozenset({2}),
        frozenset({4}),
    }
    assert {s for s in link if len(s) == 2} == {
        frozenset({1, 2}),
        frozenset({1, 4}),
        frozenset({2, 4}),
    }


def test_manifold_check_rejects_pinched_surface():
    # two squares glued at a single vertex: link at the pinch is two points
    C = build_complex(2, [(0, 1, 2, 3), (3, 4, 5, 6)])
    assert not manifold_check(C, 2)


def test_manifold_check_dim1_counts_every_vertex():
    cycle = [(0, 1), (1, 2), (2, 3), (0, 3)]
    assert manifold_check(build_complex(1, cycle), 1)
    # an isolated vertex has no edge, so its link is empty, not two points
    assert not manifold_check(build_complex(1, cycle + [(4,)]), 1)


def test_manifold_check_dim3_boundary_c4():
    c4 = tuple(range(16))
    C = build_complex(3, list(cube_faces(c4)))
    assert C.f_vector() == (16, 32, 24, 8)
    assert manifold_check(C, 3)


def test_manifold_check_of_another_dimension_and_above_three():
    C4 = tuple(range(16))
    S3 = build_complex(3, list(cube_faces(C4)))
    assert not manifold_check(S3, 2) and not manifold_check(S3, 4)
    # d > 3 gives the pseudomanifold verdict: yes on the boundary of the
    # 5-cube, no on the solid 4-cube, each of whose ridges is in one facet
    S4 = boundary_complex(build_complex(5, [tuple(range(32))]))
    assert S4.dim == 4 and pseudomanifold_check(S4)
    assert manifold_check(S4, 4)
    assert not manifold_check(build_complex(4, [C4]), 4)


def test_upper_bound_checks_on_boundary_cube():
    rep = upper_bound_checks(boundary_c3())
    assert isinstance(rep, BoundReport)
    assert rep.facet_bound == 8 * 7 // 4
    assert rep.facet_bound_ok
    assert rep.cube_bound is None


def test_upper_bound_checks_dim3():
    c4 = tuple(range(16))
    C = build_complex(3, list(cube_faces(c4)))
    rep = upper_bound_checks(C)
    assert rep.facet_bound_ok
    assert rep.cube_bound == 16 * 16 // 24
    assert rep.cube_bound_ok


def test_bipartite_classes_of_boundary_cube():
    zero, one = bipartite_classes(boundary_c3())
    assert zero == frozenset({0, 3, 5, 6})
    assert one == frozenset({1, 2, 4, 7})


def assert_odd_closed_walk(C: CubeComplex, walk: list[int]) -> None:
    edges = set(C.cells[1])
    assert walk[0] == walk[-1]
    assert all(tuple(sorted(step)) in edges for step in zip(walk, walk[1:]))
    assert (len(walk) - 1) % 2 == 1


def test_bipartite_classes_odd_cycle():
    C = CubeComplex.from_cells(1, 3, {1: [(0, 1), (0, 2), (1, 2)], 0: [(0,), (1,), (2,)]})
    with pytest.raises(OddCycleError) as got:
        bipartite_classes(C)
    assert_odd_closed_walk(C, got.value.args[1])


def test_bipartite_classes_witness_off_the_root():
    # an edge 0-1, then a square 2-3-4-5 with a pentagon 4-6-7-8-9
    # hung off it
    C = build_complex(1, [(0, 1), (2, 3), (3, 4), (4, 5), (2, 5), (4, 6),
                          (6, 7), (7, 8), (8, 9), (4, 9)])
    with pytest.raises(OddCycleError) as got:
        bipartite_classes(C)
    walk = got.value.args[1]
    assert walk[0] == 2  # the least vertex of the odd component
    assert_odd_closed_walk(C, walk)


def test_reachable_returns_the_breadth_first_tree():
    adj = {0: [2, 1], 1: [3], 2: [3, 0], 3: [4], 4: [], 5: [0]}
    tree = _reachable(0, adj.__getitem__)
    assert list(tree.items()) == [(0, None), (2, 0), (1, 0), (3, 2), (4, 3)]


# ---------------------------------------------------------------------------
# interchange format (fileio is the one serializer)


def test_text_round_trip():
    C = boundary_c3()
    text = dumps_complex(C)
    assert text.splitlines()[0] == "cubecomplex 2 8"
    assert loads_complex(text) == C
    assert dumps_complex(loads_complex(text)) == text


def test_text_comments_and_errors():
    good = "# comment\ncubecomplex 2 4\ncube 2 0 1 2 3  # inline\n"
    assert loads_complex(good).f_vector() == (4, 4, 1)
    with pytest.raises(FormatError, match="cubecomplex"):
        loads_complex("cube 2 0 1 2 3\n")
    with pytest.raises(FormatError, match="corners"):
        loads_complex("cubecomplex 2 4\ncube 2 0 1 2\n")
    with pytest.raises(FormatError, match="'cube' line"):
        loads_complex("cubecomplex 2 4\nsquare 0 1 2 3\n")


# ---------------------------------------------------------------------------
# the incidence index against brute force


@st.composite
def small_complexes(draw):
    """Closure of a few random cubes, some hollowed to their facets, on a
    small vertex pool (so they overlap), with ids made dense."""
    tops = []
    for cube in draw(st.lists(small_cubes(max_id=11), min_size=1, max_size=5)):
        if len(cube) >= 4 and draw(st.booleans()):
            tops.extend(cube_faces(cube))
        else:
            tops.append(cube)
    dense = {v: i for i, v in enumerate(sorted({v for c in tops for v in c}))}
    dim = max(len(c).bit_length() - 1 for c in tops)
    return build_complex(dim, [tuple(dense[v] for v in c) for c in tops])


def _link_by_scan(C, v):
    simplices = set()
    for k in range(1, C.dim + 1):
        for cell in C.cells[k]:
            if v in cell:
                pos = cell.index(v)
                simplices.add(frozenset(cell[pos ^ (1 << j)] for j in range(k)))
    return {frozenset(sub) for s in simplices
            for r in range(1, len(s) + 1) for sub in combinations(s, r)}


def _facet_table_by_canonicalising(C, k):
    """(ids, coeffs) of every k-cell's facets, in cube_faces order."""
    row = {c: i for i, c in enumerate(C.cells[k - 1])}
    ids, coeffs = [], []
    for cell in C.cells[k]:
        for t, face in enumerate(cube_faces(cell)):
            canon, sign = canonical_with_sign(face)
            ids.append(row[canon])
            coeffs.append(sign * (-1) ** (t >> 1) * (1 if t & 1 else -1))
    return ids, coeffs


def _boundary_by_canonicalising(C, k):
    ids, coeffs = _facet_table_by_canonicalising(C, k)
    w = 2 * k
    return [dict(zip(ids[w * i:w * i + w], coeffs[w * i:w * i + w]))
            for i in range(len(C.cells[k]))]


def _facets_by_canonicalising(C, k):
    return {canonical(f) for c in C.cells.get(k, ()) for f in cube_faces(c)}


def _rim_by_count(C):
    count = {}
    for cell in C.cells[C.dim]:
        for f in cube_faces(cell):
            count[canonical(f)] = count.get(canonical(f), 0) + 1
    return {f for f, n in count.items() if n == 1}


@given(small_complexes())
@settings(max_examples=150, deadline=None)
def test_vertex_link_matches_a_scan_of_all_cells(C):
    for v in range(C.n_vertices):
        assert vertex_link(C, v) == _link_by_scan(C, v)


def _check_handed_facet_table(C):
    """C's constructor (build_complex, a product or remove_facet) fills in
    its facet table, in 4-byte ids; it must equal the one the index builds
    lazily on a copy, and the brute-force reference."""
    assert sorted(C.incidence()._facets) == list(range(1, C.dim + 1))
    lazy = CubeComplex.from_cells(C.dim, C.n_vertices, C.cells).incidence()
    assert not lazy._facets
    for k in range(1, C.dim + 1):
        ids, coeffs = C.incidence().facets(k)
        assert (ids.typecode, coeffs.typecode) == ("i", "b")
        want = _facet_table_by_canonicalising(C, k)
        assert (list(ids), list(coeffs)) == want
        ids, coeffs = lazy.facets(k)
        assert (list(ids), list(coeffs)) == want


@given(small_complexes())
@settings(max_examples=150, deadline=None)
def test_build_complex_hands_its_facet_table_to_the_index(C):
    _check_handed_facet_table(C)


@given(st.permutations(range(16)))
@settings(max_examples=20, deadline=None)
def test_handed_facet_table_of_a_relabelled_4_cube(perm):
    _check_handed_facet_table(build_complex(4, [tuple(perm)]))
    _check_handed_facet_table(build_complex(3, list(cube_faces(perm))))


@given(small_complexes())
@settings(max_examples=100, deadline=None)
def test_cofaces_invert_the_facet_table_once(C):
    inc = C.incidence()
    for k in range(C.dim):
        ptr, owners = inc.cofaces(k)
        assert inc.cofaces(k) is inc.cofaces(k)
        ids, _ = inc.facets(k + 1)
        w = 2 * (k + 1)
        for j in range(len(C.cells[k])):
            assert list(owners[ptr[j]:ptr[j + 1]]) == \
                [i for i in range(len(C.cells[k + 1])) if j in ids[w * i:w * i + w]]


@given(small_complexes())
@settings(max_examples=150, deadline=None)
def test_boundary_columns_match_canonical_signs(C):
    for k in range(1, C.dim + 1):
        cols = boundary_columns(C, k)
        assert cols == _boundary_by_canonicalising(C, k)
        if k > 1:
            low = boundary_columns(C, k - 1)
            for col in cols:
                prod = {}
                for i, v in col.items():
                    for r, w in low[i].items():
                        prod[r] = prod.get(r, 0) + v * w
                assert not any(prod.values())


@given(small_complexes())
@settings(max_examples=150, deadline=None)
def test_maximal_cells_match_a_scan(C):
    m = C.maximal_cells()
    assert sorted(m) == list(range(C.dim + 1))
    for k in range(C.dim + 1):
        covered = _facets_by_canonicalising(C, k + 1)
        assert m[k] == tuple(c for c in C.cells[k] if c not in covered)


def _boundary_by_rebuild(C):
    """The rim renumbered in the order of its vertex ids and closed again
    by build_complex (reference oracle)."""
    rim = sorted(_rim_by_count(C))
    new = {v: i for i, v in enumerate(sorted({v for c in rim for v in c}))}
    return build_complex(C.dim - 1, [tuple(new[v] for v in c) for c in rim],
                         n_vertices=len(new))


@given(small_complexes())
@settings(max_examples=150, deadline=None)
def test_boundary_complex_rim_matches_a_face_count(C):
    rim = _rim_by_count(C)
    got = C.incidence().rim()
    assert got == sorted(got)
    assert {C.cells[C.dim - 1][i] for i in got} == rim
    if not rim:
        with pytest.raises(CubeComplexError, match="closed"):
            boundary_complex(C)
        return
    assert boundary_complex(C) == _boundary_by_rebuild(C)


def _closure_by_canonicalising(C, k, ids):
    """The cells the k-cells at ids generate, per level, closed by
    canonicalising cube_faces level by level (reference oracle)."""
    level = {C.cells[k][i] for i in ids}
    out = [level]
    for _ in range(k):
        level = {canonical(f) for c in level for f in cube_faces(c)}
        out.append(level)
    return out[::-1]


@given(small_complexes(), st.data())
@settings(max_examples=150, deadline=None)
def test_closure_matches_canonicalising_the_faces(C, data):
    inc = C.incidence()
    for k in range(C.dim + 1):
        n = len(C.cells[k])
        ids = data.draw(st.lists(st.integers(0, n - 1), max_size=4)
                        if n else st.just([]))
        levels = inc.closure(k, ids)
        assert len(levels) == k + 1
        assert all(level == sorted(set(level)) for level in levels)
        assert [{C.cells[j][i] for i in level}
                for j, level in enumerate(levels)] \
            == _closure_by_canonicalising(C, k, ids)


# ---------------------------------------------------------------------------
# structural checks against the canonicalising oracles


def _spread(sub, positions):
    out = 0
    i = 0
    while sub:
        if sub & 1:
            out |= 1 << positions[i]
        sub >>= 1
        i += 1
    return out


def _shared_face(cell, shared):
    """If the positions of `shared` in `cell` form a subcube, its canonical
    corner array; else None."""
    pos = [i for i, v in enumerate(cell) if v in shared]
    if len(pos) != len(shared):
        return None
    t = pos[0]
    offsets = {p ^ t for p in pos}
    mask = 0
    for x in offsets:
        mask |= x
    bits = [j for j in range(mask.bit_length()) if (mask >> j) & 1]
    if len(offsets) != 1 << len(bits):
        return None
    if any(x & ~mask for x in offsets):
        return None
    face = tuple(cell[t ^ _spread(s, bits)] for s in range(1 << len(bits)))
    return canonical(face)


def _validate_by_canonicalising(C):
    """The pair check that canonicalises each shared face in both cells."""
    maximal = []
    for k in sorted(C.maximal_cells(), reverse=True):
        maximal.extend(C.maximal_cells()[k])
    by_vertex = {}
    for idx, cell in enumerate(maximal):
        for v in cell:
            by_vertex.setdefault(v, []).append(idx)
    pair_counts = {}
    for members in by_vertex.values():
        for key in combinations(members, 2):
            pair_counts[key] = pair_counts.get(key, 0) + 1
    violations = []
    for (a, b), cnt in pair_counts.items():
        if cnt < 2:
            continue
        ca, cb = maximal[a], maximal[b]
        shared = frozenset(ca) & frozenset(cb)
        fa = _shared_face(ca, shared)
        fb = _shared_face(cb, shared)
        if fa is None or fb is None or fa != fb:
            reason = "shared-diagonal" if len(shared) == 2 else "non-face intersection"
            violations.append((ca, cb, reason))
    violations.sort()
    return ValidationReport(not violations, tuple(violations))


def _link_graph(link):
    adj = {next(iter(s)): [] for s in link if len(s) == 1}
    for s in link:
        if len(s) == 2:
            a, b = s
            if a not in adj or b not in adj:
                return None
            adj[a].append(b)
            adj[b].append(a)
    return adj


def _connected(adj):
    seen, todo = set(), [next(iter(adj))]
    while todo:
        x = todo.pop()
        if x not in seen:
            seen.add(x)
            todo.extend(adj[x])
    return len(seen) == len(adj)


def link_is_single_cycle(link):
    adj = _link_graph(link)
    if not adj or any(len(ns) != 2 for ns in adj.values()):
        return False
    return _connected(adj)


def link_is_path(link):
    adj = _link_graph(link)
    if not adj or len(adj) < 2:
        return False
    if sorted(map(len, adj.values())) != [1, 1] + [2] * (len(adj) - 2):
        return False
    return _connected(adj)


def link_shape(link):
    """"sphere" or "disk" when the simplicial 2-complex link is a 2-sphere
    or a disk, else None: it has a triangle, is connected, the link of
    each of its vertices is a single cycle (for a disk, a cycle or a
    path, and a path somewhere), and its Euler characteristic is 2 (for
    a disk, 1)."""
    adj = _link_graph(link)
    if not any(len(s) == 3 for s in link) or not adj or not _connected(adj):
        return None
    around = [{s - {u} for s in link if u in s and len(s) > 1} for u in adj]
    shapes = {"cycle" if link_is_single_cycle(sub)
              else "path" if link_is_path(sub) else None for sub in around}
    chi = sum((-1) ** (len(s) - 1) for s in link)
    if shapes == {"cycle"} and chi == 2:
        return "sphere"
    if None not in shapes and "path" in shapes and chi == 1:
        return "disk"
    return None


def manifold_check_by_links(C, d):
    """manifold_check for d = 2 and 3, from the simplicial links."""
    def check(link):
        return link_is_single_cycle(link) if d == 2 \
            else link_shape(link) == "sphere"

    return d == C.dim and all(check(vertex_link(C, v))
                              for v in range(C.n_vertices))


def repeats_a_link_simplex(C, v):
    """Whether two cells of C at v span the same link simplex."""
    spans = [frozenset(s) for k in range(1, C.dim + 1)
             for s in _link_spans(C, v, k)]
    return len(set(spans)) < len(spans)


def link_verdict(C, link):
    """The oracle's verdict on a vertex link of the 2- or 3-complex C, in
    _link_shapes' words."""
    if C.dim == 3:
        return link_shape(link)
    return "sphere" if link_is_single_cycle(link) \
        else "disk" if link_is_path(link) else None


def assert_checks_match_the_oracles(C):
    """validate, violations in order, agrees with its oracle. In C's
    dimension, 2 or 3, the verdict on every vertex link whose cells span
    distinct link simplices agrees with the simplicial link's, and so
    does manifold_check when no vertex has repeated ones. A complex with
    repeated link simplices at some vertex is refused by validate."""
    rep = validate(C)
    assert rep == _validate_by_canonicalising(C)
    if C.dim not in (2, 3):
        return
    repeats = [repeats_a_link_simplex(C, v) for v in range(C.n_vertices)]
    assert not (rep.is_complex and any(repeats))
    shapes = _link_shapes(C)
    assert [s for s, r in zip(shapes, repeats) if not r] == [
        link_verdict(C, vertex_link(C, v))
        for v, r in enumerate(repeats) if not r]
    if not any(repeats):
        assert manifold_check(C, C.dim) == manifold_check_by_links(C, C.dim)


@st.composite
def tangled_complexes(draw, dim=3, max_vertices=16):
    """build_complex of a few random cubes on 8 to max_vertices vertices,
    so that they overlap: shared diagonals, cells sharing 3, 4 or 5
    corners, and twisted copies (the same corners in another arrangement).
    Cubes of dimension dim + 1 are replaced by their facets."""
    pool = range(draw(st.integers(min_value=8, max_value=max_vertices)))
    tops = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        k = draw(st.integers(min_value=1, max_value=min(dim + 1, 3)))
        cube = tuple(draw(st.permutations(pool))[:1 << k])
        copies = [cube]
        if k > 1 and draw(st.booleans()):
            copies.append(tuple(draw(st.permutations(cube))))
        for c in copies:
            tops.extend(cube_faces(c) if k > dim else [c])
    dense = {v: i for i, v in enumerate(sorted({v for c in tops for v in c}))}
    top = max(len(c).bit_length() - 1 for c in tops)
    return build_complex(top, [tuple(dense[v] for v in c) for c in tops])


@given(tangled_complexes())
@settings(max_examples=300, deadline=None)
def test_structural_checks_match_the_oracles(C):
    assert_checks_match_the_oracles(C)


@given(tangled_complexes(dim=2, max_vertices=10))
@settings(max_examples=200, deadline=None)
def test_surface_checks_match_the_oracles(C):
    assert_checks_match_the_oracles(C)


def test_twisted_squares_on_one_vertex_set():
    C = build_complex(2, [(0, 1, 2, 3), (0, 1, 3, 2)])
    rep = validate(C)
    assert rep.violations == (((0, 1, 2, 3), (0, 1, 3, 2),
                               "non-face intersection"),)
    assert rep == _validate_by_canonicalising(C)


@pytest.mark.parametrize("second, reasons", [
    ((0, 1, 2, 8, 9, 10, 11, 12), ["non-face intersection"]),  # 3 corners
    ((0, 1, 2, 3, 8, 9, 10, 11), []),                           # a square
    ((0, 3, 1, 2, 8, 9, 10, 11), ["non-face intersection"]),    # twisted
    ((0, 3, 5, 6, 8, 9, 10, 11), ["non-face intersection"]),    # no subcube
    ((0, 1, 2, 8, 9, 10, 11, 3), ["non-face intersection"]),    # a square
    # of the first cube, but no subcube of the second
    ((0, 1, 2, 3, 4, 8, 9, 10), ["non-face intersection"]),     # 5 corners
    ((0, 7, 8, 9, 10, 11, 12, 13), ["shared-diagonal"]),
])
def test_cubes_sharing_corners(second, reasons):
    C = build_complex(3, [tuple(range(8)), second])
    rep = validate(C)
    assert [r for *_, r in rep.violations] == reasons
    assert rep == _validate_by_canonicalising(C)


def test_four_cubes_sharing_a_cube_or_a_twisted_one():
    tail = tuple(range(16, 24))
    C = build_complex(4, [tuple(range(16)), tuple(range(8)) + tail])
    assert validate(C).is_complex
    D = build_complex(4, [tuple(range(16)), (0, 1, 2, 3, 4, 5, 7, 6) + tail])
    assert [r for *_, r in validate(D).violations] == ["non-face intersection"]
    for X in (C, D):
        assert validate(X) == _validate_by_canonicalising(X)


def test_pinched_vertex_matches_the_oracles():
    # two cube boundaries glued at vertex 7
    C = build_complex(2, list(cube_faces(tuple(range(8))))
                      + list(cube_faces(tuple(range(7, 15)))))
    assert validate(C).is_complex and not manifold_check(C, 2)
    assert_checks_match_the_oracles(C)


def test_edge_in_three_squares_matches_the_oracles():
    C = build_complex(2, [(0, 1, 2, 3), (0, 1, 4, 5), (0, 1, 6, 7)])
    assert validate(C).is_complex and not pseudomanifold_check(C)
    assert not manifold_check(C, 2)
    assert_checks_match_the_oracles(C)


def test_two_cubes_at_a_vertex_match_the_oracles():
    C = build_complex(3, [tuple(range(8)), tuple(range(7, 15))])
    assert validate(C).is_complex and not manifold_check(C, 3)
    assert_checks_match_the_oracles(C)


def _cubical_cone(triangles):
    """The cubes at an apex 0 whose link is the given triangulated surface
    on vertices 1..: the cube on a < b < c has corners 0, a, b, c, one
    vertex per link edge and one per triangle."""
    ids = {}

    def vertex(key):
        return ids.setdefault(key, len(ids) + 1)

    cubes = []
    for t in triangles:
        a, b, c = (vertex(x) for x in sorted(t))
        cubes.append((0, a, b, vertex((a, b)), c, vertex((a, c)),
                      vertex((b, c)), vertex(tuple(t))))
    return build_complex(3, cubes)


TORUS_7 = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)] \
    + [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)]
OCTAHEDRON = [(a, b, c) for a in (10, 11) for b in (12, 13) for c in (14, 15)]
RP2_6 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
         (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]


@pytest.mark.parametrize("triangles, sphere", [
    (OCTAHEDRON, True),
    (TORUS_7, False),                 # every edge in two triangles, chi 0
    (RP2_6, False),                   # chi 1
    (OCTAHEDRON + TORUS_7, False),    # chi 2, not connected
])
def test_apex_link_of_a_cubical_cone(triangles, sphere):
    C = _cubical_cone(triangles)
    assert (_link_shapes(C)[0] == "sphere") is sphere
    assert_checks_match_the_oracles(C)


HALF_OCTAHEDRON = [(10, b, c) for b in (12, 13) for c in (14, 15)]
# a second octahedron on 10 and 11 and four new vertices: the two spheres
# meet in two vertices and no edge
TWIN_OCTAHEDRA = OCTAHEDRON + [(a, b, c) for a in (10, 11)
                               for b in (16, 17) for c in (18, 19)]


@pytest.mark.parametrize("triangles, shape", [
    (HALF_OCTAHEDRON, "disk"),
    (HALF_OCTAHEDRON[:1], "disk"),
    # two triangles at one vertex: connected, chi 1, each edge on one
    (HALF_OCTAHEDRON[:1] + [(10, 16, 17)], None),
    # every edge on two triangles, connected, chi 2, but not a sphere
    (TWIN_OCTAHEDRA, None),
    (HALF_OCTAHEDRON + [(20, 21, 22)], None),     # chi 2, not connected
])
def test_apex_link_shapes(triangles, shape):
    C = _cubical_cone(triangles)
    assert _link_shapes(C)[0] == shape
    assert_checks_match_the_oracles(C)


def _block(n):
    """The n x n x n block of unit cubes, vertex (x, y, z) numbered
    x + (n + 1) y + (n + 1)^2 z."""
    m = n + 1
    return build_complex(3, [
        tuple(x + (c & 1) + m * (y + (c >> 1 & 1)) + m * m * (z + (c >> 2))
              for c in range(8))
        for x in range(n) for y in range(n) for z in range(n)])


def test_solid_link_of_a_block_and_of_a_pinch():
    cube, block = _block(1), _block(2)
    assert _link_shapes(cube) == ["disk"] * 8
    shapes = _link_shapes(block)
    assert shapes[13] == "sphere"    # the centre
    assert [v for v in range(27) if shapes[v] != "disk"] == [13]
    pinch = build_complex(3, [tuple(range(8)), tuple(range(7, 15))])
    shapes = _link_shapes(pinch)
    assert shapes[7] is None
    assert shapes[0] == shapes[14] == "disk"
    for C in (cube, block, pinch):
        assert_checks_match_the_oracles(C)


@pytest.mark.parametrize("dim, tops", [
    # two squares on the edges 01 and 02: a circle of two link edges
    (2, [(0, 1, 2, 3), (0, 1, 2, 4)]),
    # two cubes on seven shared corners: two triangles on one boundary
    (3, [tuple(range(8)), (0, 1, 2, 3, 4, 5, 6, 8)]),
], ids=["two-squares", "two-cubes"])
def test_cells_on_one_link_simplex_count_with_multiplicity(dim, tops):
    # the cells at vertex 0 give the same link simplex twice; the reader
    # counts both, where the simplicial link keeps one, and validate
    # refuses the complex
    C = build_complex(dim, tops)
    assert not validate(C).is_complex
    assert repeats_a_link_simplex(C, 0)
    assert _link_shapes(C)[0] == "sphere"
    assert link_verdict(C, vertex_link(C, 0)) == "disk"


def test_boundary_c4_matches_the_oracles():
    C = build_complex(3, list(cube_faces(tuple(range(16)))))
    assert validate(C).is_complex and pseudomanifold_check(C)
    assert manifold_check(C, 3)
    assert_checks_match_the_oracles(C)


def test_validate_logs_one_debug_record(caplog):
    C = build_complex(2, [(0, 1, 2, 3), (3, 4, 0, 5), (5, 6, 7, 8)])
    with caplog.at_level(logging.DEBUG, logger="cubulations.core"):
        validate(C)
    records = [r for r in caplog.records if r.name == "cubulations.core"]
    assert len(records) == 1
    msg = records[0].getMessage()
    assert "3 maximal cells, pairs by shared vertices {1: 1, 2: 1}, " \
        "1 violations" in msg
