"""Products, gadgets, glue/cut/boundary, and the warm-up generator."""

import pytest
from hypothesis import given, settings, strategies as st

from cubulations.core import (
    CubeComplex,
    CubeComplexError,
    bipartite_classes,
    build_complex,
    canonical,
    cube_faces,
    manifold_check,
    validate,
)
from cubulations.fileio import dumps_complex
from cubulations.topology import betti_numbers, surface_invariants
from cubulations.transforms import (
    GADGETS,
    CutError,
    GlueError,
    apply_gadget,
    boundary_complex,
    cartesian_product,
    cut_along_curves,
    glue,
    interval_complex,
    remove_facet,
    torus_complex,
    warmup_complex,
)
from test_basis import _double_torus
from test_core import _check_handed_facet_table, small_complexes, \
    tangled_complexes
from test_topology import klein_4x4

SOLID_CUBE = tuple(range(8))


def solid_cube():
    return build_complex(3, [SOLID_CUBE])


def boundary_c3():
    return build_complex(2, list(cube_faces(SOLID_CUBE)))


# ---------------------------------------------------------------------------
# products


def test_edge_times_edge_is_a_square():
    e = interval_complex(1)
    P = cartesian_product(e, e)
    assert P.f_vector() == (4, 4, 1)
    assert validate(P).is_complex


def test_four_cycle_product_is_the_torus():
    T = torus_complex(2)
    assert T.f_vector() == (16, 32, 16)
    assert betti_numbers(T).betti == (1, 2, 1)
    assert surface_invariants(T) == (True, True, 1)


def test_product_f_vector_convolution():
    A = boundary_c3()
    B = interval_complex(3)
    P = cartesian_product(A, B)
    fa, fb, fp = A.f_vector(), B.f_vector(), P.f_vector()
    for k in range(P.dim + 1):
        want = sum(
            fa[i] * fb[k - i]
            for i in range(len(fa))
            if 0 <= k - i < len(fb)
        )
        assert fp[k] == want
    assert P.euler_characteristic() == (
        A.euler_characteristic() * B.euler_characteristic()
    )


def _product_by_closure(A, B):
    """Reference product: the products of the factors' maximal cells, with
    the factor-A coordinates in the low bits, closed by build_complex."""
    nb = B.n_vertices
    amax, bmax = A.maximal_cells(), B.maximal_cells()
    tops = []
    for ka in amax:
        for pa in amax[ka]:
            for kb in bmax:
                for pb in bmax[kb]:
                    tops.append(tuple(pa[cp] * nb + pb[cq]
                                      for cq in range(1 << kb)
                                      for cp in range(1 << ka)))
    return build_complex(A.dim + B.dim, tops,
                         n_vertices=A.n_vertices * B.n_vertices)


def _check_product(A, B):
    P = cartesian_product(A, B)
    assert P == _product_by_closure(A, B)
    for level in P.cells.values():
        for c in level:
            assert canonical(c) == c
    fa, fb = A.f_vector(), B.f_vector()
    assert P.f_vector() == tuple(
        sum(fa[i] * fb[k - i] for i in range(len(fa)) if 0 <= k - i < len(fb))
        for k in range(P.dim + 1))


@given(small_complexes(), st.integers(min_value=1, max_value=3),
       st.booleans())
@settings(max_examples=100, deadline=None)
def test_product_with_an_interval_matches_the_closure(A, k, interval_first):
    I = interval_complex(k)
    if interval_first:
        _check_product(I, A)
    else:
        _check_product(A, I)


@given(small_complexes(), small_complexes())
@settings(max_examples=50, deadline=None)
def test_product_of_two_complexes_matches_the_closure(A, B):
    _check_product(A, B)


POINT = build_complex(0, [(0,)])
TWO_POINTS = build_complex(0, [(0,), (1,)])
FIXED_FACTORS = [POINT, TWO_POINTS, interval_complex(1), interval_complex(3),
                 torus_complex(1), boundary_c3()]


@st.composite
def factors(draw):
    """A fixed factor (points, intervals, a 4-cycle, the boundary of a
    cube) or a small tangled complex, sometimes with its facet table
    dropped, so that the product reads a lazily built one."""
    C = draw(st.one_of(st.sampled_from(FIXED_FACTORS),
                       tangled_complexes(dim=2, max_vertices=10)))
    if draw(st.booleans()):
        C = CubeComplex(C.dim, C.n_vertices, C.cells)
    return C


@given(factors(), factors())
@settings(max_examples=150, deadline=None)
def test_product_facet_table_is_the_lazy_one(A, B):
    P = cartesian_product(A, B)
    assert P == _product_by_closure(A, B)
    _check_handed_facet_table(P)


@pytest.mark.parametrize("A, B", [
    (POINT, boundary_c3()), (boundary_c3(), POINT),
    (TWO_POINTS, torus_complex(1)), (interval_complex(3), TWO_POINTS),
    (POINT, POINT), (torus_complex(1), torus_complex(1)),
    (boundary_c3(), interval_complex(2)), (interval_complex(2), boundary_c3()),
])
def test_product_facet_table_fixed_cases(A, B):
    _check_handed_facet_table(cartesian_product(A, B))


def test_cylinder_counts():
    Q = boundary_c3()
    for k in (1, 4):
        cyl = cartesian_product(Q, interval_complex(k))
        f = cyl.f_vector()
        assert f[0] == (k + 1) * Q.f_vector()[0]
        assert f[3] == k * Q.f_vector()[2]


def test_interval_complex():
    assert interval_complex(1).f_vector() == (2, 1)
    assert interval_complex(2).f_vector() == (3, 2)
    assert interval_complex(11 ** 3).f_vector() == (1332, 1331)
    with pytest.raises(CubeComplexError):
        interval_complex(0)


def test_torus_complex_dims():
    assert torus_complex(1).f_vector() == (4, 4)
    assert torus_complex(3).f_vector() == (64, 192, 192, 64)
    prof = betti_numbers(torus_complex(3))
    assert prof.betti == (1, 3, 3, 1)
    assert all(not t for t in prof.torsion)
    with pytest.raises(CubeComplexError):
        torus_complex(0)


# ---------------------------------------------------------------------------
# gadgets


def check_template(g):
    """Template invariants: right cell/vertex counts, valid pattern, boundary
    of the replaced cell untouched."""
    k = g.cell_dim
    cell = tuple(range(1 << k))
    cells = g.build(cell, 1 << k)
    assert len(cells) == g.n_new_cells
    pattern = build_complex(k, cells)
    assert pattern.n_vertices == (1 << k) + g.n_new_vertices
    rep = validate(pattern)
    assert rep.is_complex, rep.violations
    outer = set(build_complex(k, [cell]).cells[k - 1])
    rim = {pattern.cells[k - 1][i] for i in pattern.incidence().rim()}
    assert rim == outer, \
        "pattern boundary differs from the replaced cell"


@pytest.mark.parametrize("name", sorted(GADGETS))
def test_gadget_templates_are_sound(name):
    check_template(GADGETS[name])


def test_insert_square_5_counts():
    C = build_complex(2, [(0, 1, 2, 3)])
    D = apply_gadget(C, (0, 1, 2, 3), "insert_square_5")
    assert D.f_vector() == (8, 12, 5)
    assert validate(D).is_complex
    assert betti_numbers(D).betti == (1, 0, 0)


def test_insert_square_5_on_sphere():
    D = apply_gadget(boundary_c3(), boundary_c3().cells[2][0], "insert_square_5")
    assert D.f_vector() == (12, 20, 10)
    assert validate(D).is_complex
    assert manifold_check(D, 2)
    assert betti_numbers(D).betti == (1, 0, 1)


def test_inset_cube_7_counts():
    D = apply_gadget(solid_cube(), SOLID_CUBE, "inset_cube_7")
    assert D.f_vector() == (16, 32, 24, 7)
    assert validate(D).is_complex
    assert betti_numbers(D).betti == (1, 0, 0, 0)


def test_square_10_pattern():
    C = build_complex(2, [(0, 1, 2, 3)])
    D = apply_gadget(C, (0, 1, 2, 3), "square_10")
    assert D.f_vector() == (13, 22, 10)
    assert D.euler_characteristic() == 1
    assert validate(D).is_complex
    assert betti_numbers(D).betti == (1, 0, 0)
    bipartite_classes(D)  # no odd cycle
    # boundary is the original 4-cycle
    B = boundary_complex(D)
    assert B.f_vector() == (4, 4)


def test_square_10_changes_facet_parity():
    D = apply_gadget(boundary_c3(), boundary_c3().cells[2][0], "square_10")
    assert D.f_vector()[2] == 6 + 9
    assert validate(D).is_complex
    assert betti_numbers(D).betti == (1, 0, 1)


def test_gadget_errors():
    C = build_complex(2, [(0, 1, 2, 3)])
    with pytest.raises(CubeComplexError, match="replaces"):
        apply_gadget(C, (0, 1), "insert_square_5")
    with pytest.raises(CubeComplexError, match="not in complex"):
        apply_gadget(C, (0, 1, 2, 4), "insert_square_5")
    with pytest.raises(CubeComplexError, match="unknown gadget"):
        apply_gadget(C, (0, 1, 2, 3), "befuddle")
    with pytest.raises(CubeComplexError, match="face of a higher"):
        apply_gadget(solid_cube(), (0, 1, 2, 3), "insert_square_5")


@given(st.integers(min_value=0, max_value=5), st.sampled_from(
    ["insert_square_5", "square_10"]))
@settings(max_examples=24, deadline=None)
def test_gadgets_preserve_homology(idx, name):
    C = boundary_c3()
    D = apply_gadget(C, C.cells[2][idx], name)
    assert validate(D).is_complex
    assert betti_numbers(D).betti == (1, 0, 1)


# ---------------------------------------------------------------------------
# glue


def test_glue_two_solid_cubes_along_a_square():
    A = solid_cube()
    B = solid_cube()
    # B's bottom square onto A's top square (axis 2)
    C = glue(A, B, {0: 4, 1: 5, 2: 6, 3: 7})
    assert C.f_vector() == (12, 20, 11, 2)
    assert validate(C).is_complex


def test_glue_with_map():
    A = build_complex(2, [(0, 1, 2, 3)])
    B = build_complex(2, [(0, 1, 2, 3), (2, 3, 4, 5)])
    C = glue(A, B, {0: 2, 1: 3})
    # identified vertices take their images' ids, the rest of B's get
    # fresh ones from A.n_vertices up, in increasing order: 2..5 -> 4..7
    assert C.n_vertices == 8
    assert C.cells[2] == ((0, 1, 2, 3), (2, 3, 4, 5), (4, 5, 6, 7))
    assert C.f_vector() == (8, 10, 3)


def test_glue_rejects_bad_maps():
    A = build_complex(2, [(0, 1, 2, 3)])
    B = build_complex(2, [(0, 1, 2, 3)])
    with pytest.raises(GlueError, match="injective"):
        glue(A, B, {0: 1, 2: 1})
    with pytest.raises(GlueError, match="isomorphic"):
        glue(A, B, {0: 0, 1: 3})  # edge onto a diagonal pair


def test_glue_seam_only_validation():
    A = solid_cube()
    B = solid_cube()
    with pytest.raises(GlueError, match="injective"):
        glue(A, B, {0: 4, 1: 4})
    with pytest.raises(GlueError, match="outside B"):
        glue(A, B, {0: 4, 8: 5})
    with pytest.raises(GlueError, match="outside A"):
        glue(A, B, {0: 4, 1: 8})


# ---------------------------------------------------------------------------
# cut


def test_cut_torus_meridian_gives_annulus():
    T = torus_complex(2)
    cut = cut_along_curves(T, [[0, 1, 2, 3]])
    assert cut.f_vector() == (20, 36, 16)
    assert cut.euler_characteristic() == 0
    assert validate(cut).is_complex
    assert betti_numbers(cut).betti == (1, 1, 0)
    assert boundary_complex(cut).f_vector() == (8, 8)


def test_cut_sphere_equator_gives_two_disks():
    S = boundary_c3()
    cut = cut_along_curves(S, [[0, 1, 3, 2]])
    assert cut.f_vector() == (12, 16, 6)
    assert cut.euler_characteristic() == 2
    assert betti_numbers(cut).betti == (2, 0, 0)


def test_glue_then_cut_recovers_disjoint_pieces():
    A = apply_gadget(build_complex(2, [(0, 1, 2, 3)]), (0, 1, 2, 3),
                     "insert_square_5")
    B = apply_gadget(build_complex(2, [(0, 1, 2, 3)]), (0, 1, 2, 3),
                     "insert_square_5")
    S = glue(A, B, {0: 0, 1: 1, 2: 2, 3: 3})
    assert S.f_vector() == (12, 20, 10)
    assert betti_numbers(S).betti == (1, 0, 1)
    cut = cut_along_curves(S, [[0, 1, 3, 2]])
    fa, fb = A.f_vector(), B.f_vector()
    assert cut.f_vector() == tuple(x + y for x, y in zip(fa, fb))
    assert betti_numbers(cut).betti == (2, 0, 0)


@pytest.mark.parametrize("curve, squares", [
    ((0, 1, 2, 3), (
        (0, 1, 4, 5), (0, 3, 4, 7), (1, 2, 5, 6), (2, 3, 6, 7),
        (4, 5, 8, 9), (4, 7, 8, 11), (5, 6, 9, 10), (6, 7, 10, 11),
        (8, 9, 12, 13), (8, 11, 12, 15), (9, 10, 13, 14), (10, 11, 14, 15),
        (12, 13, 16, 17), (12, 15, 16, 19), (13, 14, 17, 18),
        (14, 15, 18, 19))),
    ((0, 4, 8, 12), (
        (0, 1, 4, 5), (0, 1, 12, 13), (1, 2, 5, 6), (1, 2, 13, 14),
        (2, 3, 6, 7), (2, 3, 14, 15), (3, 7, 16, 17), (3, 15, 16, 19),
        (4, 5, 8, 9), (5, 6, 9, 10), (6, 7, 10, 11), (7, 11, 17, 18),
        (8, 9, 12, 13), (9, 10, 13, 14), (10, 11, 14, 15),
        (11, 15, 18, 19))),
], ids=["meridian", "longitude"])
def test_cut_of_the_torus_is_pinned(curve, squares):
    # which side of each curve vertex keeps its id is part of the output
    cut = cut_along_curves(torus_complex(2), [curve])
    assert (cut.n_vertices, cut.cells[2]) == (20, squares)


def test_cut_errors():
    T = torus_complex(2)
    with pytest.raises(CutError, match="needs a 2-complex"):
        cut_along_curves(solid_cube(), [[0, 1, 3, 2]])
    with pytest.raises(CutError, match="single cycle"):
        cut_along_curves(build_complex(2, [(0, 1, 2, 3)]), [[0, 1, 3, 2]])
    stray = build_complex(2, [*T.cells[2], (0, 10)], n_vertices=16)
    with pytest.raises(CutError, match="no square on a curve edge"):
        cut_along_curves(stray, [[0, 10, 9, 8, 4]])
    with pytest.raises(CutError, match="simple"):
        cut_along_curves(T, [[0, 1, 0, 1]])
    with pytest.raises(CutError, match="not an edge"):
        cut_along_curves(T, [[0, 5, 10, 15]])
    with pytest.raises(CutError, match="short"):
        cut_along_curves(T, [[0, 1]])
    with pytest.raises(CutError, match="one-sided"):
        cut_along_curves(klein_4x4(), [[0, 4, 8, 12]])
    P, B = _double_torus()
    row, column = B.curves[:2]
    with pytest.raises(CutError, match="two curves share a vertex"):
        cut_along_curves(P, [row, column])


def _double_torus_family(k):
    """The double torus and, for k = 0, its two rows, for k = 1 its two
    columns."""
    P, B = _double_torus()
    return P, B.curves[k::2]


@pytest.mark.parametrize("make", [
    lambda: _double_torus_family(0),
    lambda: _double_torus_family(1),
    lambda: (torus_complex(2), [(0, 1, 2, 3), (8, 9, 10, 11)]),
], ids=["double-torus-rows", "double-torus-columns", "torus-meridians"])
def test_one_pass_cut_equals_the_sequential_cuts(make):
    S, curves = make()
    # no square meets two curves, the condition under which the two agree
    assert all(sum(not set(c).isdisjoint(sq) for c in curves) < 2
               for sq in S.cells[2])
    one_by_one = S
    for c in curves:
        one_by_one = cut_along_curves(one_by_one, [c])
    cut = cut_along_curves(S, curves)
    assert dumps_complex(cut) == dumps_complex(one_by_one)
    assert cut.f_vector() == (S.f_vector()[0] + sum(map(len, curves)),
                              S.f_vector()[1] + sum(map(len, curves)),
                              S.f_vector()[2])


# ---------------------------------------------------------------------------
# boundary / remove_facet


def test_boundary_of_solid_cube():
    B = boundary_complex(solid_cube())
    assert B == boundary_c3()
    # every vertex of the cube is on its boundary, so none is renumbered
    # and the boundary's cells are the cube's own below the top
    assert B.cells == {k: solid_cube().cells[k] for k in range(3)}


def test_boundary_of_cylinder():
    Q = boundary_c3()
    cyl = cartesian_product(Q, interval_complex(1))
    B = boundary_complex(cyl)
    assert B.f_vector()[2] == 2 * 6  # closed Q: two copies, no side wall
    disk = build_complex(2, [(0, 1, 2, 3), (2, 3, 4, 5)])
    B2 = boundary_complex(cartesian_product(disk, interval_complex(1)))
    assert B2.f_vector()[2] == 2 * 2 + 6


def test_boundary_of_closed_complex_errors():
    with pytest.raises(CubeComplexError, match="closed"):
        boundary_complex(boundary_c3())


def test_remove_facet():
    C4 = build_complex(3, list(cube_faces(tuple(range(16)))))
    Q = remove_facet(C4, C4.cells[3][0])
    assert Q.f_vector() == (16, 32, 24, 7)
    assert Q.n_vertices == 16
    assert betti_numbers(Q).betti == (1, 0, 0, 0)
    with pytest.raises(CubeComplexError, match="not a facet"):
        remove_facet(C4, (0, 1, 2, 3, 4, 5, 6, 8))


def _check_removed_facet(C, F):
    Q = remove_facet(C, F)
    assert Q.cells == {**C.cells,
                       C.dim: tuple(c for c in C.cells[C.dim] if c != F)}
    _check_handed_facet_table(Q)


def test_remove_facet_keeps_the_facet_table():
    C4 = build_complex(3, list(cube_faces(tuple(range(16)))))
    for F in C4.cells[3]:
        _check_removed_facet(C4, F)


@given(tangled_complexes(), st.integers(min_value=0, max_value=100))
@settings(max_examples=100, deadline=None)
def test_remove_facet_keeps_the_facet_table_of_tangled_complexes(C, i):
    _check_removed_facet(C, C.cells[C.dim][i % len(C.cells[C.dim])])


# ---------------------------------------------------------------------------
# warm-up


@pytest.mark.parametrize("m,f0,f2", [(2, 54, 56), (3, 116, 171)])
def test_warmup_counts(m, f0, f2):
    W = warmup_complex(m, 2)
    assert W.f_vector()[0] == 12 * m * m + 2 * m + 2 == f0
    assert W.f_vector()[2] == m ** 4 + 10 * m * m == f2
    assert validate(W).is_complex
    prof = betti_numbers(W)
    assert prof.betti[1] == 0 and not prof.torsion[1]
    bipartite_classes(W)


def test_warmup_dim3():
    W = warmup_complex(2, 3)
    assert W.f_vector()[0] == 2 * 54
    assert W.f_vector()[3] == 56
    assert validate(W).is_complex
    prof = betti_numbers(W)
    assert prof.betti[1] == 0 and not prof.torsion[1]


def test_product_without_cones_has_h1():
    K = build_complex(1, [(l, 3 + r) for l in range(3) for r in range(3)])
    P = cartesian_product(K, K)
    prof = betti_numbers(P)
    assert prof.betti == (1, 8, 16)  # Kunneth for two wedge-like graphs
    assert not (prof.betti[1] == 0 and not prof.torsion[1])


def test_warmup_errors():
    with pytest.raises(CubeComplexError):
        warmup_complex(1, 2)
    with pytest.raises(CubeComplexError):
        warmup_complex(2, 1)
