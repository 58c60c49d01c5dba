"""Homology: boundary operators, SNF, field ranks, surface classification."""

import pytest
from hypothesis import given, settings, strategies as st

from cubulations.core import CubeComplexError, build_complex, cube_faces, relabel
from cubulations.topology import (
    HomologyProfile,
    NonSurfaceLinkError,
    SnfTooLargeError,
    betti_numbers,
    boundary_columns,
    h1_trivial,
    homology_sphere_check,
    orientation_assignment,
    rank_mod_p,
    rank_over_q,
    smith_invariant_factors,
    surface_invariants,
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


def test_boundary_matrix_k_out_of_range():
    with pytest.raises(CubeComplexError):
        boundary_columns(boundary_c3(), 3)
    with pytest.raises(CubeComplexError):
        boundary_columns(boundary_c3(), 0)


# ---------------------------------------------------------------------------
# Smith normal form against an independent implementation


@st.composite
def sparse_int_matrices(draw):
    nrows = draw(st.integers(min_value=1, max_value=6))
    ncols = draw(st.integers(min_value=1, max_value=6))
    dense = draw(
        st.lists(
            st.lists(st.integers(min_value=-4, max_value=4),
                     min_size=ncols, max_size=ncols),
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
# Betti numbers


def test_boundary_c4_is_a_3_sphere():
    prof = betti_numbers(boundary_c4(), "z")
    assert prof.betti == (1, 0, 0, 1)
    assert all(not t for t in prof.torsion)
    assert prof.euler == 0
    assert homology_sphere_check(boundary_c4(), 3)


def test_torus_betti():
    prof = betti_numbers(torus_4x4(), "z")
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


def test_klein_bottle_torsion():
    K = klein_4x4()
    prof = betti_numbers(K, "z")
    assert prof.betti == (1, 1, 0)
    assert prof.torsion[1] == (2,)
    assert betti_numbers(K, 2).betti == (1, 2, 1)  # mod 2 sees the torsion
    assert betti_numbers(K, "q").betti == (1, 1, 0)


def test_snf_size_guard():
    C = build_complex(3, [SOLID_CUBE])
    with pytest.raises(SnfTooLargeError, match="use field coefficients"):
        betti_numbers(C, "z", snf_threshold=3)
    prof = betti_numbers(C, "q", snf_threshold=3)  # modular fallback path
    assert prof.betti == (1, 0, 0, 0)


def test_surface_fast_path_ignores_threshold():
    # closed orientable surfaces stay exact even above the SNF limit
    prof = betti_numbers(torus_4x4(), "z", snf_threshold=3)
    assert prof.betti == (1, 2, 1)


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


def test_surface_invariants_disk():
    C = build_complex(2, [(0, 1, 2, 3), (2, 3, 4, 5)])
    closed, orientable, genus = surface_invariants(C)
    assert (closed, orientable, genus) == (False, True, None)


def test_surface_invariants_klein_bottle():
    closed, orientable, genus = surface_invariants(klein_4x4())
    assert closed and not orientable and genus is None
    ok, _, witness = orientation_assignment(klein_4x4())
    assert not ok and witness is not None


def test_surface_invariants_pinched_vertex_error():
    C = build_complex(2, [(0, 1, 2, 3), (3, 4, 5, 6)])
    with pytest.raises(NonSurfaceLinkError, match="3"):
        surface_invariants(C)


def test_euler_equals_alternating_betti_sum():
    for C in (boundary_c3(), boundary_c4(), torus_4x4(), klein_4x4()):
        prof = betti_numbers(C, "q")
        assert prof.euler == sum(
            (-1) ** k * b for k, b in enumerate(prof.betti)
        )
        assert prof.euler == C.euler_characteristic()


# ---------------------------------------------------------------------------
# h1


def test_h1_trivial_cases():
    assert h1_trivial(build_complex(3, [SOLID_CUBE]))
    assert not h1_trivial(torus_4x4())
    assert not h1_trivial(klein_4x4())  # torsion counts as nontrivial
    assert h1_trivial(build_complex(0, [(0,)]))
    assert h1_trivial(boundary_c3())
