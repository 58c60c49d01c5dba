"""Cellular homology over Z, Q and prime fields, plus surface classification.

Boundary matrices are read off the complex's incidence index, whose docstring
in core fixes the chain convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .core import (
    CubeComplex,
    CubeComplexError,
    _link_is_single_cycle,
    _link_path,
    _reachable,
    pseudomanifold_check,
    vertex_link,
)

SNF_DEFAULT_THRESHOLD = 20000
_BIG_PRIME = (1 << 61) - 1  # modular stand-in for rational ranks at scale


class SnfTooLargeError(CubeComplexError):
    def __init__(self, n_cells: int, threshold: int):
        super().__init__(
            f"complex has {n_cells} cells, above the integer SNF threshold "
            f"{threshold}; use field coefficients")
        self.n_cells = n_cells
        self.threshold = threshold


class NonSurfaceLinkError(CubeComplexError):
    def __init__(self, vertex: int):
        super().__init__(f"link of vertex {vertex} is not a cycle or a path")
        self.vertex = vertex


@dataclass(frozen=True)
class HomologyProfile:
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    euler: int


def boundary_columns(C: CubeComplex, k: int) -> list[dict[int, int]]:
    """Columns of partial_k: column j maps the index in C.cells[k - 1] of
    each facet of the j-th k-cell to its coefficient."""
    if not 1 <= k <= C.dim:
        raise CubeComplexError(f"boundary dimension {k} out of range 1..{C.dim}")
    ids, coeffs = C.incidence().facets(k)
    w = 2 * k
    return [dict(zip(ids[i:i + w], coeffs[i:i + w]))
            for i in range(0, len(ids), w)]


# ---------------------------------------------------------------------------
# sparse integer Smith normal form

class _SparseMat:
    """Mutable sparse integer matrix with row and column indexes kept in sync."""

    def __init__(self, columns: list[dict[int, int]]):
        self.rows: dict[int, dict[int, int]] = {}
        self.col_index: dict[int, set[int]] = {}
        self.units: set[tuple[int, int]] = set()
        for j, col in enumerate(columns):
            for i, v in col.items():
                if v:
                    self.rows.setdefault(i, {})[j] = v
                    self.col_index.setdefault(j, set()).add(i)
                    if abs(v) == 1:
                        self.units.add((i, j))

    def get(self, i: int, j: int) -> int:
        return self.rows.get(i, {}).get(j, 0)

    def set(self, i: int, j: int, v: int) -> None:
        if v == 0:
            row = self.rows.get(i)
            if row and j in row:
                del row[j]
                if not row:
                    del self.rows[i]
                members = self.col_index[j]
                members.discard(i)
                if not members:
                    del self.col_index[j]
                self.units.discard((i, j))
        else:
            self.rows.setdefault(i, {})[j] = v
            self.col_index.setdefault(j, set()).add(i)
            if abs(v) == 1:
                self.units.add((i, j))
            else:
                self.units.discard((i, j))

    def row_op(self, target: int, source: int, factor: int) -> None:
        for j, v in list(self.rows.get(source, {}).items()):
            self.set(target, j, self.get(target, j) + factor * v)

    def col_op(self, target: int, source: int, factor: int) -> None:
        for i in list(self.col_index.get(source, set())):
            self.set(i, target, self.get(i, target) + factor * self.rows[i][source])


def _choose_pivot(M: _SparseMat) -> tuple[int, int]:
    if M.units:
        # Markowitz fill estimate among unit entries, deterministic tie-break
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
    assert best is not None
    return best[1], best[2]


def _isolate_pivot(M: _SparseMat, i: int, j: int) -> tuple[int, int]:
    """Row/col reduce until M[i,j] is alone in its row and column and divides
    every remaining entry. The pivot may migrate; final position returned."""
    while True:
        p = M.get(i, j)
        moved = False
        for r in sorted(M.col_index.get(j, set())):
            if r == i:
                continue
            q = M.get(r, j) // p
            if q:
                M.row_op(r, i, -q)
            if M.get(r, j):
                i = r  # remainder is a strictly smaller pivot
                moved = True
                break
        if moved:
            continue
        for c in sorted(M.rows.get(i, {})):
            if c == j:
                continue
            q = M.get(i, c) // p
            if q:
                M.col_op(c, j, -q)
            if M.get(i, c):
                j = c
                moved = True
                break
        if moved:
            continue
        if abs(p) > 1:
            # the pivot must divide the rest of the matrix
            offender = None
            for r in sorted(M.rows):
                if r == i:
                    continue
                for c, v in sorted(M.rows[r].items()):
                    if v % p:
                        offender = r
                        break
                if offender is not None:
                    break
            if offender is not None:
                M.row_op(i, offender, 1)
                continue
        return i, j


def smith_invariant_factors(columns: list[dict[int, int]]) -> list[int]:
    """Invariant factors (each > 0, divisibility chain) of the sparse matrix."""
    M = _SparseMat(columns)
    diag: list[int] = []
    while M.rows:
        i, j = _choose_pivot(M)
        i, j = _isolate_pivot(M, i, j)
        diag.append(abs(M.get(i, j)))
        M.set(i, j, 0)
    changed = True
    while changed:
        changed = False
        for a in range(len(diag)):
            for b in range(a + 1, len(diag)):
                if diag[b] % diag[a]:
                    g = gcd(diag[a], diag[b])
                    diag[a], diag[b] = g, diag[a] * diag[b] // g
                    changed = True
    return sorted(diag)


def rank_mod_p(columns: list[dict[int, int]], p: int) -> int:
    if p == 2:
        pivots: dict[int, int] = {}
        rank = 0
        for col in columns:
            m = 0
            for i, v in col.items():
                if v & 1:
                    m |= 1 << i
            while m:
                top = m.bit_length() - 1
                if top in pivots:
                    m ^= pivots[top]
                else:
                    pivots[top] = m
                    rank += 1
                    break
        return rank
    pivot_cols: dict[int, dict[int, int]] = {}
    rank = 0
    for col in columns:
        cur = {i: v % p for i, v in col.items() if v % p}
        while cur:
            r = min(cur)
            if r in pivot_cols:
                f = cur.pop(r)
                for i, v in pivot_cols[r].items():
                    if i == r:
                        continue
                    nv = (cur.get(i, 0) - f * v) % p
                    if nv:
                        cur[i] = nv
                    else:
                        cur.pop(i, None)
            else:
                inv = pow(cur[r], -1, p)
                pivot_cols[r] = {i: (v * inv) % p for i, v in cur.items()}
                rank += 1
                break
    return rank


def rank_over_q(columns: list[dict[int, int]], exact: bool = True) -> int:
    """Rational rank. Exact mode runs the integer elimination; otherwise a
    single large-prime modular rank (what the big complexes get)."""
    if exact:
        return len(smith_invariant_factors(columns))
    return rank_mod_p(columns, _BIG_PRIME)


# ---------------------------------------------------------------------------
# orientation and the certified closed-surface path

def _square_boundary_cycle(cell: tuple[int, ...]) -> tuple[int, int, int, int]:
    # corner order 00, 01, 11, 10 walks the boundary of the square
    return cell[0], cell[1], cell[3], cell[2]


def orientation_assignment(
    C: CubeComplex,
) -> tuple[bool, dict[tuple[int, ...], int], tuple | None]:
    """Try to orient all squares consistently (adjacent squares traverse a
    shared edge in opposite directions). Returns (ok, signs, conflict); the
    conflict witness is (square, square, edge) for debugging glue mistakes.
    Components are seeded in cell order, so the output is deterministic."""
    squares = C.cells.get(2, ())
    edge_use: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for idx, cell in enumerate(squares):
        a, b, d, c = _square_boundary_cycle(cell)
        walk = (a, b, d, c, a)
        for t in range(4):
            u, v = walk[t], walk[t + 1]
            key = (u, v) if u < v else (v, u)
            direction = 1 if u < v else -1
            edge_use.setdefault(key, []).append((idx, direction))
    sign: dict[int, int] = {}
    for seed in range(len(squares)):
        if seed in sign:
            continue
        sign[seed] = 1
        stack = [seed]
        while stack:
            cur = stack.pop()
            a, b, d, c = _square_boundary_cycle(squares[cur])
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
                        return (
                            False,
                            {},
                            (squares[cur], squares[other], key),
                        )
    return True, {squares[i]: s for i, s in sign.items()}, None


def _is_closed_oriented_surface(C: CubeComplex) -> bool:
    """Whether C is a connected closed orientable pure 2-complex. All
    certificate conditions are checked, not assumed."""
    # pseudomanifold_check: pure, every edge in two squares, dual graph
    # connected (needed for the rank F-1 witness)
    if C.dim != 2 or not pseudomanifold_check(C) or not _connected_skeleton(C):
        return False
    ok, signs, _ = orientation_assignment(C)
    if not ok:
        return False
    # the orientation vector must lie in ker(partial_2); verify by summation
    acc = [0] * len(C.cells[1])
    for cell, col in zip(C.cells[2], boundary_columns(C, 2)):
        for e, coeff in col.items():
            acc[e] += signs[cell] * coeff
    return not any(acc)


def _surface_profile(C: CubeComplex) -> HomologyProfile | None:
    """Exact integral homology of a certified connected closed orientable
    surface: rank(partial_1) = V-1 and rank(partial_2) = F-1, both witnessed
    by unit triangular minors, so every invariant factor is 1 and the answer
    is torsion-free without running SNF."""
    if not _is_closed_oriented_surface(C):
        return None
    f = C.f_vector()
    v, e, fc = f
    b1 = e - (v - 1) - (fc - 1)
    return HomologyProfile(
        betti=(1, b1, 1),
        torsion=((), (), ()),
        euler=C.euler_characteristic(),
    )


# ---------------------------------------------------------------------------
# public homology interface

def _parse_coeff(coeff) -> tuple[str, int]:
    if coeff in ("z", "Z", None, "int", "integers"):
        return "z", 0
    if coeff in ("q", "Q", 0, "rationals"):
        return "q", 0
    if isinstance(coeff, int) and coeff >= 2:
        return "p", coeff
    if isinstance(coeff, str) and coeff.isdigit() and int(coeff) >= 2:
        return "p", int(coeff)
    raise CubeComplexError(f"unrecognized coefficient system {coeff!r}")


def betti_numbers(
    C: CubeComplex,
    coeff="z",
    snf_threshold: int = SNF_DEFAULT_THRESHOLD,
) -> HomologyProfile:
    """Betti numbers (and, over the integers, torsion invariant factors).

    Closed orientable surfaces take a certified exact path regardless of
    size. Otherwise integer coefficients require the total cell count to stay
    under snf_threshold; rational ranks switch to a large-prime modular
    computation above the same threshold.
    """
    kind, p = _parse_coeff(coeff)
    d = C.dim
    f = C.f_vector()
    total = sum(f)
    # torsion-free by certificate, so the answer serves every coefficient ring
    fast = _surface_profile(C)
    if fast is not None:
        return fast
    if kind == "z" and total > snf_threshold:
        raise SnfTooLargeError(total, snf_threshold)
    ranks = [0] * (d + 2)  # ranks[k] = rank of partial_k, 1-indexed
    factors: list[list[int]] = [[] for _ in range(d + 2)]
    for k in range(1, d + 1):
        cols = boundary_columns(C, k)
        if kind == "z":
            inv = smith_invariant_factors(cols)
            ranks[k] = len(inv)
            factors[k] = [x for x in inv if x > 1]
        elif kind == "q":
            ranks[k] = rank_over_q(cols, exact=total <= snf_threshold)
        else:
            ranks[k] = rank_mod_p(cols, p)
    betti = tuple(f[k] - ranks[k] - ranks[k + 1] for k in range(d + 1))
    torsion = tuple(
        tuple(factors[k + 1]) if kind == "z" else () for k in range(d + 1)
    )
    return HomologyProfile(betti=betti, torsion=torsion,
                           euler=C.euler_characteristic())


def surface_invariants(C: CubeComplex) -> tuple[bool, bool, int | None]:
    """(closed, orientable, genus) of a 2-complex whose vertex links are
    cycles or paths; anything else raises NonSurfaceLinkError naming the
    vertex. Genus is reported for connected closed orientable surfaces."""
    if C.dim != 2:
        raise CubeComplexError("surface_invariants needs a 2-complex")
    for v in range(C.n_vertices):
        link = vertex_link(C, v)
        if not (_link_is_single_cycle(link) or _link_path(link)):
            raise NonSurfaceLinkError(v)
    ptr, _ = C.incidence().cofaces(1)
    closed = bool(C.cells.get(2)) and all(
        ptr[e + 1] - ptr[e] == 2 for e in range(len(ptr) - 1))
    orientable, _, _ = orientation_assignment(C)
    genus: int | None = None
    if closed and orientable and _connected_skeleton(C):
        chi = C.euler_characteristic()
        assert (2 - chi) % 2 == 0
        genus = (2 - chi) // 2
    return closed, orientable, genus


def _connected_skeleton(C: CubeComplex) -> bool:
    if not C.n_vertices:
        return True
    adj: dict[int, list[int]] = {v: [] for v in range(C.n_vertices)}
    for a, b in C.cells.get(1, ()):
        adj[a].append(b)
        adj[b].append(a)
    return len(_reachable(0, adj.__getitem__)) == C.n_vertices


def homology_sphere_check(
    C: CubeComplex,
    d: int,
    snf_threshold: int = SNF_DEFAULT_THRESHOLD,
) -> bool:
    """Betti pattern of the d-sphere: integral (with no torsion) at small
    scale, agreement of rational and mod-2 ranks at large scale."""
    if d != C.dim or d < 1:
        return False
    want = (1,) + (0,) * (d - 1) + (1,)
    total = sum(C.f_vector())
    if total <= snf_threshold:
        prof = betti_numbers(C, "z", snf_threshold=snf_threshold)
        return prof.betti == want and all(not t for t in prof.torsion)
    prof_q = betti_numbers(C, "q", snf_threshold=snf_threshold)
    prof_2 = betti_numbers(C, 2, snf_threshold=snf_threshold)
    return prof_q.betti == want and prof_2.betti == want


def h1_trivial(C: CubeComplex, snf_threshold: int = SNF_DEFAULT_THRESHOLD) -> bool:
    """b_1 = 0 with no 1-dimensional torsion over the integers."""
    if C.dim < 1:
        return True
    prof = betti_numbers(C, "z", snf_threshold=snf_threshold)
    return prof.betti[1] == 0 and not prof.torsion[1]
