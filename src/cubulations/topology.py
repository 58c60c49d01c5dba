"""Cellular homology over Z, plus surface classification.

Boundary matrices are read off the complex's incidence index, whose docstring
in core fixes the chain convention. So is every fact about a square surface
that other modules ask for: orientation_assignment orients the squares by
their boundary coefficients in facets(2), across the squares on each edge
in cofaces(1), and counts the components it seeds; _is_closed (every edge
in exactly two squares) reads cofaces(1). Whether every vertex link is a
circle or an arc is read in one pass by core._link_shapes, the reader that
manifold_check(C, 2) and (C, 3) and fillball.verify_filling ask of
surfaces and solids alike. surface_invariants, the one verdict on a square
surface, reads closedness off those link verdicts, and orientability and
connectedness off the one orientation walk.

Homology is exact over the integers at every size. A surface that
surface_invariants certifies connected, closed and orientable has its
homology read off its genus (see _surface_profile). Any other complex is
first reduced, then eliminated:

  1. The chain complex is augmented by a (-1)-cell that is the single face
     of every vertex, with coefficient 1. Its homology is the reduced
     homology of the complex.
  2. Pairs (a, b), with a a facet of b, are removed by _reduce while a
     has no other live coface (a free face) or b no other live facet (a
     coreduction). Every incidence of a cube complex is +-1, and neither
     kind of pair changes any other boundary, so what is left is a chain
     complex with the same homology whose boundary is the restriction of
     the original one (Kaczynski-Mischaikow-Mrozek, Computational
     Homology; Mrozek-Batko, Coreduction homology algorithm).
  3. The integer Smith normal form of what is left gives the invariant
     factors of every boundary map: the rank of the boundary of the
     (k+1)-cells is their number, and those above 1 are the torsion of
     H_k. Each pivot is the unit entry of least Markowitz cost
     (|row| - 1)(|column| - 1) (Markowitz 1957), ties to the least
     (row, column); with no unit left, the entry of least (|v|, row,
     column). A unit alone in its row or column costs 0, the least there
     is, so one pass over the row and column lengths looks among those
     first, and only when there is none are all units scanned. On the
     pairing matrices of basis (122 x 122 at n = 31, 146 x 146 at n = 37)
     every pivot has cost 0, so the scan never runs there.

The augmentation lowers b_0 by one, so b_0 of a non-empty complex is the
reduced b_0 plus 1. On spheres the reduction leaves a single top cell.

_reduce works on the incidence index in its own per-level ids. Per k-cell
it keeps the number of its live cofaces and the XOR of their ids, so once
the number is 1 the XOR is the coface, which it checks against that
coface's facet row. Phase 1 collapses on the facet tables alone: a
free-face pair at level k frees only k-cells, so the levels run from the
top down, each with its own FIFO queue. Its pairs are collapses until a
(k+1)-cell is left after level k, and a complex that collapses to one
vertex is contractible. Phase 2 runs only when a cell is left. On the
cached coface tables it runs coreductions from the bottom level up (a
vertex with the (-1)-cell, then edges with their last vertex, and so on)
and free faces from the top down, until neither removes a pair.

homology_sphere_check removes the open top cell F first: if S - F reduces
to nothing, it is acyclic (contractible when every pair is a collapse),
and the long exact sequence of the pair gives H~_*(S) = H_*(S, S - F),
which is Z in degree d and 0 elsewhere. A reduction that leaves a cell
proves nothing, and the check falls through to betti_numbers, so the
verdict is the same on every input. A contractible complex need not
collapse, nor reduce to nothing: a dunce hat has no free edge.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from dataclasses import dataclass
from itertools import compress

from .core import CubeComplex, CubeComplexError, _link_shapes

log = logging.getLogger(__name__)


class NonSurfaceLinkError(CubeComplexError):
    def __init__(self, vertex: int):
        super().__init__(f"link of vertex {vertex} is not a cycle or a path")
        self.vertex = vertex


@dataclass(frozen=True)
class HomologyProfile:
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    euler: int


# ---------------------------------------------------------------------------
# sparse integer Smith normal form

class _SparseMat:
    """Mutable sparse integer matrix with row and column indexes kept in sync.
    It counts the row and column operations applied to it."""

    def __init__(self, columns: list[dict[int, int]]):
        self.rows: dict[int, dict[int, int]] = {}
        self.col_index: dict[int, set[int]] = {}
        self.units: set[tuple[int, int]] = set()
        self.row_ops = self.col_ops = 0
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
        self.row_ops += 1
        for j, v in list(self.rows.get(source, {}).items()):
            self.set(target, j, self.get(target, j) + factor * v)

    def col_op(self, target: int, source: int, factor: int) -> None:
        self.col_ops += 1
        for i in list(self.col_index.get(source, set())):
            self.set(i, target, self.get(i, target) + factor * self.rows[i][source])


# how _choose_pivot found each pivot, counted in smith_invariant_factors
_COST0, _SCAN, _NON_UNIT = range(3)


def _choose_pivot(M: _SparseMat) -> tuple[int, int, int]:
    """The next pivot (i, j) and how it was found (see the module
    docstring, step 3)."""
    units = M.units
    if units:
        free = [(i, j) for i, row in M.rows.items() if len(row) == 1
                for j in row if (i, j) in units]
        free += [(i, j) for j, col in M.col_index.items() if len(col) == 1
                 for i in col if (i, j) in units]
        if free:
            return (*min(free), _COST0)
        i, j = min(units, key=lambda ij: (
            (len(M.rows[ij[0]]) - 1) * (len(M.col_index[ij[1]]) - 1), ij))
        return i, j, _SCAN
    _, i, j = min((abs(v), i, j)
                  for i, row in M.rows.items() for j, v in row.items())
    return i, j, _NON_UNIT


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
    """Invariant factors (each > 0, divisibility chain) of the sparse matrix.

    Emits one DEBUG record under cubulations.topology: the number of
    nonzero rows and of columns, the nonzeros, the pivots found among
    the units alone in their row or column, by the full Markowitz scan
    and by the non-unit rule, the row and column operations, and seconds.
    A matrix with no nonzero entry has nothing to eliminate and logs
    nothing.
    """
    t0 = time.perf_counter()
    M = _SparseMat(columns)
    rows, nonzeros = len(M.rows), sum(map(len, M.rows.values()))
    found = [0, 0, 0]
    diag: list[int] = []
    while M.rows:
        i, j, how = _choose_pivot(M)
        found[how] += 1
        i, j = _isolate_pivot(M, i, j)
        diag.append(abs(M.get(i, j)))
        M.set(i, j, 0)
    # a pivot divides every entry left when it is taken (_isolate_pivot),
    # and integer row and column operations keep them its multiples, so
    # the pivots already make an ascending divisibility chain
    assert all(b % a == 0 for a, b in zip(diag, diag[1:])), diag
    if rows:
        log.debug("smith_invariant_factors: %d x %d, %d nonzeros; pivots "
                  "%d cost-0, %d by Markowitz scan, %d non-unit; %d row and "
                  "%d column operations, %.4f s", rows, len(columns),
                  nonzeros, *found, M.row_ops, M.col_ops,
                  time.perf_counter() - t0)
    return diag


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


def rank_over_q(columns: list[dict[int, int]]) -> int:
    """Rational rank: the number of integer invariant factors."""
    return len(smith_invariant_factors(columns))


# ---------------------------------------------------------------------------
# pair removal: collapses, then coreductions

def _reduce(C: CubeComplex, drop: int | None = None
            ) -> tuple[int, int, list[list[int]]]:
    """Remove pairs from the augmented chain complex of C, less the open
    top cell `drop` when one is given (see the module docstring). Returns
    the pairs removed by collapse (in phase 1, before a cell is left with
    no free face), the pairs removed in all, and for each level L = k + 1
    (k = -1..C.dim) the ids of the k-cells left; the (-1)-cell is id 0 of
    level 0. The pair of the (-1)-cell and a vertex is in neither count.

    Emits one DEBUG record under cubulations.topology: cells of C, the
    cell dropped, pairs removed, the cells of C outside them (1, a vertex,
    when nothing is left), the verdict, pairs by collapse, cells left per
    dimension -1..C.dim and seconds."""
    t0 = time.perf_counter()
    inc = C.incidence()
    d = C.dim
    f = C.f_vector()
    live = list(f)
    alive = [bytearray(b"\x01") * n for n in f]
    rows = [inc.facets(k)[0] for k in range(d + 1)]
    # per k-cell: how many (k+1)-cells have it as a live facet, and the XOR
    # of their ids, which is the one coface once the count is 1
    count = [[0] * n for n in f[:d]]
    xor = [[0] * n for n in f[:d]]
    for k in range(d):
        cnt, acc, ids, w = count[k], xor[k], rows[k + 1], 2 * k + 2
        for side in range(w):
            for j, x in enumerate(ids[side::w]):
                cnt[x] += 1
                acc[x] ^= j
    if drop is not None:
        w = 2 * d
        for x in rows[d][w * drop:w * drop + w]:
            count[d - 1][x] -= 1
            xor[d - 1][x] ^= drop
        alive[d][drop] = 0
        live[d] -= 1
    pairs = 0
    collapsed = None
    void = 1  # the (-1)-cell
    while True:
        # free faces from the top down (the first sweep is phase 1): a pair
        # at level k removes a free k-cell and its (k+1)-coface; it frees
        # only k-cells, and lowers the counts of (k-1)-cells, which the
        # next level reads
        for k in range(d - 1, -1, -1):
            cnt, acc = count[k], xor[k]
            up, w = rows[k + 1], 2 * k + 2
            below = rows[k]  # empty at k = 0
            cnt_below, acc_below = count[k - 1], xor[k - 1]
            on, on_up = alive[k], alive[k + 1]
            queue = deque(i for i, n in enumerate(cnt) if n == 1)
            while queue:
                s = queue.popleft()
                if cnt[s] != 1 or not on[s]:
                    continue
                c = acc[s]
                row = up[w * c:w * c + w]
                if s not in row:
                    continue  # the tables disagree; remove no such pair
                for x in row:
                    cnt[x] -= 1
                    acc[x] ^= c
                    if cnt[x] == 1:
                        queue.append(x)
                for y in below[(w - 2) * s:(w - 2) * s + w - 2]:
                    cnt_below[y] -= 1
                    acc_below[y] ^= s
                on[s] = on_up[c] = 0
                live[k] -= 1
                live[k + 1] -= 1
                pairs += 1
            # a (k+1)-cell left now has no free face and never will, so
            # the pairs after it are not collapses
            if live[k + 1] and collapsed is None:
                collapsed = pairs
        if collapsed is None:
            collapsed = pairs
        if void and live[0]:
            # every vertex has the (-1)-cell as its one facet
            alive[0][alive[0].index(1)] = void = 0
            live[0] -= 1
        if not any(live):
            break
        # phase 2: coreductions from the bottom level up, on nf, the live
        # facets per cell: a pair at level k removes a k-cell with one live
        # facet and that facet, and leaves new candidates only at levels k
        # and k + 1
        before = pairs
        nf = [[0] * n for n in f]
        for k in range(1, d + 1):
            n, ids, w, low = nf[k], rows[k], 2 * k, alive[k - 1]
            for side in range(w):
                for j, x in enumerate(ids[side::w]):
                    n[j] += low[x]
        cof = [inc.cofaces(k) for k in range(d)]
        for k in range(1, d + 1):
            w, on, low, n = 2 * k, alive[k], alive[k - 1], nf[k]
            queue = deque(b for b, m in enumerate(n) if m == 1 and on[b])
            while queue:
                b = queue.popleft()
                if n[b] != 1 or not on[b]:
                    continue
                a = next(x for x in rows[k][w * b:w * b + w] if low[x])
                # a's cofaces are k-cells, which this pass reads next;
                # b's are (k+1)-cells, which the next pass reads
                for j, h in ((k - 1, a), (k, b)):
                    alive[j][h] = 0
                    live[j] -= 1
                    if j:
                        cnt, acc = count[j - 1], xor[j - 1]
                        for x in rows[j][2 * j * h:2 * j * h + 2 * j]:
                            cnt[x] -= 1
                            acc[x] ^= h
                    if j < d:
                        ptr, owners = cof[j]
                        up = nf[j + 1]
                        for y in owners[ptr[h]:ptr[h + 1]]:
                            up[y] -= 1
                            if up[y] == 1 and j < k:
                                queue.append(y)
                pairs += 1
        if pairs == before:
            break
    left = [[0] if void else []] + [
        list(compress(range(len(on)), on)) if n else []
        for on, n in zip(alive, live)]
    verdict = "undecided" if any(left) else "certified contractible" \
        if collapsed == pairs else "certified acyclic"
    log.debug("reduce: %d cells, dropped %s, %d pairs removed, %d cells "
              "left, %s; %d pairs by collapse, remainder %s in dimensions "
              "-1..%d, %.3f s", sum(f),
              "none" if drop is None else f"{d}-cell {drop}", pairs,
              sum(f) - (drop is not None) - 2 * pairs, verdict, collapsed,
              [len(ids) for ids in left], d, time.perf_counter() - t0)
    return collapsed, pairs, left


def _reduces_to_nothing(C: CubeComplex, drop: int | None = None) -> bool:
    """Whether the augmented chain complex of C, less the open top cell
    `drop` when one is given, reduces to nothing: C - drop is acyclic."""
    return not any(_reduce(C, drop)[2])


# ---------------------------------------------------------------------------
# orientation and the certified closed-surface path

def orientation_assignment(
    C: CubeComplex,
) -> tuple[list[int], tuple | None, int]:
    """Try to orient all squares consistently: two squares on an edge are
    coherent when their boundary coefficients on it, each times its
    square's sign, cancel. Each square's edges and coefficients are read
    off facets(2), the squares on an edge off cofaces(1). Returns (signs,
    conflict, parts): the sign of each square in C.cells[2] order, none
    on a conflict, whose witness is (square, square, edge) for debugging
    glue mistakes; and the components the walk seeds, squares connected
    across edges (up to a conflict). Seeds go in cell order, so the
    output is deterministic."""
    squares = C.cells.get(2, ())
    inc = C.incidence()
    ids, coeffs = inc.facets(2)
    ptr, owners = inc.cofaces(1)
    sign = [0] * len(squares)
    parts = 0
    for seed in range(len(squares)):
        if sign[seed]:
            continue
        sign[seed] = 1
        parts += 1
        stack = [seed]
        while stack:
            cur = stack.pop()
            for t in range(4 * cur, 4 * cur + 4):
                e = ids[t]
                flow = sign[cur] * coeffs[t]
                for other in owners[ptr[e]:ptr[e + 1]]:
                    if other == cur:
                        continue
                    row = 4 * other
                    want = -flow * coeffs[row + ids[row:row + 4].index(e)]
                    if not sign[other]:
                        sign[other] = want
                        stack.append(other)
                    elif sign[other] != want:
                        return ([], (squares[cur], squares[other],
                                     C.cells[1][e]), parts)
    return sign, None, parts


def _is_closed(C: CubeComplex) -> bool:
    """Whether C has a square and every edge of C lies in exactly two
    squares, read off cofaces(1)."""
    ptr, _ = C.incidence().cofaces(1)
    return bool(C.cells.get(2)) and all(
        ptr[e + 1] - ptr[e] == 2 for e in range(len(ptr) - 1))


def surface_invariants(C: CubeComplex) -> tuple[bool, bool, int | None]:
    """(closed, orientable, genus) of a 2-complex whose vertex links are
    circles or arcs, as core._link_shapes reads them in one pass; the
    first vertex whose link is neither raises NonSurfaceLinkError naming
    it. There every edge lies in one or two squares; an edge in one makes
    the links at both its ends arcs, and an arc ends on such an edge, so
    C is closed when it has a square and no link is an arc. Genus is
    reported for connected closed orientable surfaces, and connected is
    one part of the orientation walk: a circle or an arc is connected, so
    the squares at each vertex are connected across its edges, and every
    edge lies in a square, so the squares are connected across edges
    exactly when C is."""
    if C.dim != 2:
        raise CubeComplexError("surface_invariants needs a 2-complex")
    shapes = _link_shapes(C)
    if None in shapes:
        raise NonSurfaceLinkError(shapes.index(None))
    closed = bool(C.cells[2]) and "disk" not in shapes
    _, conflict, parts = orientation_assignment(C)
    orientable = conflict is None
    genus: int | None = None
    if closed and orientable and parts == 1:
        chi = C.euler_characteristic()
        assert (2 - chi) % 2 == 0
        genus = (2 - chi) // 2
    return closed, orientable, genus


def _surface_profile(C: CubeComplex) -> HomologyProfile | None:
    """Exact integral homology of a 2-complex that surface_invariants
    certifies a connected closed orientable surface of genus g, or None.
    The link verdicts count the cells at v with multiplicity, so they are
    the links of the CW complex the facet tables describe; all circles
    make it a closed surface, and a connected orientable one of genus g
    has H = (Z, Z^2g, Z). The signs need no check that they make a cycle:
    every edge lies on exactly two squares, and the walk set their signs
    so that their coefficients on it cancel."""
    if C.dim != 2:
        return None
    try:
        _, _, genus = surface_invariants(C)
    except NonSurfaceLinkError:
        return None
    return None if genus is None else HomologyProfile(
        (1, 2 * genus, 1), ((), (), ()), C.euler_characteristic())


# ---------------------------------------------------------------------------
# public homology interface

def betti_numbers(C: CubeComplex) -> HomologyProfile:
    """Betti numbers and torsion invariant factors of the integral
    homology, exact at every size.

    A 2-complex that surface_invariants certifies a connected closed
    orientable surface of genus g is (1, 2g, 1) with no torsion, and
    nothing is reduced (_surface_profile). Otherwise the augmented chain complex is reduced (_reduce, which emits
    one DEBUG record), and the integer Smith normal form of the boundary
    on the cells left gives the ranks and the torsion (see the module
    docstring). The augmentation's (-1)-cell takes one class from H_0, so
    b_0 is the reduced b_0 plus 1 on a non-empty complex.
    """
    fast = _surface_profile(C)
    if fast is not None:
        return fast
    _, _, left = _reduce(C)
    # level L = k + 1 holds the k-cells, k = -1..dim; the boundary on what
    # is left is the restriction of the original one
    levels: list[list[dict[int, int]]] = [
        [{}] * len(left[0]), [{0: 1} if left[0] else {} for _ in left[1]]]
    for k in range(1, C.dim + 1):
        row = {g: i for i, g in enumerate(left[k])}
        ids, coeffs = C.incidence().facets(k)
        w = 2 * k
        levels.append([
            {row[x]: c for x, c in zip(ids[w * g:w * g + w],
                                       coeffs[w * g:w * g + w]) if x in row}
            for g in left[k + 1]])
    factors = [smith_invariant_factors(cols) for cols in levels] + [[]]
    betti = [len(levels[k + 1]) - len(factors[k + 1]) - len(factors[k + 2])
             for k in range(C.dim + 1)]
    if C.f_vector()[0]:
        betti[0] += 1
    torsion = tuple(tuple(x for x in factors[k + 2] if x > 1)
                    for k in range(C.dim + 1))
    return HomologyProfile(betti=tuple(betti), torsion=torsion,
                           euler=C.euler_characteristic())


def homology_sphere_check(C: CubeComplex, d: int) -> bool:
    """Whether C is d-dimensional with the integral homology of the
    d-sphere: Betti numbers (1, 0, ..., 0, 1) and no torsion. Exact at
    every size. C less its open top cell 0 is reduced first; a reduction
    to nothing certifies the answer (see the module docstring). One that
    leaves a cell, or a C with no d-cell, goes to betti_numbers."""
    if d != C.dim or d < 1:
        return False
    if C.cells.get(d) and _reduces_to_nothing(C, drop=0):
        return True
    prof = betti_numbers(C)
    return prof.betti == (1,) + (0,) * (d - 1) + (1,) \
        and not any(prof.torsion)

