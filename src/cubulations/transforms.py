"""Reusable constructions: products, gadget subdivisions, glue/cut, warm-up.

Vertex id conventions are fixed and documented per operation so that outputs
are reproducible byte for byte. Every seam has one rule, _seam_ids: it
checks that the identification matches cells with cells and numbers the
glued piece's vertices, the identified ones by their images and the rest by
fresh ids in increasing order. glue is that rule plus one closure and one
validate, through core's one rule for a complex just built (_validated);
sphere_builder.assemble_sphere3 applies the seam rule to each of its seams.
cut_along_curves reads a family of vertex-disjoint curves off the uncut
surface's one index, numbers each curve's copies after the curves before
it, and ends in one build_complex.
Products and remove_facet hand their facet tables to the CubeComplex
constructor.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter, neg
from typing import Callable, Sequence

from .core import (
    CubeComplex,
    CubeComplexError,
    _link_cycle,
    _ring_arcs,
    _validated,
    build_complex,
    canonical,
)


class GlueError(CubeComplexError):
    pass


class CutError(CubeComplexError):
    pass


# ---------------------------------------------------------------------------
# products


def cartesian_product(A: CubeComplex, B: CubeComplex) -> CubeComplex:
    """Product complex of two closed complexes with canonical cells and its
    facet table. Vertex (a, b) becomes a * B.n_vertices + b, so the
    product's ids are dense when both factors' are.

    Each cell is written directly: the product of a k_A-cell a and a
    k_B-cell b has the vertex (a[ca], b[cb]) at corner index cb | (ca << k_B),
    so the factor-B coordinates occupy the low bit positions. That array is
    canonical already: corner 0 is the least, and B's axes, whose
    neighbours carry smaller labels, come before A's. The product of two
    closed complexes is closed, so its k-cells are the cells of A_i x B_(k-i).

    The facet table follows from the factors' by the Leibniz rule,
    bd(a x b) = bd(a) x b + (-1)^k_B a x bd(b) with B's axes first: facet t
    of a x b is a x (facet t of b), with b's coefficient, for t < 2 k_B,
    and (facet t - 2 k_B of a) x b, with (-1)^k_B times a's coefficient,
    for the rest. A product of canonical cells is canonical, and
    canonicalising a facet of b or of a moves only that factor's axes, with
    the same sign, so nothing is canonicalised. The table is filled one
    column at a time in generation order (blocks A_i x B_(k-i) by i, rows a
    major), then its rows are put in sorted order and its ids mapped
    through the sorted positions of the level below.
    """
    nb = B.n_vertices
    # one int object per product vertex, shared by every cell at it
    table = [list(range(a * nb, (a + 1) * nb)) for a in range(A.n_vertices)]
    b_cells = [[itemgetter(*cb) for cb in B.cells.get(j, ())]
               for j in range(B.dim + 1)]
    levels: list[list[tuple[int, ...]]] = [[] for _ in range(A.dim + B.dim + 1)]
    for i in range(A.dim + 1):
        for ca in A.cells.get(i, ()):
            rows = [table[a] for a in ca]
            # a getter of one B-vertex returns an int, of more a tuple
            levels[i].extend(tuple(map(get, rows)) for get in b_cells[0])
            for j in range(1, B.dim + 1):
                levels[i + j].extend(tuple(chain.from_iterable(map(get, rows)))
                                     for get in b_cells[j])
    fa = [len(A.cells.get(i, ())) for i in range(A.dim + 1)]
    fb = [len(B.cells.get(j, ())) for j in range(B.dim + 1)]
    blocks: list[list[int]] = []       # per level, the i of its blocks
    start: dict[tuple[int, int], int] = {}   # (i, j) -> first id of A_i x B_j
    for k in range(len(levels)):
        blocks.append([i for i in range(max(0, k - B.dim), min(A.dim, k) + 1)
                       if fa[i] and fb[k - i]])
        at = 0
        for i in blocks[k]:
            start[i, k - i] = at
            at += fa[i] * fb[k - i]
    a_inc, b_inc = A.incidence(), B.incidence()
    cells: dict[int, tuple[tuple[int, ...], ...]] = {}
    facets: dict[int, tuple[array, array]] = {}
    rank = array("i")  # generation id -> sorted position, of the level below
    for k, level in enumerate(levels):
        order = sorted(range(len(level)), key=level.__getitem__)
        # a level of at most one cell is in order already
        permute = itemgetter(*order) if len(order) > 1 else tuple
        cells[k] = permute(level)
        levels[k] = level = None
        w = 2 * k
        ids = array("i", bytes(4 * w * len(order)))
        coeffs = array("b", bytes(w * len(order)))
        for t in range(w):
            col, ccol = array("i"), array("b")
            for i in blocks[k]:
                j = k - i
                na, nb_j = fa[i], fb[j]
                block = array("i", bytes(4 * na * nb_j))
                if t < 2 * j:
                    # a x (facet t of b): rows of a, then b's facet id
                    b_ids, b_coeffs = b_inc.facets(j)
                    step, first = fb[j - 1], start[i, j - 1]
                    for ib, x in enumerate(b_ids[t::2 * j]):
                        block[ib::nb_j] = rank[first + x:first + x + na * step:step]
                    cblock = b_coeffs[t::2 * j] * na
                else:
                    # (facet u of a) x b, with (-1)^j
                    u = t - 2 * j
                    a_ids, a_coeffs = a_inc.facets(i)
                    first, a_col = start[i - 1, j], a_ids[u::2 * i]
                    for ib in range(nb_j):
                        of_b = rank[first + ib:first + fa[i - 1] * nb_j:nb_j]
                        block[ib::nb_j] = array("i", map(of_b.__getitem__, a_col))
                    signs = a_coeffs[u::2 * i]
                    if j & 1:
                        signs = array("b", map(neg, signs))
                    cblock = array("b", bytes(na * nb_j))
                    for ib in range(nb_j):
                        cblock[ib::nb_j] = signs
                col += block
                ccol += cblock
            ids[t::w] = array("i", permute(col))
            coeffs[t::w] = array("b", permute(ccol))
        if k:
            facets[k] = ids, coeffs
        rank = array("i", bytes(4 * len(order)))
        for p, g in enumerate(order):
            rank[g] = p
    return CubeComplex(A.dim + B.dim, A.n_vertices * nb, cells, facets)


def interval_complex(k: int) -> CubeComplex:
    """Path with k edges on vertices 0..k."""
    if k < 1:
        raise CubeComplexError("interval needs at least one edge")
    return build_complex(1, [(i, i + 1) for i in range(k)])


def _cycle4() -> CubeComplex:
    return build_complex(1, [(0, 1), (1, 2), (2, 3), (0, 3)])


def torus_complex(d: int) -> CubeComplex:
    """Product of d 4-cycles."""
    if d < 1:
        raise CubeComplexError("torus dimension must be at least 1")
    C = _cycle4()
    for _ in range(d - 1):
        C = cartesian_product(C, _cycle4())
    return C


# ---------------------------------------------------------------------------
# gadget templates

@dataclass(frozen=True)
class GadgetTemplate:
    cell_dim: int
    n_new_vertices: int
    n_new_cells: int
    build: Callable[[Sequence[int], int], list[tuple[int, ...]]]


def _insert_square_5(q: Sequence[int], base: int) -> list[tuple[int, ...]]:
    i0, i1, i2, i3 = base, base + 1, base + 2, base + 3
    return [
        (i0, i1, i2, i3),
        (q[0], q[1], i0, i1),
        (q[2], q[3], i2, i3),
        (q[0], q[2], i0, i2),
        (q[1], q[3], i1, i3),
    ]


def _inset_cube_7(q: Sequence[int], base: int) -> list[tuple[int, ...]]:
    w = tuple(range(base, base + 8))
    cells = [w]
    for axis in range(3):
        for side in (0, 1):
            outer = [q[c] for c in range(8) if (c >> axis) & 1 == side]
            inner = [w[c] for c in range(8) if (c >> axis) & 1 == side]
            cells.append(tuple(outer + inner))  # radial direction = top bit
    return cells


def _square_10(q: Sequence[int], base: int) -> list[tuple[int, ...]]:
    # boundary cycle of the corner array (a, b, c, d) is a-b-d-c
    a, b, c, d = q
    i1, i2, i3, i4, w = base, base + 1, base + 2, base + 3, base + 4
    j1, j2, j3, j4 = base + 5, base + 6, base + 7, base + 8
    return [
        (w, a, d, b),
        (w, d, i2, i3),
        (w, i2, a, i1),
        (d, c, i3, i4),
        (c, a, i4, i1),
        (i1, i2, j1, j2),
        (i2, i3, j2, j3),
        (i3, i4, j3, j4),
        (i4, i1, j4, j1),
        (j1, j2, j4, j3),
    ]


GADGETS: dict[str, GadgetTemplate] = {
    "insert_square_5": GadgetTemplate(2, 4, 5, _insert_square_5),
    "inset_cube_7": GadgetTemplate(3, 8, 7, _inset_cube_7),
    "square_10": GadgetTemplate(2, 9, 10, _square_10),
}


def apply_gadget(C: CubeComplex, corners: tuple[int, ...], name: str
                 ) -> CubeComplex:
    """Replace the maximal cell with these corners by the GADGETS pattern
    of that name; new ids start at C.n_vertices in the template's
    documented order."""
    if name not in GADGETS:
        raise CubeComplexError(f"unknown gadget {name!r}")
    g = GADGETS[name]
    k = len(corners).bit_length() - 1
    if k != g.cell_dim:
        raise CubeComplexError(
            f"gadget {name} replaces {g.cell_dim}-cells, got a {k}-cell")
    target = canonical(corners)
    inc = C.incidence()
    if target not in inc.position(k):
        raise CubeComplexError(f"cell {corners} not in complex")
    if inc.position(k)[target] in inc.facets(k + 1)[0]:
        raise CubeComplexError("cell is a face of a higher cell")
    maximal = C.maximal_cells()
    tops: list[tuple[int, ...]] = []
    for kk in sorted(maximal):
        for c in maximal[kk]:
            if kk == k and c == target:
                continue
            tops.append(c)
    tops.extend(g.build(target, C.n_vertices))
    return build_complex(C.dim, tops, n_vertices=C.n_vertices + g.n_new_vertices)


# ---------------------------------------------------------------------------
# glue / cut / boundary


def _identified_cells(C: CubeComplex, verts: set[int]) -> dict[int, set[tuple[int, ...]]]:
    out: dict[int, set[tuple[int, ...]]] = {}
    for k, level in C.cells.items():
        got = {c for c in level if all(v in verts for v in c)}
        if got:
            out[k] = got
    return out


def _seam_ids(A: CubeComplex, B: CubeComplex, pairs: dict[int, int],
              a_ids: Sequence[int], fresh: int) -> tuple[list[int], int]:
    """The seam rule: the ids of B's vertices once B is glued onto A along
    pairs (B ids -> A ids), and the next fresh id.

    The map must be injective, stay inside both complexes, and carry the
    cells of B its domain spans onto exactly the cells of A its image
    spans; GlueError names the first condition that fails. An identified
    vertex takes the id a_ids gives its image, and every other vertex of
    B the next fresh id, in increasing order."""
    if len(set(pairs.values())) != len(pairs):
        raise GlueError("vertex map is not injective")
    domain = set(pairs)
    image = set(pairs.values())
    if any(v < 0 or v >= B.n_vertices for v in domain):
        raise GlueError("map domain outside B")
    if any(v < 0 or v >= A.n_vertices for v in image):
        raise GlueError("map image outside A")
    sub_b = _identified_cells(B, domain)
    sub_a = _identified_cells(A, image)
    mapped = {
        k: {canonical([pairs[v] for v in c]) for c in cells}
        for k, cells in sub_b.items()
    }
    if mapped != sub_a:
        raise GlueError("identified subcomplexes are not isomorphic under the map")
    ids = []
    for v in range(B.n_vertices):
        a = pairs.get(v)
        if a is None:
            a, fresh = fresh, fresh + 1
        else:
            a = a_ids[a]
        ids.append(a)
    return ids, fresh


def glue(A: CubeComplex, B: CubeComplex, pairs: dict[int, int]
         ) -> CubeComplex:
    """Glue B onto A along the vertex identification pairs (B ids -> A ids).

    The identified vertex sets must span isomorphic subcomplexes cell by
    cell (_seam_ids). A keeps its ids; an identified vertex of B takes its
    image's, and B's other vertices get fresh ids from A.n_vertices up, in
    increasing order. The maximal cells of both are closed by one
    build_complex, and a result that is not a complex is a GlueError
    naming the first offending pair.
    """
    ids, fresh = _seam_ids(A, B, pairs, range(A.n_vertices), A.n_vertices)
    tops = list(chain.from_iterable(A.maximal_cells().values()))
    for level in B.maximal_cells().values():
        tops.extend(tuple(map(ids.__getitem__, c)) for c in level)
    return _validated(build_complex(max(A.dim, B.dim), tops, n_vertices=fresh),
                      "gluing of B onto A", GlueError)


def cut_along_curves(S: CubeComplex, curves: Sequence[Sequence[int]]
                     ) -> CubeComplex:
    """Cut a closed surface along simple closed edge paths that share no
    vertex, all read off S's one index and closed by one build_complex.

    At each curve vertex its two curve edges split its link cycle into
    two arcs (_ring_arcs): squares on one keep the vertex, squares on the
    other get a fresh copy. The kept side starts at the lower, in
    S.cells[2], of the two squares on the edge that closes the curve. It
    is carried across each curve edge, from one of its two squares to
    the other, and comes back to itself exactly when the curve is
    two-sided. Curve i's copies take the ids from S.n_vertices plus the
    lengths of the curves before it, so f0 and f1 grow by the lengths
    and chi is unchanged. That lower square is the one choice that rests
    on the order of the squares, and a square that meets no earlier curve
    keeps its corners, so its place among the others: the cut equals the
    cuts along the curves one at a time, in order, whenever no square
    meets two curves.
    """
    if S.dim != 2:
        raise CutError("cut_along_curves needs a 2-complex")
    edge_pos = S.incidence().position(1)
    tops = list(S.cells.get(2, ()))
    fresh = S.n_vertices
    on_curves: set[int] = set()
    for curve in curves:
        L = len(curve)
        if L < 3:
            raise CutError("curve too short")
        if len(set(curve)) != L:
            raise CutError("curve is not simple")
        if not on_curves.isdisjoint(curve):
            raise CutError("two curves share a vertex")
        on_curves.update(curve)
        sq = None  # the kept square on the edge into v
        for i, v in enumerate(curve):
            prev, nxt = curve[i - 1], curve[(i + 1) % L]
            e = canonical((v, nxt))
            if e not in edge_pos:
                raise CutError(f"curve step {e} is not an edge of the complex")
            cycle = _link_cycle(S, v)
            if cycle is None:
                raise CutError(f"link of curve vertex {v} is not a single "
                               "cycle")
            ring, spokes = cycle
            if prev not in spokes or nxt not in spokes:
                raise CutError(f"curve vertex {v} has no square on a curve "
                               "edge")
            p = spokes.index(prev)
            if sq is None:
                first = sq = min(ring[p], ring[(p + 1) % len(ring)])
            # a1 ends and a2 starts with the two squares around the spoke
            # nxt, which are all the squares on the edge to nxt
            a1, a2 = _ring_arcs(ring, p, spokes.index(nxt))
            cut, sq = (a2, a1[-1]) if sq in a1 else (a1, a2[0])
            for idx in cut:
                tops[idx] = tuple(fresh + i if w == v else w
                                  for w in tops[idx])
        if sq != first:
            raise CutError("curve is one-sided; cut undefined")
        fresh += L
    return build_complex(2, tops, n_vertices=fresh)


def boundary_complex(C: CubeComplex) -> CubeComplex:
    """Subcomplex of (d-1)-cells lying in exactly one d-cell, read off C's
    facet tables (Incidence.closure) and relabeled to dense ids in order,
    which keeps every cell canonical and every level sorted."""
    d = C.dim
    if not C.cells.get(d):
        raise CubeComplexError("complex has no top-dimensional cells")
    inc = C.incidence()
    levels = inc.closure(d - 1, inc.rim())
    if not levels[-1]:
        raise CubeComplexError("complex is closed; boundary is empty")
    new = {v: i for i, v in enumerate(levels[0])}
    return CubeComplex.from_cells(d - 1, len(new), {
        k: [tuple(map(new.__getitem__, C.cells[k][i])) for i in ids]
        for k, ids in enumerate(levels)})


def remove_facet(C: CubeComplex, corners: tuple[int, ...]) -> CubeComplex:
    """Delete the open facet with these corners; every proper face of it
    stays. The result carries C's facet table with the removed facet's
    row dropped."""
    target = canonical(corners)
    d = C.dim
    inc = C.incidence()
    p = inc.position(d).get(target)
    if p is None:
        raise CubeComplexError(f"{corners} is not a facet")
    cells = dict(C.cells)
    cells[d] = cells[d][:p] + cells[d][p + 1:]
    facets = {k: inc.facets(k) for k in range(1, d)}
    ids, coeffs = inc.facets(d)
    w = 2 * d
    facets[d] = (ids[:w * p] + ids[w * (p + 1):],
                 coeffs[:w * p] + coeffs[w * (p + 1):])
    return CubeComplex(d, C.n_vertices, cells, facets)


# ---------------------------------------------------------------------------
# warm-up construction


def _k_mm(m: int) -> CubeComplex:
    """Complete bipartite graph on 0..m-1 (left) and m..2m-1 (right)."""
    return build_complex(1, [(l, m + r) for l in range(m) for r in range(m)])


def warmup_complex(m: int, d: int) -> CubeComplex:
    """Simply connected d-complex with many facets per vertex.

    d=2: K_{m,m} x K_{m,m}, plus cones over the two axis copies of K_{m,m}.
    Cone edges to the lexicographically smaller bipartition class are split
    in two, and every cone quad is subdivided in five. Vertex layout:
    product pairs (a,b) -> a*2m+b, then apex 1, apex 2, the m+m edge
    midpoints, then 4 ids per cone quad in lexicographic edge order.
    d>2: cartesian product with [0,1]^(d-2).
    """
    if m < 2:
        raise CubeComplexError("warm-up needs m >= 2")
    if d < 2:
        raise CubeComplexError("warm-up needs d >= 2")
    K = _k_mm(m)
    P = cartesian_product(K, K)
    n = 2 * m
    u1 = n * n
    u2 = u1 + 1
    mid1 = {l: u1 + 2 + l for l in range(m)}
    mid2 = {l: u1 + 2 + m + l for l in range(m)}
    tops: list[tuple[int, ...]] = list(P.cells[2])
    base = u1 + 2 + 2 * m
    for apex, mids, vert in (
        (u1, mid1, lambda a: a * n),  # cone over K x {0}
        (u2, mid2, lambda a: a),      # cone over {0} x K
    ):
        for l in range(m):
            for r in range(m, n):
                quad = (apex, mids[l], vert(r), vert(l))
                tops.extend(_insert_square_5(quad, base))
                base += 4
    C = build_complex(2, tops, n_vertices=base)
    for _ in range(d - 2):
        C = cartesian_product(C, interval_complex(1))
    return C
