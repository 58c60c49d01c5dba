"""Combinatorial cube complexes.

A k-cube is an array of 2^k vertex ids indexed by bitmask: bit j of the index
is the j-th coordinate of the corner. A complex stores, per dimension, the
set of cells in canonical form under the cube symmetry group (coordinate
permutations composed with reflections, order 2^k * k!). Two cubes are equal
iff they agree up to that symmetry.

Vertex ids of a complex are dense: they form the range [0, n_vertices).
Complexes are immutable after construction; all operations here are pure.
build_complex checks every corner array it is given itself: a power-of-two
length 2^k with k at most the complex's dimension, distinct corners, no
negative id; it canonicalises each with canonical.

Face incidence lives in one place, the Incidence index of a complex
(CubeComplex.incidence()). Per dimension k it holds
  - position(k): each k-cell -> its index in cells[k];
  - facets(k): for each k-cell, the indices of its 2k facets in cells[k-1],
    in cube_faces order, with their boundary coefficients. For axis i, a
    cube with corner array Q contributes (-1)^i (Q|_{x_i=1} - Q|_{x_i=0}),
    and the sign of canonicalising each facet is folded into its entry;
  - star(k): for each vertex, the indices of the k-cells containing it;
  - cofaces(k): for each k-cell, the indices of the (k+1)-cells it is a
    facet of, the facet table of level k+1 transposed once.
The rim (ridges in exactly one facet), the maximal cells and closure (the
cells some cells generate, the one read of a boundary or of a cell's faces)
are read off the facet table, as positions. Ids are 4-byte array("i")
entries, and every index array here uses that one typecode. A complex born
with a facet table is handed it by the constructor, CubeComplex(dim,
n_vertices, cells, facets), the one way in: build_complex's closure
computes every cell's facets anyway and hands them over remapped to sorted
positions, products derive theirs from their factors' tables
(transforms.cartesian_product), remove_facet passes on its input's with
one row dropped, and the doubling merges its two products'
(sphere_builder._union). Without one (from_cells) the table is built the
first time it is asked for, as are the other parts, so a complex pays
only for what its callers use. Caching it on the complex is sound
because complexes never change after construction.

The structural checks read corner positions and canonicalise nothing, and
each verdict has one owner. validate decides only that any two cells meet
in a common face, each pair of maximal cells sharing 2^m corners from
their positions: an m-subcube of each cell, with the same edges in both.
That rule on positions is _positions_meet, which the fill search asks
too. _validated is the one rule that turns its report into an error: every
construction that checks what it has built passes the complex, the name of
what it built and its own error class, and a violation raises that class
naming the first offending pair; only fillball reads a report itself, to
word a sphere's defect and a filling's witness. Whether the top cells make
a closed pseudomanifold is pseudomanifold_check's, asked by the callers
that need it. A k-cell at v spans the link simplex of the corners at v's
position with one bit flipped, read off star(k) (_link_spans), and
vertex_link closes those simplices under faces. _link_shapes reads every
link of a 2- or 3-complex as "sphere", "disk" or None in one pass, from
the number of cells of each dimension at each vertex, the coface counts
and one union-find over the top cells' corners, and manifold_check(C, 2)
and (C, 3), topology.surface_invariants and fillball.verify_filling all
read their verdicts off it. In a surface, _link_cycle reads the squares
around a vertex in cyclic order off the spans, for the callers that cut
or cross curves there, and _ring_arcs splits it between two spokes.
"""

from __future__ import annotations

import logging
import time
from array import array
from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, combinations, compress
from operator import add, and_, eq, itemgetter, not_, or_, sub
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence


FVector = tuple[int, ...]

log = logging.getLogger(__name__)


class CubeComplexError(Exception):
    """Base class for structural errors raised by this package."""


class MalformedCubeError(CubeComplexError):
    pass


class OddCycleError(CubeComplexError):
    """The 1-skeleton is not bipartite; args[1] is an odd closed walk."""


# ---------------------------------------------------------------------------
# canonical form

def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def canonical_with_sign(corners: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Canonical corner array and the orientation sign of the relabeling.

    The canonical representative is the lexicographically least corner array
    over all cube symmetries. It is found directly, without enumerating the
    group: translate the minimum corner to position 0, then order the
    coordinate axes by the labels of its k neighbors. Both steps are forced
    (corners are distinct), so the result is the lex minimum. The sign is
    sgn(axis permutation) * (-1)^popcount(translation): each set bit of the
    translation is a reflection.
    """
    m = len(corners)
    if m == 1:
        return (corners[0],), 1
    if m == 2:
        a, b = corners
        return ((a, b), 1) if a < b else ((b, a), -1)
    k = m.bit_length() - 1
    t = min(range(m), key=corners.__getitem__)
    axes = sorted(range(k), key=lambda j: corners[t ^ (1 << j)])
    res = [0] * m
    for c in range(m):
        src = t
        cc = c
        i = 0
        while cc:
            if cc & 1:
                src ^= 1 << axes[i]
            cc >>= 1
            i += 1
        res[c] = corners[src]
    sign = _perm_sign(axes)
    if bin(t).count("1") % 2:
        sign = -sign
    return tuple(res), sign


def canonical(corners: Sequence[int]) -> tuple[int, ...]:
    return canonical_with_sign(corners)[0]


def cube_faces(corners: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The 2k facets of a k-cube, in axis/side order, not canonicalized."""
    m = len(corners)
    k = m.bit_length() - 1
    for j in range(k):
        for side in (0, 1):
            yield tuple(corners[c] for c in range(m) if (c >> j) & 1 == side)


@lru_cache(maxsize=None)
def _facet_sides(k: int) -> tuple[tuple[Callable, bool, int], ...]:
    """Per facet t of a k-cube, in cube_faces order: a getter of its corner
    tuple, whether it lies on side 1, and its boundary coefficient before
    canonicalisation, (-1)^i on side 1 and -(-1)^i on side 0 of axis i."""
    out = []
    for t in range(2 * k):
        idx = [c for c in range(1 << k) if (c >> (t >> 1)) & 1 == t & 1]
        get = itemgetter(*idx) if k > 1 else itemgetter(slice(idx[0], idx[0] + 1))
        out.append((get, bool(t & 1), 1 if ((t >> 1) + t) & 1 else -1))
    return tuple(out)


def _facet_rows(level: Iterable[tuple[int, ...]], k: int,
                face_id: Callable[[tuple[int, ...]], int]) -> tuple[array, array]:
    """Facet ids and boundary coefficients of canonical k-cells, 2k per cell
    in cube_faces order; face_id maps a canonical (k-1)-cell to its id.
    A side-0 facet keeps the cell's corner 0 and its ascending neighbours,
    so it is canonical as it is; only side-1 facets are canonicalised."""
    ids, coeffs = array("i"), array("b")
    sides = _facet_sides(k)
    for cell in level:
        for get, side1, coeff in sides:
            face = get(cell)
            if side1:
                face, sign = canonical_with_sign(face)
                coeff *= sign
            ids.append(face_id(face))
            coeffs.append(coeff)
    return ids, coeffs


# ---------------------------------------------------------------------------
# the complex

@dataclass(frozen=True)
class ValidationReport:
    is_complex: bool
    violations: tuple[tuple[tuple[int, ...], tuple[int, ...], str], ...]


@dataclass(frozen=True)
class BoundReport:
    f0: int
    fd: int
    facet_bound: int
    facet_bound_ok: bool
    cube_bound: int | None
    cube_bound_ok: bool | None


def _transpose(table: Sequence[int], width: int, n: int) -> tuple[array, array]:
    """Invert a flat table whose row r is table[width*r : width*(r+1)] and
    whose entries lie in [0, n): (ptr, rows), where the rows that contain j
    are rows[ptr[j]:ptr[j + 1]], ascending."""
    ptr = array("i", [0]) * (n + 1)
    for j in table:
        ptr[j + 1] += 1
    for j in range(n):
        ptr[j + 1] += ptr[j]
    fill = ptr[:n]
    rows = array("i", [0]) * len(table)
    for t, j in enumerate(table):
        rows[fill[j]] = t // width
        fill[j] += 1
    return ptr, rows


class Incidence:
    """The face incidence index of one complex (see the module docstring).
    Cell indices refer to positions in the complex's sorted cell tuples."""

    __slots__ = ("dim", "n_vertices", "cells", "_position", "_facets",
                 "_cofaces", "_star")

    def __init__(self, C: "CubeComplex",
                 facets: dict[int, tuple[array, array]]):
        self.dim = C.dim
        self.n_vertices = C.n_vertices
        self.cells = C.cells
        self._position: dict[int, dict[tuple[int, ...], int]] = {}
        self._facets: dict[int, tuple[array, array]] = dict(facets)
        self._cofaces: dict[int, tuple[array, array]] = {}
        self._star: dict[int, tuple[array, array]] = {}

    def position(self, k: int) -> dict[tuple[int, ...], int]:
        got = self._position.get(k)
        if got is None:
            got = {c: i for i, c in enumerate(self.cells.get(k, ()))}
            self._position[k] = got
        return got

    def facets(self, k: int) -> tuple[array, array]:
        """(ids, coeffs): the facets of the i-th k-cell are the (k-1)-cells
        ids[2k*i : 2k*(i+1)], with boundary coefficients coeffs[...] = ±1."""
        got = self._facets.get(k)
        if got is None:
            level = self.cells.get(k, ())
            if k > 0 and level:
                try:
                    got = _facet_rows(level, k, self.position(k - 1).__getitem__)
                except KeyError:
                    raise CubeComplexError(
                        "complex is not closed under faces") from None
            else:
                got = array("i"), array("b")
            self._facets[k] = got
        return got

    def cofaces(self, k: int) -> tuple[array, array]:
        """(ptr, owners): the (k+1)-cells with the j-th k-cell as a facet are
        owners[ptr[j]:ptr[j + 1]], ascending."""
        got = self._cofaces.get(k)
        if got is None:
            got = self._cofaces[k] = _transpose(
                self.facets(k + 1)[0], 2 * (k + 1), len(self.cells.get(k, ())))
        return got

    def star(self, k: int) -> tuple[array, array]:
        """(ptr, owners): the k-cells containing vertex v are
        owners[ptr[v]:ptr[v + 1]]."""
        got = self._star.get(k)
        if got is None:
            corners = array("i", chain.from_iterable(self.cells.get(k, ())))
            got = self._star[k] = _transpose(corners, 1 << k, self.n_vertices)
        return got

    def rim(self) -> list[int]:
        """Positions of the (d-1)-cells in exactly one d-cell, ascending."""
        ptr, _ = self.cofaces(self.dim - 1)
        return [i for i in range(len(ptr) - 1) if ptr[i + 1] - ptr[i] == 1]

    def closure(self, k: int, ids: Iterable[int]) -> list[list[int]]:
        """Per level j = 0..k, the ascending positions of the j-cells of
        the subcomplex that the k-cells at positions ids generate."""
        levels = [sorted(set(ids))]
        for j in range(k, 0, -1):
            rows, w = self.facets(j)[0], 2 * j
            levels.append(sorted({f for i in levels[-1]
                                  for f in rows[w * i:w * i + w]}))
        return levels[::-1]


class CubeComplex:
    """Immutable cube complex, closed under faces, cells stored canonically.

    cells: dict dim -> sorted tuple of canonical corner tuples. facets,
    when given, is the finished facet table of the cells (level k -> the
    pair Incidence.facets(k) returns), which the index then starts from.
    """

    __slots__ = ("dim", "n_vertices", "cells", "_maximal", "_incidence")

    def __init__(self, dim: int, n_vertices: int,
                 cells: dict[int, tuple[tuple[int, ...], ...]],
                 facets: dict[int, tuple[array, array]] | None = None):
        self.dim = dim
        self.n_vertices = n_vertices
        self.cells = cells
        self._maximal: dict[int, tuple[tuple[int, ...], ...]] | None = None
        self._incidence = None if facets is None else Incidence(self, facets)

    def incidence(self) -> Incidence:
        if self._incidence is None:
            self._incidence = Incidence(self, {})
        return self._incidence

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_cells(dim: int, n_vertices: int,
                   cells: dict[int, Iterable[tuple[int, ...]]]) -> "CubeComplex":
        """Trusted constructor: cells must already be canonical and closed."""
        packed = {k: tuple(sorted(v)) for k, v in cells.items() if v}
        for k in range(dim + 1):
            packed.setdefault(k, ())
        return CubeComplex(dim, n_vertices, packed)

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(self.cells.get(k, ())) for k in range(self.dim + 1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * len(self.cells.get(k, ())) for k in range(self.dim + 1))

    def maximal_cells(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        """Cells that are not a proper face of any other cell."""
        if self._maximal is None:
            out: dict[int, tuple[tuple[int, ...], ...]] = {}
            for k in range(self.dim, -1, -1):
                covered = set(self.incidence().facets(k + 1)[0])
                out[k] = tuple(c for i, c in enumerate(self.cells.get(k, ()))
                               if i not in covered)
            self._maximal = out
        return self._maximal

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CubeComplex):
            return NotImplemented
        return (self.dim == other.dim and self.n_vertices == other.n_vertices
                and self.cells == other.cells)

    def __hash__(self) -> int:
        return hash((self.dim, self.n_vertices,
                     tuple(sorted(self.cells.items()))))

    def __repr__(self) -> str:
        return f"CubeComplex(dim={self.dim}, f={self.f_vector()})"


class _Ids(dict):
    """Cell -> id, numbering each new cell in order of first lookup."""

    def __missing__(self, cell: tuple[int, ...]) -> int:
        i = self[cell] = len(self)
        return i


def build_complex(dim: int, top_cubes: Iterable[Sequence[int]],
                  n_vertices: int | None = None) -> CubeComplex:
    """Build a complex from top cells: canonicalize, close under faces, dedup.

    The closure runs one dimension at a time, from the top down: all k-cells
    are known before their facets are taken. Each k-cell's facet row is
    computed once, in sorted order, against provisional ids of the
    (k-1)-cells, which are remapped to sorted positions once that level is
    complete. The complex's Incidence receives the finished facet table.

    Each corner array must have a power-of-two length 2^k with k <= dim,
    and distinct, non-negative entries; the first that has not is a
    MalformedCubeError. Vertex ids must be dense; n_vertices defaults to
    max id + 1 and is checked, and may not be negative.
    """
    if n_vertices is not None and n_vertices < 0:
        raise MalformedCubeError(f"negative vertex count {n_vertices}")
    ids = [_Ids() for _ in range(dim + 1)]
    used: set[int] = set()
    for corners in top_cubes:
        m = len(corners)
        if not m or m & (m - 1):
            raise MalformedCubeError(
                f"corner array length {m} is not a power of two")
        if min(corners) < 0:
            raise MalformedCubeError(f"negative vertex id in cube {corners}")
        if len(set(corners)) != m:
            raise MalformedCubeError(f"repeated corner in cube {corners}")
        k = m.bit_length() - 1
        if k > dim:
            raise MalformedCubeError(
                f"cube of dimension {k} exceeds complex dimension {dim}")
        used.update(corners)
        ids[k][canonical(corners)]  # numbers the cell if it is new
    cells: dict[int, tuple[tuple[int, ...], ...]] = {}
    facets: dict[int, tuple[array, array]] = {}
    for k in range(dim, -1, -1):
        level = cells[k] = tuple(sorted(ids[k]))
        if k < dim:
            rank = array("i", [0]) * len(level)
            for i, p in enumerate(map(ids[k].__getitem__, level)):
                rank[p] = i
            rows, coeffs = facets[k + 1]
            facets[k + 1] = array("i", map(rank.__getitem__, rows)), coeffs
        ids[k] = None  # spent: free them before the level below grows
        if k > 0:
            facets[k] = _facet_rows(level, k, ids[k - 1].__getitem__)
    if n_vertices is None:
        n_vertices = (max(used) + 1) if used else 0
    if used and max(used) >= n_vertices:
        raise MalformedCubeError("vertex id out of range")
    missing = n_vertices - len(used)
    if missing:
        present = used
        gap = next(v for v in range(n_vertices) if v not in present)
        raise MalformedCubeError(
            f"vertex ids not dense: {missing} unused ids in [0, {n_vertices}), "
            f"first gap at {gap}")
    return CubeComplex(dim, n_vertices, {k: cells[k] for k in range(dim + 1)},
                       facets)


# ---------------------------------------------------------------------------
# validation

def _meets_in_face(ca: tuple[int, ...], cb: tuple[int, ...]) -> bool:
    """Whether two cells sharing two or more corners meet in a common
    face: the positions of the shared corners in both cells, judged by
    _positions_meet."""
    return _positions_meet([(p, cb.index(x)) for p, x in enumerate(ca)
                            if x in cb])


def _positions_meet(pairs: list[tuple[int, int]]) -> bool:
    """Whether the corners two cells share meet as a common face of both,
    given as pairs (position in one cell, position in the other), at least
    two, ascending in the first. This is the one face rule: validate asks
    it through _meets_in_face, and the fill search asks it of each glued
    cube that shares two or more corners with a new one.

    Two corners are a face when their positions differ in one bit in both
    cells. 2^m corners are one when their positions differ in exactly m
    bits in each cell (an m-subcube) and the two faces are the same cube: a
    square is fixed by the corner opposite any one corner, a larger face by
    its edges. The first pair is then at the least corner of the subcube in
    the first cell, and the last pair at the corner opposite it there."""
    n = len(pairs)
    if n == 2:
        (p0, q0), (p1, q1) = pairs
        d, e = p0 ^ p1, q0 ^ q1
        return not (d & (d - 1) or e & (e - 1))
    m = n.bit_length() - 1
    if n != 1 << m:
        return False
    pa = [p for p, _ in pairs]
    pb = [q for _, q in pairs]
    span_a = reduce(or_, pa) ^ reduce(and_, pa)
    span_b = reduce(or_, pb) ^ reduce(and_, pb)
    if span_a.bit_count() != m or span_b.bit_count() != m:
        return False
    if m == 2:
        return pb[-1] == pb[0] ^ span_b
    at = dict(pairs)
    axes = [1 << j for j in range(span_a.bit_length()) if span_a >> j & 1]
    for p in pa:
        for axis in axes:
            if not p & axis:
                e = at[p] ^ at[p | axis]
                if e & (e - 1):
                    return False
    return True


def validate(C: CubeComplex) -> ValidationReport:
    """Check the defining property: any two cells meet in a common face.
    Nothing else is decided here; pseudomanifold_check and manifold_check
    own the other structural verdicts.

    It suffices to check pairs of maximal cells (faces of cubes meet in faces,
    and a common face of two cubes induces common faces of all their faces).
    Pairs are counted through a vertex index: only pairs sharing at least
    two vertices can violate, and each is decided from the positions of
    its shared corners by the one face rule (_meets_in_face pairs the
    positions up for _positions_meet). Emits one DEBUG record under
    cubulations.core: maximal cells, pairs by shared-vertex count,
    violations and seconds.
    """
    t0 = time.perf_counter()
    maximal: list[tuple[int, ...]] = []
    for k in sorted(C.maximal_cells(), reverse=True):
        maximal.extend(C.maximal_cells()[k])
    by_vertex: dict[int, list[int]] = {}
    for idx, cell in enumerate(maximal):
        for v in cell:
            by_vertex.setdefault(v, []).append(idx)
    shared = Counter(chain.from_iterable(
        combinations(members, 2) for members in by_vertex.values()))
    violations: list[tuple[tuple[int, ...], tuple[int, ...], str]] = []
    for (a, b), n in shared.items():
        if n > 1 and not _meets_in_face(maximal[a], maximal[b]):
            reason = "shared-diagonal" if n == 2 else "non-face intersection"
            violations.append((maximal[a], maximal[b], reason))
    violations.sort()
    log.debug("validate: %d maximal cells, pairs by shared vertices %s, "
              "%d violations, %.3f s", len(maximal),
              dict(sorted(Counter(shared.values()).items())),
              len(violations), time.perf_counter() - t0)
    return ValidationReport(not violations, tuple(violations))


def _validated(C: CubeComplex, what: str, error: type[Exception]
               ) -> CubeComplex:
    """C, once validate finds no violation in it. Otherwise error, naming
    what C is and validate's first offending pair: the one rule by which
    every construction that checks what it built reports a failure."""
    rep = validate(C)
    if not rep.is_complex:
        a, b, reason = rep.violations[0]
        raise error(f"{what} is not a complex; offending pair {a} / {b} "
                    f"({reason})")
    return C


def pseudomanifold_check(C: CubeComplex) -> bool:
    """Pure, every ridge in exactly two facets, facets strongly connected."""
    d = C.dim
    facets = C.cells.get(d, ())
    if not facets:
        return False
    maximal = C.maximal_cells()
    if any(maximal[k] for k in maximal if k != d):
        return False
    inc = C.incidence()
    ridges, _ = inc.facets(d)
    ptr, owners = inc.cofaces(d - 1)
    if any(ptr[r + 1] - ptr[r] != 2 for r in range(len(ptr) - 1)):
        return False
    w = 2 * d

    def across(x: int) -> list[int]:
        # ridge r's two owners are owners[2r] and owners[2r + 1]
        return [owners[2 * r] ^ owners[2 * r + 1] ^ x
                for r in ridges[w * x:w * x + w]]

    return len(_reachable(0, across)) == len(facets)


# ---------------------------------------------------------------------------
# links and manifold checks

def _reachable(start: Hashable, neighbors: Callable[[Any], Iterable[Any]]
               ) -> dict:
    """The breadth-first tree from start in the graph given by neighbors:
    each node reached -> the node it was first reached from, start ->
    None, in visiting order, so a node's parent comes before it. Its
    keys are the nodes reachable from start."""
    tree: dict = {start: None}
    todo = deque([start])
    while todo:
        x = todo.popleft()
        for y in neighbors(x):
            if y not in tree:
                tree[y] = x
                todo.append(y)
    return tree


@lru_cache(maxsize=None)
def _neighbour_getters(k: int) -> tuple[Callable, ...]:
    """Per corner position p of a k-cube, a getter of the tuple of its k
    neighbours, in axis order."""
    if k == 1:
        return itemgetter(slice(1, 2)), itemgetter(slice(0, 1))
    return tuple(itemgetter(*(p ^ (1 << j) for j in range(k)))
                 for p in range(1 << k))


def _link_spans(C: CubeComplex, v: int, k: int) -> list[tuple[int, ...]]:
    """The link simplices that the k-cells at v span, read off star(k): per
    k-cell containing v, in star order, its k corners adjacent to v."""
    level = C.cells.get(k, ())
    ptr, owners = C.incidence().star(k)
    get = _neighbour_getters(k)
    return [get[cell.index(v)](cell)
            for cell in map(level.__getitem__, owners[ptr[v]:ptr[v + 1]])]


def vertex_link(C: CubeComplex, v: int) -> set[frozenset[int]]:
    """Abstract simplicial link: each k-cube at v contributes the (k-1)-simplex
    of its k edge-neighbors of v. Closed under faces."""
    if not 0 <= v < C.n_vertices:
        raise CubeComplexError(f"vertex {v} out of range")
    return {frozenset(face) for k in range(1, C.dim + 1)
            for s in _link_spans(C, v, k)
            for r in range(1, k + 1) for face in combinations(s, r)}


def _ring_walk(around: Iterable[tuple[int, Sequence[int]]]
               ) -> tuple[list[int], list[int]] | None:
    """The squares around a vertex as one cycle, or None when they do
    not make one. around gives each square at the vertex with its two
    spokes, the neighbours of the vertex on its edges there. Returns
    (ring, spokes), the squares in cyclic order and at i the spoke that
    ring[i] and ring[i + 1] share. The walk starts at the first square
    given and leaves it through its larger spoke."""
    around = list(around)
    at: dict[int, list[tuple[int, int]]] = {}
    for sq, (a, b) in around:
        at.setdefault(a, []).append((sq, b))
        at.setdefault(b, []).append((sq, a))
    if not around or any(len(pair) != 2 for pair in at.values()):
        return None
    cur, spoke = around[0][0], max(around[0][1])
    ring, spokes = [cur], []
    while True:
        spokes.append(spoke)
        (s1, n1), (s2, n2) = at[spoke]
        cur, spoke = (s2, n2) if s1 == cur else (s1, n1)
        if cur == ring[0]:
            break
        ring.append(cur)
    return (ring, spokes) if len(ring) == len(around) else None


def _ring_arcs(ring: Sequence[int], i: int, j: int
               ) -> tuple[list[int], list[int]]:
    """The two arcs the spokes at i != j split a ring of _ring_walk into:
    the squares after spoke i up to ring[j], then the rest."""
    d = len(ring)
    return tuple([ring[(lo + 1 + t) % d] for t in range((hi - lo) % d)]
                 for lo, hi in ((i, j), (j, i)))


def _link_cycle(C: CubeComplex, v: int) -> tuple[list[int], list[int]] | None:
    """The link of v in a 2-complex as one cycle, or None when it is not
    one: (ring, spokes), the indices in cells[2] of the squares at v in
    cyclic order, and at i the neighbour of v on the edge that ring[i]
    and ring[i + 1] share. The walk starts at v's first square in star
    order and leaves it through its larger neighbour."""
    ptr, owners = C.incidence().star(2)
    return _ring_walk(zip(owners[ptr[v]:ptr[v + 1]], _link_spans(C, v, 2)))


def _link_shapes(C: CubeComplex) -> list[str | None]:
    """Per vertex v of the d-complex C, d = 2 or 3, "sphere" when its link
    is a (d-1)-sphere, "disk" when it is a (d-1)-disk, None otherwise.
    Every link is read in one pass, off counts the incidence index holds.

    One rule serves both dimensions. Write n_k(v) for the number of
    k-cells at v and chi(v) = n_1(v) - n_2(v) + ... + (-1)^(d-1) n_d(v).
    The link of v is
      - a sphere when every k-cell at v, 0 < k < d, lies in a (k+1)-cell,
        every (d-1)-cell at v lies in two d-cells, the d-cells at v are
        connected across the (d-1)-cells at v, and chi(v) = 1 + (-1)^(d-1)
        (0 for a circle, 2 for a 2-sphere);
      - a disk when the same holds but that some (d-1)-cell at v lies in
        one d-cell (none in more than two), and chi(v) = 1.
    The coface counts are read off cofaces(k). Connectivity is one
    union-find over the corners of the d-cells, node 2^d c + (v's position
    in d-cell c), which merges the two nodes at each corner of every
    (d-1)-cell in two d-cells: the d-cells at v are connected when their
    n_d(v) nodes less the merges at v number one.

    Why this decides the link. On a complex that validate accepts, the
    k-cells at v give the (k-1)-simplices of v's link one to one: two
    k-cells at v that span the same simplex share v and its k neighbours,
    k + 1 corners that are no face of either for k >= 2, so validate
    refuses them. Where two do, the counts read the link those cells make
    counted with multiplicity, where vertex_link keeps one. So the counts
    are the link's own, and the conditions say that the link is pure,
    that each (d-2)-simplex lies on at most two facets, and that the
    facets are connected across them. For d = 2 that is a cycle (chi 0)
    or a path (chi 1). For d = 3, cutting the link apart at each vertex
    where the triangles around it make more than one fan leaves a
    connected surface, closed exactly when no edge lies on one triangle,
    and each extra fan raises chi by one. A closed connected surface has
    chi at most 2, and only the sphere has 2; one with boundary at most
    1, and only the disk has 1. So a closed link of chi 2 is a sphere,
    with nothing cut, and a link with boundary of chi 1 is a disk."""
    d, inc, verts = C.dim, C.incidence(), range(C.n_vertices)
    n = [list(map(Counter(chain.from_iterable(C.cells[k])).__getitem__, verts))
         for k in range(1, d + 1)]
    chi = list(map(sub, n[0], n[1]))
    if d == 3:
        chi = list(map(add, chi, n[2]))
    bad: set[int] = set()
    rim: set[int] = set()
    for k in range(1, d - 1):
        ptr, _ = inc.cofaces(k)
        for cell in compress(C.cells[k], map(eq, ptr, ptr[1:])):
            bad.update(cell)
    # the (d-1)-cells in two d-cells, and their two, in pairs
    ptr, owners = inc.cofaces(d - 1)
    counts = list(map(sub, ptr[1:], ptr))
    ridges = C.cells[d - 1]
    if counts.count(2) < len(counts):
        two = list(map((2).__eq__, counts))
        for cell, m in compress(zip(ridges, counts), map(not_, two)):
            (rim if m == 1 else bad).update(cell)
        ridges = compress(ridges, two)
        owners = [c for lo in compress(ptr, two) for c in owners[lo:lo + 2]]
    tops, w = C.cells[d], 1 << d
    parent = list(range(w * len(tops)))
    parts = n[-1]
    pairs = iter(owners)
    for ridge, a, b in zip(ridges, pairs, pairs):
        ta = tops[a]
        tb = tops[b]
        a *= w
        b *= w
        for x in ridge:
            p = a + ta.index(x)
            q = b + tb.index(x)
            while parent[p] != p:
                p = parent[p]
            while parent[q] != q:
                q = parent[q]
            if p != q:
                parent[p] = q
                parts[x] -= 1
    sphere_chi = 1 + (-1) ** (d - 1)
    return [None if m != 1 or v in bad
            else ("disk" if x == 1 else None) if v in rim
            else "sphere" if x == sphere_chi else None
            for v, m, x in zip(verts, parts, chi)]


def manifold_check(C: CubeComplex, d: int) -> bool:
    """Whether every vertex link of the d-complex C is a (d-1)-sphere, for
    d <= 3: for d <= 1 every vertex id lies on exactly two edges, and for
    d = 2 and 3 every shape _link_shapes reads is "sphere". For d > 3 only
    the pseudomanifold conditions are verified (partial check, as
    documented)."""
    if d != C.dim:
        return False
    if d > 3:
        return pseudomanifold_check(C)
    if d < 2:
        count = [0] * C.n_vertices
        for v in chain.from_iterable(C.cells.get(1, ())):
            count[v] += 1
        return bool(count) and all(c == 2 for c in count)
    return all(s == "sphere" for s in _link_shapes(C))


def upper_bound_checks(C: CubeComplex) -> BoundReport:
    """Diagonal bound f_d <= f0(f0-1)/2^d; for 3-pseudomanifolds also the
    quadratic cube bound f3 <= f0^2/24 (no two cubes share a diagonal)."""
    f = C.f_vector()
    f0, fd = f[0], f[-1]
    facet_bound = f0 * (f0 - 1) // (1 << C.dim) if C.dim else f0
    facet_ok = fd <= facet_bound
    cube_bound = None
    cube_ok = None
    if C.dim == 3 and pseudomanifold_check(C):
        cube_bound = f0 * f0 // 24
        cube_ok = f[3] <= cube_bound
    return BoundReport(f0, fd, facet_bound, facet_ok, cube_bound, cube_ok)


def bipartite_classes(C: CubeComplex) -> tuple[frozenset[int], frozenset[int]]:
    """Two-color the 1-skeleton by breadth-first depth parity; raises
    OddCycleError with a witness walk.

    Components are walked from their least vertex, in id order, and
    roots (isolated vertices among them) get color 0, so the splitting
    is deterministic. An edge whose ends have the same color closes the
    walk root -> a, b -> root along the tree, which is odd by parity.
    """
    adj: dict[int, list[int]] = {v: [] for v in range(C.n_vertices)}
    for a, b in C.cells.get(1, ()):
        adj[a].append(b)
        adj[b].append(a)
    parent: dict[int, int | None] = {}
    for root in range(C.n_vertices):
        if root not in parent:
            parent.update(_reachable(root, adj.__getitem__))
    color: dict[int, int] = {}
    for v, p in parent.items():
        color[v] = 0 if p is None else 1 - color[p]

    def up(v: int) -> list[int]:
        out = [v]
        while parent[out[-1]] is not None:
            out.append(parent[out[-1]])
        return out

    for a, b in C.cells.get(1, ()):
        if color[a] == color[b]:
            raise OddCycleError("1-skeleton is not bipartite",
                                up(a)[::-1] + up(b))
    zero = frozenset(v for v, c in color.items() if c == 0)
    one = frozenset(v for v, c in color.items() if c == 1)
    return zero, one
