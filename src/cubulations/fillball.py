"""Fill an even quadrangulated 2-sphere with a cubulated 3-ball.

The filler maintains the current boundary sphere as a set of squares and
glues one cube at a time. A move picks 1, 2, or 3 pairwise-adjacent
boundary squares, completes them to a combinatorial cube, removes the
glued squares, and replaces them with the remaining faces of the cube;
a remaining face that coincides with a boundary square cancels against
it instead. The search succeeds when the boundary becomes empty (a
boundary equal to the 6 squares of a single cube closes by its own
corner move, so no separate goal state is needed).

Moves are tried in a fixed order: corner moves (three squares around a
vertex) first, then roof moves (two squares sharing an edge), then bump
moves (a single square), each kind in lexicographic order. Corner and
roof moves identify missing cube corners with existing boundary
vertices where the boundary forces it; a bump move always introduces
four fresh vertices. A move must keep the boundary a valid sphere, and
the new cube must meet each cube glued earlier in a common face of
both. Depth-first backtracking over this move order with a step budget
gives a deterministic search: the same sphere and budget always yield
the same certificate or the same failure. Two restrictions keep the
search bounded and are deliberate incompleteness: revisited boundary
states are pruned even though legality also depends on the glued
interior, and the working boundary may grow only a fixed slack beyond
the input sphere, so fillings needing a large excavation are not found.
Both can hide a fill that a slower search would reach. The search can
also close a sphere into something that is not a ball, because cubes
meeting pairwise in common faces need not glue up to one: on the
boundary of the 3-cube with square_10 put on (0, 2, 4, 6) and then on
(1, 3, 5, 7), it closes 36 cubes of Euler characteristic 0. Only
verify_filling rejects that one, and fill_ball raises FillError.

Each frame does only what its move changed. Its index of stars, edge
and diagonal incidences is derived from its parent's by the squares
the move dropped and added, with the sorted lists a fresh index would
hold. Its corner candidates are its parent's, renamed to its fresh id,
except those within one edge of a changed vertex, which it builds
again. Building a candidate cube and splitting its faces into dropped
and added squares costs a few dictionary lookups. The legality check
runs only on a move the search is about to take, and it reads only the
at most six changed squares and the squares around them: the face test
is a few lookups in the edge and diagonal indexes, edge counts and the
Euler characteristic change only there, and connectivity is read off
the added squares without a walk: the move is connected when it drops a
square and its added squares are connected, since the boundary it
starts from is connected, and a move whose added squares are not
connected swaps a ring of four cube faces for the two opposite ones,
which the Euler characteristic already refuses (see _legal). The next
boundary is built only for a legal move. A taken move is tested only against the
glued cubes it shares two or more corners with: a vertex index of the
path keeps, per glued cube at the vertex, the vertex's corner position
in it, so the shared corners come as pairs of positions, and each pair
of cubes is decided by the rule validate uses (core._positions_meet);
a cube on the eight corners of a glued one is refused. None of this
changes which moves are offered, checked or taken, or their order.
Each call logs one DEBUG record under cubulations.fillball with its
work counts.

Soundness does not rest on the search. Every certificate is passed
through verify_filling before it is returned, and the verifier reads the
boundary off the ball's own facet tables. An exhausted budget raises
FillFailed with frontier statistics; a wrong certificate is never
returned. The verifier also accepts externally produced certificates,
see read_certificate.
"""

from __future__ import annotations

import logging
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    CubeComplex,
    CubeComplexError,
    _link_shapes,
    _positions_meet,
    _reachable,
    build_complex,
    canonical,
    validate,
)
from .fileio import FormatError, dumps_complex, loads_complex
from .topology import NonSurfaceLinkError, _is_closed, \
    _reduces_to_nothing, betti_numbers, surface_invariants

__all__ = [
    "FillCertificate",
    "FillCheck",
    "FillError",
    "FillFailed",
    "fill_ball",
    "read_certificate",
    "verify_filling",
    "write_certificate",
]

log = logging.getLogger(__name__)

DEFAULT_BUDGET = 50_000
GROWTH_SLACK = 16


class FillError(CubeComplexError):
    """The input does not satisfy the hypotheses of the filling step."""


class FillFailed(CubeComplexError):
    """The bounded search exhausted its budget without closing the sphere."""

    def __init__(self, steps: int, glued: int, states: int, best: int,
                 start: int, budget: int):
        super().__init__(
            f"fill search exhausted after {steps} examined moves and "
            f"{glued} glued cubes over {states} boundary states; the "
            f"boundary never dropped below {best} squares (started at "
            f"{start}, budget {budget})")
        self.steps = steps
        self.glued = glued
        self.states = states
        self.best = best
        self.start = start
        self.budget = budget


@dataclass(frozen=True)
class FillCertificate:
    """A 3-ball together with the identification of its boundary.

    boundary_iso maps vertex ids of the ball that lie on its boundary to
    vertex ids of the sphere being filled; it induces the cell bijection
    checked by verify_filling. The default filler keeps the sphere's
    vertex ids, so its map is the identity.
    """
    ball: CubeComplex
    boundary_iso: dict[int, int]

    @property
    def n_cubes(self) -> int:
        return len(self.ball.cells.get(3, ()))


@dataclass(frozen=True)
class FillCheck:
    ok: bool
    reason: str = ""
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


Square = tuple[int, int, int, int]
Edge = tuple[int, int]


def _sq_edges(sq: Square) -> tuple[Edge, ...]:
    a, b, c, d = sq  # boundary walk a-b-d-c
    return ((a, b), (b, d), (d, c), (c, a))


class _Pairs(dict):
    """Edge keys and diagonal keys of every square one search meets,
    each pair ascending, computed on first use: the edges along the
    walk a-b-d-c, then the diagonals a-d and b-c."""

    def __missing__(self, sq: Square
                    ) -> tuple[tuple[Edge, ...], tuple[Edge, Edge]]:
        a, b, c, d = sq
        got = self[sq] = (
            tuple((u, w) if u < w else (w, u) for u, w in _sq_edges(sq)),
            ((a, d) if a < d else (d, a), (b, c) if b < c else (c, b)))
        return got


def _neighbors(sq: Square, v: int) -> tuple[int, int]:
    a, b, c, d = sq
    at = sq.index(v)
    return ((b, c), (a, d), (a, d), (b, c))[at]


def _opposite(sq: Square, v: int) -> int:
    a, b, c, d = sq
    return (d, c, b, a)[sq.index(v)]


class _Boundary:
    """Index of one boundary state: stars, edge and diagonal incidences.
    Star and edge lists hold their squares in sorted order.

    In a state the search reached, any two squares meet in a common
    face, so a vertex pair is the diagonal of at most one square, and
    then an edge of none; at_diag maps the pair to that square.
    """

    def __init__(self, squares: frozenset[Square], pairs: _Pairs):
        self.squares = squares
        self.pairs = pairs
        self.star: dict[int, list[Square]] = {}
        self.at_edge: dict[Edge, list[Square]] = {}
        self.at_diag: dict[Edge, Square] = {}
        for sq in sorted(squares):
            edges, diags = pairs[sq]
            for v in sq:
                self.star.setdefault(v, []).append(sq)
            for e in edges:
                self.at_edge.setdefault(e, []).append(sq)
            for d in diags:
                self.at_diag[d] = sq

    def derive(self, drop: tuple[Square, ...], add: list[Square],
               squares: frozenset[Square]) -> _Boundary:
        """The index of `squares`, which is this state less drop plus
        add, built from this one by the change alone. The dictionaries
        are copied shallowly; only the lists at the vertices and edges
        of a changed square are rebuilt, and sorted again, so they equal
        what a fresh index lists. This index is left as it was."""
        pairs = self.pairs
        bd = _Boundary.__new__(_Boundary)
        bd.squares = squares
        bd.pairs = pairs
        bd.star = dict(self.star)
        bd.at_edge = dict(self.at_edge)
        bd.at_diag = dict(self.at_diag)
        for sq in drop:
            for d in pairs[sq][1]:
                del bd.at_diag[d]
        for sq in add:
            for d in pairs[sq][1]:
                bd.at_diag[d] = sq
        dropped = set(drop)
        _restack(bd.star, drop, add, dropped, lambda sq: sq)
        _restack(bd.at_edge, drop, add, dropped, lambda sq: pairs[sq][0])
        return bd

    def with_three(self, a: int, b: int, c: int) -> list[Square]:
        return [sq for sq in self.star.get(a, ())
                if b in sq and c in sq]


def _restack(index: dict, drop: tuple[Square, ...], add: list[Square],
             dropped: set[Square], keys: Callable[[Square], Iterable]
             ) -> None:
    """Rebuild, in place, the sorted list of an index at every key of a
    changed square: its survivors and its added squares."""
    new: dict = {}
    for sq in drop:
        for k in keys(sq):
            new.setdefault(k, [])
    for sq in add:
        for k in keys(sq):
            new.setdefault(k, []).append(sq)
    for k, extra in new.items():
        lst = [sq for sq in index.get(k, ()) if sq not in dropped] + extra
        if lst:
            lst.sort()
            index[k] = lst
        else:
            del index[k]


def _resolve_corner(bd: _Boundary, known: tuple[int, int, int],
                    anchor: int) -> int | None:
    """The fourth vertex of the boundary square on the three known
    vertices, which fixes the corner w of the cube face (k0, k1, k2, w)
    opposite `anchor`, or None when there is none. In a state the
    search reached no two squares share three vertices, so there is at
    most one; the anchor and each other known vertex are an edge of a
    glued square, so of that square too, and its fourth vertex is
    opposite the anchor."""
    found = bd.with_three(*known)
    if not found:
        return None
    (sq,) = found
    w = next(x for x in sq if x not in known)
    assert _opposite(sq, anchor) == w
    return w


def _cube_tuple(pos: dict[int, int]) -> tuple[int, ...]:
    return tuple(pos[i] for i in range(8))


def _corner_cube(bd: _Boundary, v: int, A: Square, B: Square, C: Square,
                 nid: int) -> tuple[tuple[int, ...], int] | None:
    """Cube glued along the three squares at v, or None when the
    boundary forces two far corners, or one among the seven others. In a
    state the search reached they form one cycle around v (every edge on
    two squares, none sharing three vertices), so they meet pairwise in
    an edge at v alone, on seven distinct vertices."""
    sAB = set(A) & set(B)
    sBC = set(B) & set(C)
    sCA = set(C) & set(A)
    assert all(len(s) == 2 and v in s for s in (sAB, sBC, sCA))
    y = next(u for u in sAB if u != v)
    z = next(u for u in sBC if u != v)
    x = next(u for u in sCA if u != v)
    a = _opposite(A, v)
    b = _opposite(B, v)
    c = _opposite(C, v)
    corners = [v, x, y, a, z, c, b]
    assert len(set(corners)) == 7
    # the three faces away from v: (z,c,b,w), (x,a,c,w), (y,a,b,w),
    # with w opposite z, x, y respectively
    w = None
    for known, anchor in (((z, c, b), z), ((x, a, c), x), ((y, a, b), y)):
        u = _resolve_corner(bd, known, anchor)
        if u is not None:
            if w is not None and w != u:
                return None
            w = u
    if w is None:
        w, nid = nid, nid + 1
    elif w in corners:
        return None
    pos = {0: v, 1: x, 2: y, 3: a, 4: z, 5: c, 6: b, 7: w}
    return _cube_tuple(pos), nid


def _roof_cube(bd: _Boundary, e: tuple[int, int], A: Square, B: Square,
               nid: int) -> tuple[tuple[int, ...], int] | None:
    """Cube glued along the two squares on the edge e, or None when the
    boundary forces one far corner for both side faces. In a state the
    search reached A and B share only e, and a square on three of the
    six corners shares at most two with each, so no corner repeats."""
    p, q = e
    a1 = next(u for u in _neighbors(A, p) if u != q)
    a2 = next(u for u in _neighbors(A, q) if u != p)
    b1 = next(u for u in _neighbors(B, p) if u != q)
    b2 = next(u for u in _neighbors(B, q) if u != p)
    corners = [p, q, a1, a2, b1, b2]
    assert len(set(corners)) == 6
    # side faces (p,a1,b1,w1) and (q,a2,b2,w2), w opposite p resp. q
    w1 = _resolve_corner(bd, (p, a1, b1), p)
    w2 = _resolve_corner(bd, (q, a2, b2), q)
    if w1 is None:
        w1, nid = nid, nid + 1
    if w2 is None:
        w2, nid = nid, nid + 1
    assert w1 not in corners and w2 not in corners
    if w1 == w2:
        return None
    pos = {0: p, 1: q, 2: a1, 3: a2, 4: b1, 5: b2, 6: w1, 7: w2}
    return _cube_tuple(pos), nid


def _bump_cube(A: Square, nid: int) -> tuple[tuple[int, ...], int]:
    """Cube glued along a single square; the top layer is always fresh."""
    s0, s1, s2, s3 = A
    pos = {0: s0, 1: s1, 2: s2, 3: s3,
           4: nid, 5: nid + 1, 6: nid + 2, 7: nid + 3}
    return _cube_tuple(pos), nid + 4


# corner positions of a cube's six squares, in axis/side order; each
# lists its square's corners in bitmask order
_SQUARE_CORNERS = tuple(tuple(i for i in range(8) if (i >> j) & 1 == side)
                        for j in range(3) for side in (0, 1))


def _cube_squares(cube: tuple[int, ...]) -> list[Square]:
    """The six squares of a cube, each in the form core.canonical gives
    it, written directly: the least corner, its two neighbours in
    ascending order, then the corner opposite it."""
    out = []
    for idx in _SQUARE_CORNERS:
        p = [cube[i] for i in idx]
        t = p.index(min(p))
        a, b, d = p[t ^ 1], p[t ^ 2], p[t ^ 3]
        out.append((p[t], a, b, d) if a < b else (p[t], b, a, d))
    return out


# the squares gluing a cube drops, and those it adds
Move = tuple[tuple[Square, ...], list[Square]]


def _delta(bd: _Boundary, glued: tuple[Square, ...], cube: tuple[int, ...]
           ) -> Move:
    """The squares the cube's gluing drops from the boundary of bd and
    adds: the glued squares leave, and each other cube face cancels an
    equal boundary square or joins the boundary, a lookup per square.

    No face lies on the vertices of a boundary square with the other
    diagonal. A face with a fresh corner lies on none. A corner cube's
    far face and a roof's side face hold three vertices _resolve_corner
    looked up, so such a square is the one it found; a roof's two other
    faces each hold an edge of a glued square and one of a side face,
    which such a square would hold as a diagonal.
    """
    drop = list(glued)
    add: list[Square] = []
    for f in _cube_squares(cube):
        if f in glued:
            continue
        if f in bd.squares:
            drop.append(f)
        else:
            add.append(f)
    return tuple(drop), add


def _faces_clash(bd: _Boundary, dropped: set[Square], add: list[Square]
                 ) -> bool:
    """Whether an added square meets a surviving or earlier-added one
    in anything but a common face: an edge of both, a vertex, or
    nothing.

    Read off the pair indexes: an added square f clashes exactly when
    such a square has a diagonal of f as an edge or a diagonal, or an
    edge of f as a diagonal. Two squares sharing three corners share a
    diagonal pair of each, and two sharing two do so in a pair that is
    an edge of both, or a diagonal of one.
    """
    pairs = bd.pairs
    on_added: set[Edge] = set()     # edges and diagonals of earlier adds
    diag_added: set[Edge] = set()   # diagonals of earlier adds
    for f in add:
        edges, diags = pairs[f]
        for d in diags:
            if d in on_added:
                return True
            g = bd.at_diag.get(d)
            if g is not None and g not in dropped:
                return True
            if any(g not in dropped for g in bd.at_edge.get(d, ())):
                return True
        for e in edges:
            if e in diag_added:
                return True
            g = bd.at_diag.get(e)
            if g is not None and g not in dropped:
                return True
        on_added.update(edges)
        on_added.update(diags)
        diag_added.update(diags)
    return False


def _legal(bd: _Boundary, drop: tuple[Square, ...], add: list[Square]
           ) -> bool:
    """Whether the boundary of bd, less drop and plus add, is a sphere.

    It must stay a closed surface of sphere characteristic: every edge
    on exactly two squares, connected, Euler characteristic 2, and any
    two squares meeting in a common face. bd is a state the search
    reached, so it already is one, and only the changed squares are
    read: the face test takes a few lookups per added square (see
    _faces_clash), edge and vertex counts change only on the changed
    squares, and the Euler characteristic by their difference.

    Connectivity is decided without a walk, on the moves the search
    makes: _delta's, whose drop and add are together the six faces of
    one cube. When the move drops a square and its added squares are
    connected across shared edges (after the face test, two added
    squares that share two corners share an edge of both), the result
    is connected once the edge counts hold:
    - The parent is a closed connected surface, so a shortest path from
      any survivor to a dropped square runs through survivors, each
      step over an edge whose two squares both survive and so stay
      adjacent. Its last survivor shares an edge with a dropped square.
    - After the move that edge has exactly two squares. The only other
      square on it in the parent was dropped, so the second one is an
      added square.
    - Two added squares that share an edge are the only two squares
      on it, so they are adjacent.
    The argument needs a dropped square. A move that drops none and
    adds some is refused: an added square cannot share an edge with the
    old boundary, whose edges already have two squares each, so the
    result is never connected. A move whose added squares are not
    connected is refused too, which is exact for a _delta move because
    the Euler test has already refused every such move that could be
    legal:
    - Two faces of a cube share an edge unless they are opposite, so a
      set of its faces that is not connected is exactly two opposite
      faces, and the drop is the ring of the other four.
    - Trading that ring for the two caps removes two squares and the
      four edges between ring faces, each of which had only ring faces
      on it, and no vertex, since the caps hold all eight corners: the
      Euler characteristic rises by 2, and the move is refused before
      its connectivity is asked.
    On a move of any other shape this refusal can be wrong, as added
    squares may be joined through survivors, so the check is exact on
    _delta moves only.
    """
    if not drop:
        return not add
    if not add and len(drop) == len(bd.squares):
        return True
    pairs = bd.pairs
    dropped = set(drop)
    if _faces_clash(bd, dropped, add):
        return False
    # per edge of a changed square, its change in squares, and the
    # added squares on it
    change: dict[Edge, int] = {}
    on_added: dict[Edge, list[Square]] = {}
    for sq in drop:
        for e in pairs[sq][0]:
            change[e] = change.get(e, 0) - 1
    for f in add:
        for e in pairs[f][0]:
            change[e] = change.get(e, 0) + 1
            on_added.setdefault(e, []).append(f)
    euler = len(add) - len(drop)
    for e, step in change.items():
        had = len(bd.at_edge.get(e, ()))
        if had + step not in (0, 2):
            return False
        euler -= (had + step > 0) - (had > 0)
    star: dict[int, int] = {}
    for squares, step in ((drop, -1), (add, 1)):
        for sq in squares:
            for v in sq:
                star[v] = star.get(v, len(bd.star.get(v, ()))) + step
    for v, n in star.items():
        euler += (n > 0) - (v in bd.star)
    if euler:
        return False

    def joined(f: Square) -> list[Square]:
        return [g for e in pairs[f][0] for g in on_added[e]]

    # a survivor's edge with a dropped square now has an added one, so
    # a drop that leaves any survivor adds a square
    return len(_reachable(add[0], joined)) == len(add)


@dataclass
class _Tally:
    """Work counts of one fill_ball call, for its log record."""
    steps: int = 0
    glued: int = 0
    states: int = 0
    candidates: int = 0     # cubes offered: built and split into drop and add
    checked: int = 0        # of those, moves that ran the legality check
    reused: int = 0         # offered corner candidates taken from the parent
    visited: int = 0        # steps pruned: the next boundary was seen before
    collisions: int = 0     # steps pruned: the cube hits the glued path
    kinds: Counter = field(default_factory=Counter)    # steps by move kind


# A corner candidate: the three squares it glues, its cube, how many
# fresh ids the cube takes (0, or 1 for its last corner), and its split
# (see _delta). The fresh id is the next one of the state it was built
# in.
Corner = tuple[tuple[Square, ...], tuple[int, ...], int, Move]


def _corner_at(bd: _Boundary, v: int, nid: int) -> Corner | None:
    """The corner candidate at a vertex with three squares, or None
    when no cube completes them."""
    glued = tuple(bd.star[v])
    got = _corner_cube(bd, v, *glued, nid)
    if got is None:
        return None
    cube, nid2 = got
    return glued, cube, nid2 - nid, _delta(bd, glued, cube)


def _corners(bd: _Boundary, nid: int, cap: int, parent: dict[int, Corner],
             changed: tuple[Square, ...], tally: _Tally
             ) -> tuple[dict[int, Corner], list[Corner]]:
    """The corner candidates of a state, by vertex, and those offered
    in the order the search tries them.

    Given the table of the parent state and the squares the move into
    this one changed, only the candidates at a changed square's
    vertices and at their edge-neighbours are built again; the first
    state has an empty parent, and all of its squares changed. A
    candidate at v reads the stars of v and of the three vertices x, y,
    z it shares an edge with (_corner_cube), and _delta looks up the
    cube's faces, each of which lies on one of those four. A move
    changes a star or a face only at vertices of the squares it
    changes, so any other candidate is the one a build here would give,
    up to the name of its fresh corner, which _named sets. A vertex
    with no candidate in the parent and no changed vertex within one
    edge has none here.

    The order is the one fill_ball promises: fewer fresh ids, then a
    smaller next boundary, then the cube tuple. A cube begins with its
    corner's vertex, so that tiebreak is the vertex, whatever the fresh
    id. Candidates whose boundary would exceed cap squares are left
    out; that filter runs in every frame, since the size changes.
    """
    table = dict(parent)
    redo = {v for sq in changed for v in sq}
    for v in list(redo):
        for sq in bd.star.get(v, ()):
            redo.update(_neighbors(sq, v))
    for v in redo:
        table.pop(v, None)
    built = 0
    for v in redo:
        if len(bd.star.get(v, ())) == 3:
            corner = _corner_at(bd, v, nid)
            if corner is not None:
                table[v] = corner
                built += 1
    tally.candidates += len(table)
    tally.reused += len(table) - built
    room = cap - len(bd.squares)
    ranked = []
    for v, corner in table.items():
        drop, add = corner[3]
        grow = len(add) - len(drop)
        if grow <= room:
            ranked.append(((corner[2], grow, v), corner))
    ranked.sort(key=lambda r: r[0])
    return table, [corner for _, corner in ranked]


def _named(corner: Corner, nid: int) -> tuple[tuple[int, ...], Move]:
    """A corner candidate's cube and split, its fresh corner named nid.

    The fresh corner is the largest id of each square it lies on before
    and after, so renaming it keeps every square in canonical form."""
    _, cube, fresh, move = corner
    old = cube[7]
    if not fresh or old == nid:
        return cube, move

    def rename(sq: Square) -> Square:
        return tuple(nid if u == old else u for u in sq) if old in sq else sq

    drop, add = move
    return cube[:7] + (nid,), (drop, [rename(sq) for sq in add])


# a move the search examines: its kind, cube, the squares it drops and
# adds, the next boundary, and the next fresh id
Step = tuple[str, tuple[int, ...], tuple[Square, ...], list[Square],
             frozenset[Square], int]


def _moves(bd: _Boundary, nid: int, cap: int, corners: list[Corner],
           tally: _Tally) -> Iterator[Step]:
    """Legal moves from one boundary state, best first.

    Corner moves come before roofs before bumps; within a kind, moves
    that introduce fewer fresh vertices and leave a smaller boundary
    come first, with the cube tuple as the lexicographic tiebreak. The
    order fixes the certificate the search returns. Moves whose
    boundary would exceed `cap` squares are not offered, which keeps
    the cost of a search step proportional to the input.

    The corner candidates come ranked from _corners. A roof or bump
    candidate costs one _delta, a few dictionary lookups. The legality
    check (see _legal) runs when a move comes up to be yielded, and the
    next boundary is built only for a legal move. Illegal moves are
    never yielded, so the order of the yielded moves is the one a check
    of every candidate up front would give.
    """
    state = bd.squares

    def offer(glued: tuple[Square, ...], cube: tuple[int, ...]
              ) -> Move | None:
        tally.candidates += 1
        move = _delta(bd, glued, cube)
        if len(state) - len(move[0]) + len(move[1]) > cap:
            return None
        return move

    def take(kind: str, cube: tuple[int, ...], nid2: int,
             move: Move | None) -> Step | None:
        if move is None:
            return None
        drop, add = move
        tally.checked += 1
        if not _legal(bd, drop, add):
            return None
        return kind, cube, drop, add, state.difference(drop).union(add), nid2

    for corner in corners:
        cube, move = _named(corner, nid)
        mv = take("corner", cube, nid + corner[2], move)
        if mv is not None:
            yield mv
    # roofs and bumps are rarely consumed, so even their cheap part runs
    # only when the corner moves above are exhausted
    roofs = []
    for e in sorted(bd.at_edge):
        A, B = bd.at_edge[e]
        got = _roof_cube(bd, e, A, B, nid)
        if got is not None:
            roofs.append(((got[1] - nid, got[0]), got[0], got[1], (A, B)))
    roofs.sort(key=lambda r: r[0])
    for _, cube, nid2, glued in roofs:
        mv = take("roof", cube, nid2, offer(glued, cube))
        if mv is not None:
            yield mv
    if len(state) + 4 <= cap:
        for A in sorted(state):
            cube, nid2 = _bump_cube(A, nid)
            mv = take("bump", cube, nid2, offer((A,), cube))
            if mv is not None:
                yield mv


def _sphere_defect(S: CubeComplex) -> str | None:
    """The first hypothesis of the filling step that S fails, as a
    message, or None: a valid closed 2-complex with an even number of
    squares, whose vertex links are cycles, and a connected orientable
    surface of genus zero."""
    if S.dim != 2:
        return f"fill_ball needs a 2-complex, got dimension {S.dim}"
    if not validate(S).is_complex:
        return "input sphere is not a valid complex"
    not_surface = None
    try:
        closed, orientable, genus = surface_invariants(S)
    except NonSurfaceLinkError as e:
        # closedness is still reported first, as on a surface
        closed, not_surface = _is_closed(S), f"input is not a surface: {e}"
    if not closed:
        return "input surface is not closed"
    f2 = len(S.cells[2])
    if f2 % 2:
        return (f"sphere has an odd number of squares ({f2}); a cubulated "
                "ball boundary always has evenly many")
    if not_surface:
        return not_surface
    if not orientable or genus is None:
        return "input surface is not a connected orientable closed surface"
    if genus != 0:
        return f"input surface has genus {genus}, not a sphere"
    return None


def fill_ball(S: CubeComplex, budget: int = DEFAULT_BUDGET) -> FillCertificate:
    """Cubulated 3-ball whose boundary is the given quadrangulated sphere.

    The sphere must be a valid closed 2-complex of genus zero with an
    even number of squares; each hypothesis failure raises FillError,
    and so does a budget that is not an int ≥ 0. The search examines
    at most `budget` candidate gluings, never lets the working boundary
    grow more than GROWTH_SLACK squares beyond the input, and raises
    FillFailed with frontier statistics when the budget runs out. A
    returned certificate has been passed through verify_filling; its
    boundary map is the identity on the sphere's vertex ids. The cube
    count is whatever the search found first, no bound on it is
    promised.

    Each call emits one DEBUG record under cubulations.fillball: the
    outcome ("filled" or the exception's name), the input squares,
    steps, glued cubes, boundary states, candidate moves generated and
    fully checked, steps by move kind, steps pruned by reason,
    candidates built and reused, and seconds. Glued cubes and the two
    prunes add up to the steps.
    """
    t0 = time.perf_counter()
    tally = _Tally()
    outcome = "filled"
    try:
        return _fill(S, budget, tally)
    except Exception as e:
        outcome = type(e).__name__
        raise
    finally:
        kinds = tally.kinds
        log.debug("fill_ball: %s; %d squares in, %d steps, %d glued cubes, "
                  "%d states, %d candidates generated, %d fully checked; "
                  "steps %d corner, %d roof, %d bump; pruned %d visited, "
                  "%d collision; candidates %d built, %d reused; %.3f s",
                  outcome, len(S.cells.get(2, ())), tally.steps,
                  tally.glued, tally.states, tally.candidates, tally.checked,
                  kinds["corner"], kinds["roof"], kinds["bump"],
                  tally.visited, tally.collisions,
                  tally.candidates - tally.reused, tally.reused,
                  time.perf_counter() - t0)


def _fill(S: CubeComplex, budget: int, tally: _Tally) -> FillCertificate:
    """fill_ball's checks and search, counting its work in tally."""
    # the search stops when its step count equals the budget
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 0:
        raise FillError(f"budget must be an int >= 0, got {budget!r}")
    reason = _sphere_defect(S)
    if reason is not None:
        raise FillError(reason)

    start = frozenset(S.cells[2])
    cap = len(start) + GROWTH_SLACK
    visited: set[frozenset[Square]] = {start}
    tally.states = 1
    best = len(start)
    bd = _Boundary(start, _Pairs())
    table, corners = _corners(bd, S.n_vertices, cap, {}, tuple(start), tally)
    # per frame: its moves, its index and its corner candidates by vertex
    frames = [(_moves(bd, S.n_vertices, cap, corners, tally), bd, table)]
    cubes: list[tuple[int, ...]] = []
    # vertex -> (glued cube, the vertex's corner position in it)
    near: dict[int, list[tuple[int, int]]] = {}
    final: frozenset[Square] | None = None
    while frames:
        got = next(frames[-1][0], None)
        if got is None:
            frames.pop()
            if cubes:
                for v in cubes.pop():
                    near[v].pop()
            continue
        if tally.steps == budget:
            raise FillFailed(tally.steps, tally.glued, tally.states, best,
                             len(start), budget)
        tally.steps += 1  # every examined candidate counts, or pruning is free
        kind, cube, drop, add, nxt, nid = got
        tally.kinds[kind] += 1
        if nxt in visited:
            tally.visited += 1
            continue
        # a cube that shares at most one corner with a glued one meets it
        # in a common face, so only those sharing two or more are tested,
        # by validate's rule on the shared corners' positions; a cube on
        # the eight corners of a glued one meets it in a face only by
        # being it, and is refused
        shared: dict[int, list[tuple[int, int]]] = {}
        for p, v in enumerate(cube):
            for i, q in near.get(v, ()):
                shared.setdefault(i, []).append((p, q))
        if any(len(pq) == 8 or len(pq) > 1 and not _positions_meet(pq)
               for pq in shared.values()):
            tally.collisions += 1
            continue
        tally.glued += 1
        visited.add(nxt)
        tally.states += 1
        for p, v in enumerate(cube):
            near.setdefault(v, []).append((len(cubes), p))
        cubes.append(cube)
        if not nxt:
            final = nxt
            break
        if len(nxt) < best:
            best = len(nxt)
        _, bd, table = frames[-1]
        bd = bd.derive(drop, add, nxt)
        table, corners = _corners(bd, nid, cap, table, (*drop, *add), tally)
        frames.append((_moves(bd, nid, cap, corners, tally), bd, table))
    if final is None:
        raise FillFailed(tally.steps, tally.glued, tally.states, best,
                         len(start), budget)
    ball = build_complex(3, cubes)
    cert = FillCertificate(ball, {v: v for v in range(S.n_vertices)})
    check = verify_filling(cert, S)
    if not check:  # pragma: no cover - soundness backstop
        raise FillError(f"search produced an invalid filling: {check.reason}")
    return cert


def verify_filling(cert: FillCertificate, S: CubeComplex) -> FillCheck:
    """Independent check of a filling certificate against its sphere.

    Checks that the ball is a valid complex and a pure 3-complex with the
    homology of a ball: acyclic if its chain complex reduces to nothing
    (topology._reduce), and otherwise by its Betti numbers. Then reads
    its boundary in its own ids (_rim_cells), checks that its vertex links
    are 2-spheres inside and disks on the boundary (core._link_shapes
    reads them all in one pass), maps the boundary through boundary_iso
    and compares it cell by cell with S in every dimension. The
    certificate's producer is not trusted, so external certificates go
    through the same gate. Returns a report; the witness on a cell
    mismatch is an unmatched cell, on a link a vertex.
    """
    ball = cert.ball
    if ball.dim != 3:
        return FillCheck(False, f"ball has dimension {ball.dim}, not 3")
    rep = validate(ball)
    if not rep.is_complex:
        return FillCheck(False, "ball is not a valid complex",
                         rep.violations[0] if rep.violations else None)
    stray = [c for k in range(3) for c in ball.maximal_cells()[k]]
    if stray:
        return FillCheck(False, "ball is not a pure 3-complex", stray[0])
    if not _reduces_to_nothing(ball):
        prof = betti_numbers(ball)
        if prof.betti != (1, 0, 0, 0) or any(prof.torsion):
            return FillCheck(False,
                             f"ball homology {prof.betti} differs from a ball")
    bdry = _rim_cells(ball)
    on_rim = {v for (v,) in bdry[0]}
    for v, shape in enumerate(_link_shapes(ball)):
        want = "disk" if v in on_rim else "sphere"
        if shape != want:
            return FillCheck(False, f"link of vertex {v} is not a {want}",
                             (v,))
    iso = cert.boundary_iso
    missing = [v for (v,) in bdry[0] if v not in iso]
    if missing:
        return FillCheck(False,
                         f"boundary vertex {missing[0]} missing from the map")
    if len({iso[v] for v in on_rim}) != len(on_rim):
        return FillCheck(False, "boundary map is not injective on vertices")
    if len(on_rim) != S.n_vertices:
        return FillCheck(
            False, f"boundary has {len(on_rim)} vertices, sphere has "
            f"{S.n_vertices}")
    for k in range(3):
        have = sorted(canonical(tuple(iso[v] for v in cell))
                      for cell in bdry[k])
        want = sorted(S.cells.get(k, ()))
        if have != want:
            witness = min(set(have) - set(want) or set(want) - set(have))
            return FillCheck(
                False, f"boundary and sphere differ in dimension {k}",
                witness)
    return FillCheck(True)


# ---------------------------------------------------------------------------
# certificate files

def _rim_cells(ball: CubeComplex) -> dict[int, list[tuple[int, ...]]]:
    """The ball's boundary: per level its cells, in the ball's own ids and
    sorted order, read off the facet tables (Incidence.closure)."""
    inc = ball.incidence()
    return {k: [ball.cells[k][i] for i in ids]
            for k, ids in enumerate(inc.closure(ball.dim - 1, inc.rim()))}


def _global_index(cells: dict[int, Sequence[tuple[int, ...]]]) -> list:
    """The cells of a per-level table in one list, dimensions ascending."""
    return [c for k in sorted(cells) for c in cells[k]]


def write_certificate(cert: FillCertificate, S: CubeComplex,
                      path: str | Path) -> None:
    """Write a filling certificate: the ball, then the boundary map.

    The ball is serialized in the interchange format; each following
    `bmap <sphere-cell-index> <ball-boundary-cell-index>` line pairs a
    cell of the sphere with a cell of the ball's boundary (_rim_cells).
    Indices count all cells, dimensions ascending, each dimension in
    canonical order. A boundary vertex that boundary_iso misses, or a
    boundary cell it carries off S, raises FillError. Certificates from
    any producer are read back with read_certificate and checked with
    verify_filling.
    """
    bdry = _rim_cells(cert.ball)
    iso = cert.boundary_iso
    missing = [v for (v,) in bdry[0] if v not in iso]
    if missing:
        raise FillError(f"boundary vertex {missing[0]} missing from the map")
    s_at = {cell: i for i, cell in enumerate(_global_index(S.cells))}
    lines = [dumps_complex(cert.ball).rstrip("\n")]
    for j, cell in enumerate(_global_index(bdry)):
        image = canonical(tuple(iso[v] for v in cell))
        if image not in s_at:
            raise FillError(f"boundary cell {cell} maps to {image}, which "
                            "is not a cell of the sphere")
        lines.append(f"bmap {s_at[image]} {j}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_certificate(path: str | Path, S: CubeComplex) -> FillCertificate:
    """Read a certificate written by write_certificate or a foreign filler.

    Only well-formedness is enforced here: the bmap lines must cover
    the boundary of the ball exactly once, pair cells of equal
    dimension, and agree with the vertex pairs they contain. Whether
    the map is an isomorphism onto S is decided by verify_filling.
    """
    text = Path(path).read_text()
    cc_lines: list[str] = []
    pairs: list[tuple[int, int]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if parts[:1] == ["bmap"]:
            try:
                i, j = int(parts[1]), int(parts[2])
            except (IndexError, ValueError):
                raise FormatError(f"line {ln}: malformed bmap line") from None
            if len(parts) != 3:
                raise FormatError(f"line {ln}: malformed bmap line")
            pairs.append((i, j))
            raw = ""  # a blank line in its place keeps the line numbers
        cc_lines.append(raw)
    ball = loads_complex("\n".join(cc_lines))
    s_cells = _global_index(S.cells)
    b_cells = _global_index(_rim_cells(ball))
    seen_j: set[int] = set()
    phi: dict[int, int] = {}
    for i, j in pairs:
        if not (0 <= i < len(s_cells)) or not (0 <= j < len(b_cells)):
            raise FormatError(f"bmap index pair ({i}, {j}) out of range")
        if j in seen_j:
            raise FormatError(f"boundary cell {j} mapped twice")
        seen_j.add(j)
        sc, bc = s_cells[i], b_cells[j]
        if len(sc) != len(bc):
            raise FormatError(f"bmap pair ({i}, {j}) mixes a "
                              f"{len(sc).bit_length() - 1}-cell with a "
                              f"{len(bc).bit_length() - 1}-cell")
        if len(bc) == 1:
            phi[bc[0]] = sc[0]
    if len(seen_j) != len(b_cells):
        raise FormatError(f"boundary map covers {len(seen_j)} of "
                          f"{len(b_cells)} boundary cells")
    for i, j in pairs:
        bc = b_cells[j]
        if canonical(tuple(phi[v] for v in bc)) != s_cells[i]:
            raise FormatError(f"bmap pair ({i}, {j}) contradicts the "
                              "vertex pairs in the same file")
    return FillCertificate(ball, phi)
