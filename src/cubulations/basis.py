"""Canonical homology bases of closed orientable square surfaces.

The surface is cut open to a disk along the edges not crossed by a
breadth-first dual spanning tree. The disk boundary is a cyclic word of
cut-edge occurrences; between consecutive occurrences sits a corner fan,
the interior edges a curve crosses when it slides past that corner.
The cut edges split into a primal spanning tree and 2g leftover edges.
Tree occurrences stay passive: curves slide past them without crossing.
Handles are formed one leftover pair at a time: a linked pair (u, v),
word u A v B u' C v' D, is glued, rearranging the arcs into A D C B,
and the two curves of the handle run just inside the boundary, one
alongside an arc between the u-occurrences closing through u, the
other alongside an arc between the v-occurrences closing through v.

Curves are cyclic crossing sequences. Each event crosses one edge
between two faces and is tagged with the corner vertex it hugs and a
lane depth; stage curves are nested, later stages closer to the
boundary, which fixes the order of crossing points along every edge.
Events (a curve's Crossing, a corner fan's FanEvent) are named tuples,
so they are built, compared and hashed as tuples.
A corner fan contains each interior edge at most once per endpoint, so
a curve crosses an edge at most twice. The bound, the canonical
intersection pattern, and unimodularity are verified, never assumed.
Unimodularity is read off topology.smith_invariant_factors: an n x n
pairing matrix is unimodular exactly when it has n invariant factors,
all equal to 1.

The arrangement (which curve segments cross inside which face) is
computed on flat arrays. Events are numbered globally, curve after
curve, so event g is the start of chord g, the segment of its curve
that runs through the face it enters. Each edge's events are sorted
once along the edge from its low endpoint, by corner and lane; no two
events may share both (such a family is refused), so the face that
runs the edge low -> high reads them forwards and the other face reads
them backwards. Walking a face boundary once with a stack of open
chords finds its crossings: chords that do not cross nest, so a chord
closing below the top of the stack crosses exactly the chords above
it. The last family's arrangement is kept, and a family equal to it up
to reversing some curves is answered from it by the identity
signed[i, j] -> sigma_i sigma_j signed[i, j], with sigma_i = -1 on the
reversed curves and the counts unchanged: reversing a curve negates
the sign of each of its crossings, and twice for a self-crossing. So
the canonical basis, whose betas are flipped after the arrangement
that decides the flips, is never arranged twice.
"""

from __future__ import annotations

import logging
import time
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple, Sequence

from .core import CubeComplex, CubeComplexError, _link_cycle, _reachable, \
    _ring_arcs, _ring_walk, _validated, build_complex
from .topology import NonSurfaceLinkError, _is_closed, \
    orientation_assignment, smith_invariant_factors, surface_invariants
from .transforms import _insert_square_5

Edge = tuple[int, int]

log = logging.getLogger(__name__)


class BasisError(CubeComplexError):
    pass


# ---------------------------------------------------------------------------
# oriented faces, dual tree, and the cut-open disk


def _edge(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


def oriented_face_cycles(C: CubeComplex) -> list[tuple[int, ...]]:
    """Vertex cycle of every square, all faces coherently oriented."""
    signs, conflict, _ = orientation_assignment(C)
    if conflict is not None:
        raise BasisError(f"surface is not orientable: conflict {conflict}")
    # corners in bitmask order; boundary walk a-b-d-c
    return [(a, b, d, c) if sign > 0 else (c, d, b, a)
            for (a, b, c, d), sign in zip(C.cells[2], signs)]


def _face_adjacency(C: CubeComplex) -> dict[Edge, list[int]]:
    """Edge -> the two squares on it, read off cofaces(1)."""
    if not _is_closed(C):
        raise BasisError("an edge lies in other than two squares; need a "
                         "closed surface")
    _, owners = C.incidence().cofaces(1)
    return {e: list(owners[2 * i:2 * i + 2]) for i, e in enumerate(C.cells[1])}


def _dual_tree(C: CubeComplex, by_edge: dict[Edge, list[int]],
               root: int = 0) -> set[Edge]:
    """Edges crossed by a BFS spanning tree of the face adjacency graph,
    neighbours in id order: per face, the least edge it shares with its
    parent."""
    n_faces = len(C.cells[2])
    # face -> neighbouring face -> the least edge between them
    adj: dict[int, dict[int, Edge]] = {i: {} for i in range(n_faces)}
    for e, (f1, f2) in by_edge.items():
        adj[f1][f2] = adj[f2][f1] = min(e, adj[f1].get(f2, e))
    parent = _reachable(root, lambda f: sorted(adj[f]))
    if len(parent) != n_faces:
        raise BasisError("dual graph is not connected")
    return {adj[f][g] for f, g in parent.items() if g is not None}


class FanEvent(NamedTuple):
    """One interior-edge crossing as a curve slides past a corner."""
    edge: Edge
    vertex: int  # the corner endpoint the crossing hugs
    f_from: int
    f_to: int


@dataclass
class Dart:
    """A boundary occurrence of a cut edge, directed along the disk walk."""
    edge: Edge
    tail: int
    head: int
    face: int  # the face just inside the disk along this occurrence
    fan_before: list[FanEvent]  # corner fan between the previous dart and this

    def with_fan(self, fan: list[FanEvent]) -> "Dart":
        return Dart(self.edge, self.tail, self.head, self.face,
                    fan + self.fan_before)


def _boundary_circle(face_cycles: list[tuple[int, ...]],
                     by_edge: dict[Edge, list[int]],
                     crossed: set[Edge]) -> list[Dart]:
    """Walk the boundary of the disk obtained by gluing faces along the
    crossed edges, collecting corner fans along the way."""
    cut = [e for e in by_edge if e not in crossed]
    if not cut:
        raise BasisError("no cut edges; nothing to open")
    start_edge = min(cut)
    f0 = by_edge[start_edge][0]
    cyc = face_cycles[f0]
    i0 = next(i for i in range(4)
              if _edge(cyc[i], cyc[(i + 1) % 4]) == start_edge)

    darts: list[Dart] = []
    fan: list[FanEvent] = []
    fi, i = f0, i0
    first = True
    while first or (fi, i) != (f0, i0):
        first = False
        cyc = face_cycles[fi]
        a, b = cyc[i], cyc[(i + 1) % 4]
        e = _edge(a, b)
        if e in crossed:
            f1, f2 = by_edge[e]
            other = f2 if fi == f1 else f1
            fan.append(FanEvent(e, a, fi, other))  # pivot is the tail
            ocyc = face_cycles[other]
            j = next(k for k in range(4)
                     if (ocyc[k], ocyc[(k + 1) % 4]) == (b, a))
            fi, i = other, (j + 1) % 4
            continue
        darts.append(Dart(e, a, b, fi, fan))
        fan = []
        i = (i + 1) % 4
    darts[0] = darts[0].with_fan(fan)
    assert all(v == 2 for v in Counter(d.edge for d in darts).values())
    return darts


def _primal_tree(n_vertices: int, cut: list[Edge]) -> set[Edge]:
    """BFS spanning tree of the cut graph; its complement within the cut
    edges carries exactly 2g leftover edges, the handle candidates."""
    adj: dict[int, list[int]] = {}
    for a, b in cut:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    parent = _reachable(min(adj), lambda v: sorted(adj[v]))
    if len(parent) != n_vertices:
        raise BasisError("cut graph does not span the vertex set")
    return {_edge(p, v) for v, p in parent.items() if p is not None}


# ---------------------------------------------------------------------------
# curves


class Crossing(NamedTuple):
    """One crossing of a curve with an edge, out of face f_from into f_to."""
    edge: Edge
    vertex: int  # corner endpoint the crossing hugs
    depth: int  # lane depth; larger lies deeper inside the disk
    f_from: int
    f_to: int


@dataclass(frozen=True)
class CurveOnSurface:
    crossings: tuple[Crossing, ...]  # cyclic transversal crossing sequence

    def edges_crossed(self) -> Counter[Edge]:
        return Counter(c.edge for c in self.crossings)

    def reversed_(self) -> "CurveOnSurface":
        return CurveOnSurface(tuple(
            Crossing(e, v, depth, f_to, f_from)
            for e, v, depth, f_from, f_to in reversed(self.crossings)))

    def __len__(self) -> int:
        return len(self.crossings)


@dataclass(frozen=True)
class CurveBasis:
    genus: int
    curves: tuple[CurveOnSurface, ...]  # alpha_1, beta_1, ..., alpha_g, beta_g
    intersection_matrix: tuple[tuple[int, ...], ...]
    handle_edges: tuple[Edge, ...]  # the 2g glued word symbols, stage order
    spur_edges: tuple[Edge, ...]  # primal spanning tree of the cut graph;
    # carries the fundamental loops used to verify unimodularity

    def curve_lengths(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.curves)


def _span_events(word: list[Dart], p: int, q: int, depth: int
                 ) -> tuple[Crossing, ...]:
    """Closed curve alongside the boundary from just after the dart at p
    to just before its partner at q, closing through their common edge."""
    d_p, d_q = word[p], word[q]
    assert d_p.edge == d_q.edge
    span = word[p + 1:q + 1] if p < q else word[p + 1:] + word[:q + 1]
    return (Crossing(d_p.edge, d_p.head, depth, d_q.face, d_p.face),
            *(Crossing(e, v, depth, f_from, f_to) for d in span
              for e, v, f_from, f_to in d.fan_before))


def _stage_glue(word: list[Dart], pu: int, pv: int, pu2: int, pv2: int,
                depth_a: int, depth_b: int
                ) -> tuple[list[Dart], CurveOnSurface, CurveOnSurface]:
    """Glue the linked pair at positions pu < pv < pu2 < pv2.

    Writing the word as u A v B u' C v' D, the rearranged boundary is
    A D C B with four seam corners; a strand passing a seam crosses the
    glued edge once, hugging the endpoint where the two old corners
    meet. The returned curves take the cheaper side between their
    occurrences."""
    n = len(word)
    u_dart, v_dart = word[pu], word[pv]
    u2_dart, v2_dart = word[pu2], word[pv2]

    # a side's cost is its fan events; the two sides of a pair make up
    # the whole word
    fans = [len(d.fan_before) for d in word]
    total = sum(fans)
    cost_u = sum(fans[pu + 1:pu2 + 1])
    cost_v = sum(fans[pv + 1:pv2 + 1])
    if cost_u <= total - cost_u:
        alpha = CurveOnSurface(_span_events(word, pu, pu2, depth_a))
    else:
        alpha = CurveOnSurface(_span_events(word, pu2, pu, depth_a))
    if cost_v <= total - cost_v:
        beta = CurveOnSurface(_span_events(word, pv, pv2, depth_b))
    else:
        beta = CurveOnSurface(_span_events(word, pv2, pv, depth_b))

    A = [word[i] for i in range(pu + 1, pv)]
    B = [word[i] for i in range(pv + 1, pu2)]
    Cc = [word[i] for i in range(pu2 + 1, pv2)]
    D = [word[(pv2 + 1 + i) % n] for i in range((pu - pv2 - 1) % n)]

    ue, ve = u_dart.edge, v_dart.edge
    # seam fans, each ending with the crossing of the glued edge:
    #   end of B meets start of A through u, at u's head
    #   end of A meets start of D through v, at v's tail
    #   end of D meets start of C through u, at u's tail
    #   end of C meets start of B through v, at v's head
    fan_A = word[pu2].fan_before + [
        FanEvent(ue, u_dart.head, u2_dart.face, u_dart.face)]
    fan_D = word[pv].fan_before + [
        FanEvent(ve, v_dart.tail, v_dart.face, v2_dart.face)]
    fan_C = word[pu].fan_before + [
        FanEvent(ue, u_dart.tail, u_dart.face, u2_dart.face)]
    fan_B = word[pv2].fan_before + [
        FanEvent(ve, v_dart.head, v2_dart.face, v_dart.face)]

    new_word: list[Dart] = []
    pending: list[FanEvent] = []
    for arc, fanx in ((A, fan_A), (D, fan_D), (Cc, fan_C), (B, fan_B)):
        fanx = pending + fanx
        pending = []
        if not arc:
            pending = fanx
            continue
        new_word.append(arc[0].with_fan(fanx))
        new_word.extend(arc[1:])
    if pending and new_word:
        new_word[0] = new_word[0].with_fan(pending)
    return new_word, alpha, beta


def _find_linked_pair(word: list[Dart], active: set[Edge]
                      ) -> tuple[int, int, int, int]:
    positions: dict[Edge, list[int]] = {}
    for i, d in enumerate(word):
        if d.edge in active:
            positions.setdefault(d.edge, []).append(i)
    for u, (u1, u2) in sorted(positions.items(), key=lambda t: t[1]):
        for j in range(u1 + 1, u2):
            v = word[j].edge
            if v not in active or v == u:
                continue
            v1, v2 = positions[v]
            if j == v1 and v2 > u2:
                return (u1, v1, u2, v2)
    raise BasisError("no linked active pair; the polygon word is "
                     "inconsistent with the surface genus")


def canonical_basis(Q: CubeComplex, root: int = 0) -> CurveBasis:
    """Canonical homology basis of a closed orientable square surface.

    Genus 0 yields the empty basis. Every curve crosses every edge at
    most twice (raised if violated). Beta curves are oriented so the
    signed crossing with their alpha partner is +1; the full pattern is
    checked separately by verify_basis.
    """
    face_cycles = oriented_face_cycles(Q)
    by_edge = _face_adjacency(Q)
    crossed = _dual_tree(Q, by_edge, root)
    word = _boundary_circle(face_cycles, by_edge, crossed)
    cut = [e for e in by_edge if e not in crossed]
    tree = _primal_tree(Q.n_vertices, cut)
    active = {e for e in cut if e not in tree}
    f = Q.f_vector()
    genus = (2 - (f[0] - f[1] + f[2])) // 2
    if len(active) != 2 * genus:
        raise BasisError(f"{len(active)} leftover cut edges, expected "
                         f"{2 * genus}")

    curves: list[CurveOnSurface] = []
    handle_edges: list[Edge] = []
    stage = 0
    while active:
        pu, pv, pu2, pv2 = _find_linked_pair(word, active)
        depth_a = 2 * (genus - stage)
        word, alpha, beta = _stage_glue(word, pu, pv, pu2, pv2,
                                        depth_a, depth_a - 1)
        for c in (alpha, beta):
            handle_edges.append(c.crossings[0].edge)
            active.discard(c.crossings[0].edge)
        curves.append(alpha)
        curves.append(beta)
        stage += 1
    assert stage == genus

    for c in curves:
        for e, k in c.edges_crossed().items():
            if k > 2:
                raise BasisError(f"curve crosses edge {e} {k} times")

    t_arr = time.perf_counter()
    signed, _ = arrangement_crossings(Q, curves)
    t_arr = time.perf_counter() - t_arr
    sigma = [1] * len(curves)
    for s in range(genus):
        if signed.get((2 * s, 2 * s + 1), 0) < 0:
            sigma[2 * s + 1] = -1
            curves[2 * s + 1] = curves[2 * s + 1].reversed_()
    matrix = _antisymmetric(_reoriented(signed, sigma), len(curves))
    log.debug("canonical_basis: %d curves, %d crossing events, %d flips, "
              "arrangement %.3f s", len(curves), sum(map(len, curves)),
              sigma.count(-1), t_arr)
    return CurveBasis(genus, tuple(curves), matrix,
                      tuple(handle_edges), tuple(sorted(tree)))


# ---------------------------------------------------------------------------
# the arrangement: geometric crossing counts


def _edge_event_key(ev: Crossing, tail: int) -> tuple[int, int]:
    # Order along the directed edge tail -> head. A deeper lane passes a
    # corner farther from the corner vertex, so tail-hugging events come
    # first in ascending depth, head-hugging after in descending depth.
    if ev.vertex == tail:
        return (0, ev.depth)
    return (1, -ev.depth)


class _LastArrangement:
    """The last family _arrangement computed, and its result. A later
    family is answered from it when it has the same complex (by value)
    and each of its curves equals the kept one or that one's reversed_()
    (by value); any other family is computed afresh."""

    def __init__(self) -> None:
        self.Q: CubeComplex | None = None
        self.curves: tuple[CurveOnSurface, ...] = ()
        self.value: tuple[dict, dict] = ({}, {})
        self.reversals: dict[int, CurveOnSurface] = {}
        self.hits = 0

    def keep(self, Q: CubeComplex, curves: tuple[CurveOnSurface, ...]
             ) -> None:
        self.value = _arrangement(Q, curves)
        self.Q, self.curves, self.reversals = Q, curves, {}

    def signs(self, Q: CubeComplex, curves: tuple[CurveOnSurface, ...]
              ) -> list[int] | None:
        """Per curve +1 when it equals the kept one, -1 when it equals
        the kept one reversed; None when the family is another."""
        if self.Q is None or len(curves) != len(self.curves) \
                or self.Q != Q:
            return None
        signs = []
        for i, (c, kept) in enumerate(zip(curves, self.curves)):
            if c == kept:
                signs.append(1)
                continue
            rev = self.reversals.get(i)
            if rev is None:
                rev = kept.reversed_()
            if c != rev:
                return None
            # c equals rev by value; keeping c itself lets the next family
            # that passes the same object match it at once
            self.reversals[i] = c
            signs.append(-1)
        return signs


_last_arrangement = _LastArrangement()


def arrangement_crossings(Q: CubeComplex, curves: Sequence[CurveOnSurface]
                          ) -> tuple[dict[tuple[int, int], int],
                                     dict[tuple[int, int], int]]:
    """Signed and unsigned geometric crossing counts per curve pair.

    Consecutive events of a curve bound a segment inside a face; two
    segments cross exactly when their endpoints interleave around the
    face boundary. Keys are (i, j) with i <= j; the signed value is the
    contribution to curve_i . curve_j, the unsigned value the plain
    count (i == j reports self-crossings, zero for embedded curves).

    The last family computed is kept. A family that equals it up to
    reversing some curves is answered from it: reversing curve i
    negates every crossing sign of curve i with another curve, so
    signed[i, j] becomes sigma_i sigma_j signed[i, j] (sigma = -1 on the
    reversed curves), and the counts do not change. The dicts returned
    are fresh copies either way. Raises BasisError when the events do
    not form closed normal curves in general position on Q."""
    curves = tuple(curves)
    last = _last_arrangement
    sigma = last.signs(Q, curves)
    if sigma is None:
        last.keep(Q, curves)
        sigma = [1] * len(curves)
    else:
        last.hits += 1
    signed, unsigned = last.value
    return _reoriented(signed, sigma), dict(unsigned)


def _reoriented(signed: dict[tuple[int, int], int], sigma: Sequence[int]
                ) -> dict[tuple[int, int], int]:
    """Signed pair counts after reversing the curves i with sigma[i] = -1:
    reversing a curve negates the sign of each of its crossings, twice for
    a self-crossing."""
    return {(i, j): s * sigma[i] * sigma[j] for (i, j), s in signed.items()}


class _NotAnArrangement(BasisError):
    """The crossing events do not form closed normal curves on Q that
    cross every edge at distinct points."""


def _arrangement(Q: CubeComplex, curves: Sequence[CurveOnSurface]
                 ) -> tuple[dict[tuple[int, int], int],
                            dict[tuple[int, int], int]]:
    """arrangement_crossings, computed (see the module docstring)."""
    face_cycles = oriented_face_cycles(Q)
    edge_id = Q.incidence().position(1)
    n_edges = len(Q.cells[1])
    # the face whose boundary runs each edge low -> high, and the other
    fwd = array("i", [-1]) * n_edges
    bwd = array("i", [-1]) * n_edges
    for fi, cyc in enumerate(face_cycles):
        for i in range(4):
            a, b = cyc[i - 1], cyc[i]
            if a < b:
                fwd[edge_id[(a, b)]] = fi
            else:
                bwd[edge_id[(b, a)]] = fi

    events = [x for c in curves for x in c.crossings]
    offsets = list(accumulate((len(c) for c in curves), initial=0))
    prev = array("i", range(-1, len(events) - 1))
    for ci in range(len(curves)):
        if offsets[ci] < offsets[ci + 1]:
            prev[offsets[ci]] = offsets[ci + 1] - 1
    depths = [x.depth for x in events] or [0]
    d0 = min(depths)
    width = 2 * (max(depths) - d0 + 1)
    # Event g is the start of chord g, the segment of its curve in f_to,
    # and the end of chord prev[g] in f_from. Per event, the token it
    # reads as in its edge's fwd face and in its bwd face: 2 * chord + 1
    # at a chord's start, 2 * chord at its end. Its sort key orders it
    # along its edge from the low endpoint.
    tok_fwd = array("i", bytes(4 * len(events)))
    tok_bwd = array("i", tok_fwd)
    keys = array("q", bytes(8 * len(events)))
    for g, (edge, vertex, depth, f_from, f_to) in enumerate(events):
        e = edge_id.get(edge)
        p = prev[g]
        if e is None or f_from != events[p].f_to:
            raise _NotAnArrangement(
                f"event {g} is not a crossing of an edge of Q that "
                "continues its curve")
        if f_to == fwd[e] and f_from == bwd[e]:
            tok_fwd[g], tok_bwd[g] = 2 * g + 1, 2 * p
        elif f_to == bwd[e] and f_from == fwd[e]:
            tok_fwd[g], tok_bwd[g] = 2 * p, 2 * g + 1
        else:
            raise _NotAnArrangement(
                f"event {g} crosses {edge} between faces "
                f"{f_from} and {f_to}, which are not its two faces")
        if vertex == edge[0]:
            keys[g] = e * width + depth - d0
        elif vertex == edge[1]:
            keys[g] = e * width + width - 1 - (depth - d0)
        else:
            raise _NotAnArrangement(
                f"event {g} hugs {vertex}, not an endpoint of {edge}")
    order = sorted(range(len(events)), key=keys.__getitem__)
    sorted_keys = array("q", map(keys.__getitem__, order))
    for t in range(1, len(order)):
        if sorted_keys[t - 1] == sorted_keys[t]:
            g = order[t]
            raise _NotAnArrangement(
                f"two events cross {events[g].edge} at corner "
                f"{events[g].vertex} in lane {events[g].depth}")
    # Without ties, one face reads an edge's sorted events forwards and
    # the other backwards.
    seq_fwd = array("i", map(tok_fwd.__getitem__, order))
    seq_bwd = array("i", map(tok_bwd.__getitem__, order))
    ptr = array("i", (bisect_left(sorted_keys, e * width)
                      for e in range(n_edges + 1)))

    # Walk each face boundary once. Chords nest unless they cross, so a
    # chord that closes with chords opened after it still open crosses
    # exactly those. state: 0 not yet seen, 1 opened at its end, 2
    # opened at its start; two crossing chords opened the same way give
    # a +1 crossing of the earlier-opened one with the later one.
    state = bytearray(len(events))
    signed: dict[tuple[int, int], int] = {}
    unsigned: dict[tuple[int, int], int] = {}
    for cyc in face_cycles:
        stack: list[int] = []
        for i in range(4):
            a, b = cyc[i], cyc[(i + 1) % 4]
            if a < b:
                e = edge_id[(a, b)]
                seq = seq_fwd[ptr[e]:ptr[e + 1]]
            else:
                e = edge_id[(b, a)]
                seq = seq_bwd[ptr[e]:ptr[e + 1]]
                seq.reverse()
            for t in seq:
                c = t >> 1
                if not state[c]:
                    state[c] = 1 + (t & 1)
                    stack.append(c)
                elif stack[-1] == c:
                    stack.pop()
                else:
                    at = stack.index(c)
                    c1 = bisect_right(offsets, c) - 1
                    for later in stack[at + 1:]:
                        c2 = bisect_right(offsets, later) - 1
                        s = 1 if state[c] == state[later] else -1
                        key = (c1, c2) if c1 <= c2 else (c2, c1)
                        signed[key] = signed.get(key, 0) + \
                            (s if c1 <= c2 else -s)
                        unsigned[key] = unsigned.get(key, 0) + 1
                    del stack[at]
        assert not stack
    return signed, unsigned


def intersection_matrix(Q: CubeComplex, curves: Sequence[CurveOnSurface]
                        ) -> tuple[tuple[int, ...], ...]:
    """Signed geometric intersection numbers of the curve family."""
    return _antisymmetric(arrangement_crossings(Q, curves)[0], len(curves))


def _antisymmetric(signed: dict[tuple[int, int], int], n: int
                   ) -> tuple[tuple[int, ...], ...]:
    """The n x n intersection matrix of signed pair counts."""
    out = [[0] * n for _ in range(n)]
    for (i, j), s in signed.items():
        if i == j:
            continue
        out[i][j] += s
        out[j][i] -= s
    return tuple(tuple(row) for row in out)


# ---------------------------------------------------------------------------
# homological verification


def _spanning_loops(Q: CubeComplex, B: CurveBasis) -> list[dict[Edge, int]]:
    """For each handle edge, the directed loop closing it through the
    spur edges, as an edge -> signed multiplicity map."""
    adj: dict[int, list[int]] = {}
    for a, b in B.spur_edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    parent = _reachable(min(adj) if adj else 0,
                        lambda v: sorted(adj.get(v, ())))
    if len(parent) != Q.n_vertices:
        raise BasisError("spur edges do not span the vertex set")

    def path_up(v: int) -> list[int]:
        out = [v]
        while parent[out[-1]] is not None:
            out.append(parent[out[-1]])
        return out

    loops = []
    for a, b in B.handle_edges:
        pa, pb = path_up(a), path_up(b)
        sb = set(pb)
        meet = next(x for x in pa if x in sb)
        path = pa[:pa.index(meet) + 1]
        path += list(reversed(pb[:pb.index(meet)]))
        walk = [(path[i], path[i + 1]) for i in range(len(path) - 1)]
        walk.append((b, a))
        mult: dict[Edge, int] = {}
        for x, y in walk:
            mult[_edge(x, y)] = mult.get(_edge(x, y), 0) + (1 if x < y else -1)
        loops.append(mult)
    return loops


def _crossing_sign(face_cycles: list[tuple[int, ...]], ev: Crossing) -> int:
    """+1 when the curve crosses its edge (a, b), a < b, out of the face
    where the edge runs a -> b along the positive boundary."""
    a, b = ev.edge
    cyc = face_cycles[ev.f_from]
    for i in range(4):
        if (cyc[i], cyc[(i + 1) % 4]) == (a, b):
            return 1
        if (cyc[i], cyc[(i + 1) % 4]) == (b, a):
            return -1
    raise BasisError(f"edge {ev.edge} not on face {ev.f_from}")


def pairing_matrix(Q: CubeComplex, B: CurveBasis) -> list[list[int]]:
    """M[i][j] = signed crossings of curve i with the j-th fundamental
    loop. The curves are a homology basis exactly when det M = +-1."""
    return _pairing(oriented_face_cycles(Q), _spanning_loops(Q, B),
                    B.curves)


def _pairing(face_cycles: list[tuple[int, ...]],
             loops: list[dict[Edge, int]],
             curves: Sequence[CurveOnSurface]) -> list[list[int]]:
    """pairing_matrix from the loops: each loop's edges are indexed
    once, and a crossing adds its signed contribution only to the loops
    through its edge."""
    through: dict[Edge, list[tuple[int, int]]] = {}
    for j, mult in enumerate(loops):
        for e, m in mult.items():
            if m:
                through.setdefault(e, []).append((j, m))
    M = []
    for c in curves:
        row = [0] * len(loops)
        for ev in c.crossings:
            hits = through.get(ev.edge)
            if hits:
                s = _crossing_sign(face_cycles, ev)
                for j, m in hits:
                    row[j] += m * s
        M.append(row)
    return M


def _invariant_factors(M: list[list[int]]) -> list[int] | None:
    """The invariant factors of a square integer matrix, None when M is
    not square. M is unimodular exactly when it has len(M) factors, all
    equal to 1."""
    n = len(M)
    if any(len(row) != n for row in M):
        return None
    return smith_invariant_factors(
        [{i: row[j] for i, row in enumerate(M) if row[j]} for j in range(n)])


def _unimodular(M: list[list[int]]) -> bool:
    """Whether M is a square integer matrix with determinant +-1."""
    return _invariant_factors(M) == [1] * len(M)


@dataclass
class _VerifyTally:
    """Work counts of one verify_basis call on curves, for its log record."""
    events: int = 0         # crossings of curves with edges
    crossings: int = 0      # crossings of curves with each other
    loop_edges: int = 0     # edges of the fundamental loops, summed
    nonzeros: int = 0       # of the pairing matrix
    factors: int = 0        # invariant factors of the pairing matrix
    reused: bool = False    # the arrangement was the last one computed


def verify_basis(Q: CubeComplex, B: CurveBasis | EdgePathBasis) -> bool:
    """Check both normative contracts of a homology basis.

    Geometric: curves are embedded and pairwise disjoint except that
    alpha_i meets beta_i in exactly one transversal point, and every
    normal curve crosses every edge at most twice. Homological: the
    intersection pairing is unimodular, so the curve classes form a
    basis of first homology over the integers. Accepts either normal
    curves on Q or closed edge paths in the one-skeleton of Q.

    A check of normal curves emits one DEBUG record under
    cubulations.basis: the verdict (or the exception's name), the
    curves, crossing events, curve-pair crossings, fundamental-loop
    edges, nonzeros of the pairing matrix, its invariant factors,
    whether the arrangement was reused, and seconds.
    """
    if isinstance(B, EdgePathBasis):
        return _verify_edge_paths(Q, B)
    t0 = time.perf_counter()
    tally = _VerifyTally()
    outcome = "rejected"
    try:
        ok = _verify_curves(Q, B, tally)
        if ok:
            outcome = "accepted"
        return ok
    except Exception as e:
        outcome = type(e).__name__
        raise
    finally:
        log.debug("verify_basis: %s; %d curves, %d crossing events, %d "
                  "curve-pair crossings, %d loop edges, %d nonzeros in the "
                  "pairing matrix, %d invariant factors, arrangement %s, "
                  "%.3f s", outcome, len(B.curves), tally.events,
                  tally.crossings, tally.loop_edges, tally.nonzeros,
                  tally.factors, "reused" if tally.reused else "computed",
                  time.perf_counter() - t0)


def _verify_curves(Q: CubeComplex, B: CurveBasis, tally: _VerifyTally
                   ) -> bool:
    """verify_basis on normal curves, counting its work in tally."""
    g = B.genus
    if len(B.curves) != 2 * g:
        return False
    if g == 0:
        return True
    tally.events = sum(len(c) for c in B.curves)
    for c in B.curves:
        if any(k > 2 for k in c.edges_crossed().values()):
            return False
    hits = _last_arrangement.hits
    try:
        signed, unsigned = arrangement_crossings(Q, B.curves)
    except _NotAnArrangement:
        return False  # two curves share a crossing point, or one breaks
    tally.reused = _last_arrangement.hits > hits
    tally.crossings = sum(unsigned.values())
    for (i, j), k in unsigned.items():
        if i == j:
            return False  # self-crossing
        if i // 2 != j // 2 or k != 1:
            return False  # only partners cross, and once
    for s in range(g):
        if unsigned.get((2 * s, 2 * s + 1), 0) != 1:
            return False
        if signed.get((2 * s, 2 * s + 1), 0) != 1:
            return False
    loops = _spanning_loops(Q, B)
    tally.loop_edges = sum(len(mult) for mult in loops)
    M = _pairing(oriented_face_cycles(Q), loops, B.curves)
    tally.nonzeros = sum(1 for row in M for x in row if x)
    factors = _invariant_factors(M)
    tally.factors = len(factors or ())
    return factors == [1] * len(M)


# ---------------------------------------------------------------------------
# refinement: the curves become edge paths of a finer cubulation


@dataclass(frozen=True)
class EdgePathBasis:
    """Basis curves as closed vertex paths in a complex's 1-skeleton."""
    genus: int
    curves: tuple[tuple[int, ...], ...]

    def curve_lengths(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.curves)


@dataclass(frozen=True)
class RefineCensus:
    """Cell counts for every stage of the refinement."""
    events: int                        # curve/edge crossing points
    crossings: int                     # curve/curve crossing points
    arrangement: tuple[int, int, int]  # vertices, edges, polygons
    quads: int                         # squares after the center split
    quad_edges: int                    # edges after the center split
    f_vector: tuple[int, int, int]


@dataclass(frozen=True)
class RefineReport:
    complex: CubeComplex
    basis: EdgePathBasis
    census: RefineCensus
    edge_chains: dict[Edge, tuple[int, ...]]


def refine_census(Q: CubeComplex, B: CurveBasis) -> RefineCensus:
    """Cell counts refine_report would produce, without building.

    Each event subdivides one edge of Q, each crossing subdivides two
    curve arcs, halving doubles every arrangement edge, a polygon with
    s sides becomes s squares around its center vertex, and insetting
    multiplies squares by five. The polygon count follows from the
    Euler characteristic, which every stage preserves.
    """
    f = Q.f_vector()
    chi = f[0] - f[1] + f[2]
    events = sum(len(c) for c in B.curves)
    _, unsigned = arrangement_crossings(Q, B.curves)
    crossings = sum(unsigned.values())
    v1 = f[0] + events + crossings
    e1 = f[1] + 2 * events + 2 * crossings
    p1 = chi - v1 + e1
    quads = 2 * e1
    vq = v1 + e1 + p1 + 4 * quads
    eq = 4 * e1 + 8 * quads
    return RefineCensus(events, crossings, (v1, e1, p1), quads, 4 * e1,
                        (vq, eq, 5 * quads))


def _face_nodes(face_cycles: list[tuple[int, ...]],
                curves: Sequence[CurveOnSurface]) -> list[list[tuple]]:
    """Boundary nodes of every face in circular order: corner vertices
    interleaved with the events crossing each side."""
    at: dict[tuple[Edge, int], list[tuple[Crossing, int, int]]] = {}
    for ci, c in enumerate(curves):
        for k, ev in enumerate(c.crossings):
            for face in (ev.f_from, ev.f_to):
                at.setdefault((ev.edge, face), []).append((ev, ci, k))
    circles: list[list[tuple]] = []
    for fi, cyc in enumerate(face_cycles):
        nodes: list[tuple] = []
        for i in range(4):
            a = cyc[i]
            nodes.append(("v", a))
            events = at.get((_edge(a, cyc[(i + 1) % 4]), fi), [])
            events.sort(key=lambda t, _a=a: _edge_event_key(t[0], _a))
            nodes.extend(("e", ci, k) for _, ci, k in events)
        circles.append(nodes)
    return circles


def _face_polygons(nodes: list[tuple],
                   chords: list[tuple[int, int, tuple | None]]
                   ) -> list[list[tuple]]:
    """Regions a face is cut into by its chords.

    The arrangement graph inside the face is walked with the interior
    kept on the left: at each node the walk leaves through the
    counterclockwise predecessor of the piece it arrived on. Pieces
    carry explicit ids because a chord between adjacent boundary nodes
    runs parallel to the boundary piece there and cuts off a two-sided
    region; identifying pieces by their endpoints would conflate the
    two. Rotations: a boundary node sees (next, inward, prev), a
    crossing sees its four half chords in circular position order.
    Seeding from forward boundary pieces and both directions of every
    chord piece visits each region once and never the outside. Each
    region is returned as its boundary walk, a list of (node, piece id)
    pairs where the piece leads from this node to the next; piece ids
    start with "b" on the face boundary and "c" on chords.
    """
    P = len(nodes)
    ends: dict[tuple, tuple[tuple, tuple]] = {}
    chord_at: dict[int, tuple] = {}
    x_inc: dict[tuple, list[tuple[int, tuple]]] = {}
    for t, (ia, ib, x) in enumerate(chords):
        if x is None:
            ends[("c", t)] = (nodes[ia], nodes[ib])
            chord_at[ia] = chord_at[ib] = ("c", t)
        else:
            ends[("c", t, 0)] = (nodes[ia], x)
            ends[("c", t, 1)] = (nodes[ib], x)
            chord_at[ia] = ("c", t, 0)
            chord_at[ib] = ("c", t, 1)
            x_inc.setdefault(x, []).extend(
                [(ia, ("c", t, 0)), (ib, ("c", t, 1))])
    rot: dict[tuple, list[tuple]] = {}
    for i, nd in enumerate(nodes):
        ends[("b", i)] = (nd, nodes[(i + 1) % P])
        r = [("b", i)]
        if i in chord_at:
            r.append(chord_at[i])
        r.append(("b", (i - 1) % P))
        rot[nd] = r
    for x, inc in x_inc.items():
        inc.sort()
        rot[x] = [e for _, e in inc]

    def across(e: tuple, v: tuple) -> tuple:
        a, b = ends[e]
        return b if v == a else a

    darts: list[tuple[tuple, tuple]] = [
        (("b", i), nodes[(i + 1) % P]) for i in range(P)]
    for e, (u, v) in ends.items():
        if e[0] == "c":
            darts.extend([(e, v), (e, u)])
    seen: set[tuple[tuple, tuple]] = set()
    polys: list[list[tuple]] = []
    for start in darts:
        if start in seen:
            continue
        walk: list[tuple] = []
        e, v = start
        while True:
            seen.add((e, v))
            walk.append((across(e, v), e))
            r = rot[v]
            e2 = r[(r.index(e) - 1) % len(r)]
            e, v = e2, across(e2, v)
            if (e, v) == start:
                break
        polys.append(walk)
    assert seen == set(darts), "face walk left the disk"
    return polys


def refine_report(Q: CubeComplex, B: CurveBasis) -> RefineReport:
    """Refine Q so the basis becomes an edge-path family; keep the books.

    Crossing points become vertices, every edge of the resulting
    polygonal complex is halved, every polygon is split into squares
    around a center vertex, and a square is inset into every square.
    Original edges of Q come out subdivided into an even number of
    edges; edge_chains maps each to its vertex chain, low endpoint
    first.
    """
    for c in B.curves:
        if any(k > 2 for k in c.edges_crossed().values()):
            raise BasisError("crossing bound violated; refusing to refine")
    face_cycles = oriented_face_cycles(Q)
    curves = B.curves
    f0, f1, f2 = Q.f_vector()
    circles = _face_nodes(face_cycles, curves)

    ids: dict[tuple, int] = {}

    def gid(key: tuple) -> int:
        return ids.setdefault(key, len(ids))

    for v in range(f0):
        gid(("v", v))
    for ci, c in enumerate(curves):
        for k in range(len(c.crossings)):
            gid(("e", ci, k))

    segs_by_face: dict[int, list[tuple[int, int]]] = {}
    for ci, c in enumerate(curves):
        for k, ev in enumerate(c.crossings):
            segs_by_face.setdefault(ev.f_to, []).append((ci, k))

    quads: list[tuple[int, int, int, int]] = []
    cross_on: dict[tuple[int, int], tuple] = {}
    n_cross = 0
    n_poly = 0
    for fi, nodes in enumerate(circles):
        index_of = {nd: i for i, nd in enumerate(nodes)}
        chords: list[list] = []
        for ci, k in segs_by_face.get(fi, ()):
            m = len(curves[ci].crossings)
            ia = index_of[("e", ci, k)]
            ib = index_of[("e", ci, (k + 1) % m)]
            chords.append([ia, ib, None, (ci, k)])
        ivs = sorted((min(ch[0], ch[1]), max(ch[0], ch[1]), t)
                     for t, ch in enumerate(chords))
        rs: list[int] = []
        dat: list[int] = []
        for l, r, t in ivs:
            lo = bisect_right(rs, l)
            hi = bisect_left(rs, r)
            for t0 in dat[lo:hi]:
                if chords[t0][2] is not None or chords[t][2] is not None:
                    raise BasisError(
                        "two crossings on one curve segment; the basis "
                        "does not have the canonical pattern")
                x = ("x", chords[t0][3], chords[t][3])
                chords[t0][2] = chords[t][2] = x
                gid(x)
                n_cross += 1
                cross_on[chords[t0][3]] = x
                cross_on[chords[t][3]] = x
            at = bisect_left(rs, r)
            rs.insert(at, r)
            dat.insert(at, t)
        for poly in _face_polygons(nodes, [tuple(ch[:3]) for ch in chords]):
            s = len(poly)
            z = gid(("z", fi, n_poly))
            n_poly += 1
            gids = [gid(nd) for nd, _ in poly]
            # midpoints on the face boundary are shared with the twin
            # face, midpoints on chords are private to this face
            mids = [gid((("m",) if poly[i][1][0] == "b" else ("m", fi))
                        + _edge(gids[i], gids[(i + 1) % s]))
                    for i in range(s)]
            for i in range(s):
                quads.append((mids[i - 1], gids[i], z, mids[i]))

    events = sum(len(c.crossings) for c in curves)
    e1 = f1 + 2 * events + 2 * n_cross
    v1 = f0 + events + n_cross
    assert len(quads) == 2 * e1
    assert n_poly == (f0 - f1 + f2) - v1 + e1
    census = RefineCensus(events, n_cross, (v1, e1, n_poly), len(quads),
                          4 * e1, (len(ids) + 4 * len(quads),
                                   4 * e1 + 8 * len(quads), 5 * len(quads)))

    base = len(ids)
    tops: list[tuple[int, ...]] = []
    for q in quads:
        tops.extend(_insert_square_5(q, base))
        base += 4
    C = _validated(build_complex(2, tops, n_vertices=base), "refinement",
                   BasisError)
    assert C.f_vector() == census.f_vector

    paths: list[tuple[int, ...]] = []
    for ci, c in enumerate(curves):
        m = len(c.crossings)
        path: list[int] = []
        for k in range(m):
            a = ids[("e", ci, k)]
            b = ids[("e", ci, (k + 1) % m)]
            fi = c.crossings[k].f_to  # face the segment runs through
            path.append(a)
            x = cross_on.get((ci, k))
            if x is None:
                path.append(ids[("m", fi) + _edge(a, b)])
            else:
                xi = ids[x]
                path.append(ids[("m", fi) + _edge(a, xi)])
                path.append(xi)
                path.append(ids[("m", fi) + _edge(xi, b)])
        paths.append(tuple(path))

    on_edge: dict[Edge, list[tuple[Crossing, int, int]]] = {}
    for ci, c in enumerate(curves):
        for k, ev in enumerate(c.crossings):
            on_edge.setdefault(ev.edge, []).append((ev, ci, k))
    chains: dict[Edge, tuple[int, ...]] = {}
    for e in Q.cells[1]:
        a, b = e
        stops = on_edge.get(e, [])
        stops.sort(key=lambda t: _edge_event_key(t[0], a))
        walk = [a] + [ids[("e", ci, k)] for _, ci, k in stops] + [b]
        chain = [walk[0]]
        for i in range(len(walk) - 1):
            chain.append(ids[("m",) + _edge(walk[i], walk[i + 1])])
            chain.append(walk[i + 1])
        chains[e] = tuple(chain)

    return RefineReport(C, EdgePathBasis(B.genus, tuple(paths)), census,
                        chains)


# ---------------------------------------------------------------------------
# regular neighborhoods: cut along each curve, glue back a ribbon


@dataclass(frozen=True)
class RegularNeighborhoodCert:
    """The squares meeting one curve, as the two flanking squares of
    every path edge. The column list is the isomorphism to curve x I2:
    column k is the fiber over path edge k, the curve the middle line."""
    curve: int
    columns: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def _cycle_neighbors(t: tuple[int, ...], v: int) -> tuple[int, int]:
    a, b, c, d = t  # boundary walk a-b-d-c
    cyc = (a, b, d, c)
    i = cyc.index(v)
    return cyc[i - 1], cyc[(i + 1) % 4]


def _has_edge(t: tuple[int, ...], u: int, w: int) -> bool:
    return u in t and w in _cycle_neighbors(t, u)


class _Patch:
    """Mutable square soup with a vertex index, for the surgery."""

    def __init__(self, C: CubeComplex):
        self.sqs: dict[int, tuple[int, ...]] = dict(enumerate(C.cells[2]))
        self.by_v: dict[int, set[int]] = {}
        for sid, t in self.sqs.items():
            for v in t:
                self.by_v.setdefault(v, set()).add(sid)
        self.nv = C.n_vertices
        self.owner: dict[int, int] = {}
        self.next_sid = len(self.sqs)

    def fresh(self, replaces: int | None = None) -> int:
        v = self.nv
        self.nv += 1
        if replaces is not None:
            self.owner[v] = replaces
        return v

    def rewrite(self, sid: int, old: int, new: int) -> None:
        t = self.sqs[sid]
        self.sqs[sid] = tuple(new if x == old else x for x in t)
        self.by_v[old].discard(sid)
        self.by_v.setdefault(new, set()).add(sid)

    def add(self, t: tuple[int, ...]) -> int:
        sid = self.next_sid
        self.next_sid += 1
        self.sqs[sid] = t
        for v in t:
            self.by_v.setdefault(v, set()).add(sid)
        return sid

    def flanks(self, u: int, w: int) -> list[int]:
        both = self.by_v.get(u, set()) & self.by_v.get(w, set())
        return [sid for sid in both if _has_edge(self.sqs[sid], u, w)]

    def copy_in(self, sid: int, orig: int) -> int:
        for x in self.sqs[sid]:
            if x == orig or self.owner.get(x) == orig:
                return x
        raise BasisError(f"square {sid} lost vertex {orig} during surgery")


def _ring(P: _Patch, v: int) -> tuple[list[int], list[int]]:
    """Squares around v in cyclic order; spokes[i] is the neighbor
    vertex on the edge shared by ring[i] and ring[i + 1]. The walk
    starts at v's least square id."""
    cycle = _ring_walk((sid, _cycle_neighbors(P.sqs[sid], v))
                       for sid in sorted(P.by_v[v]))
    if cycle is None:
        raise BasisError(f"link of vertex {v} is not a single circle")
    return cycle


def _cut_and_ribbon(P: _Patch, path: list[int],
                    others: list[list[int]]) -> list[int]:
    """Cut along a closed path, glue the two-layer ribbon back in, and
    return the ribbon's middle line. Paths in `others` that ran through
    a cut vertex are patched in place to detour through the ribbon,
    which adds the two rung edges at each of their crossing points."""
    L = len(path)
    vset = set(path)
    hits: list[tuple[int, int, int, list[int], list[int]]] = []
    for oi, R in enumerate(others):
        for t, v in enumerate(R):
            if v in vset:
                fa = P.flanks(R[t - 1], v)
                fb = P.flanks(v, R[(t + 1) % len(R)])
                hits.append((oi, t, v, fa, fb))
    flank = []
    for k in range(L):
        fl = P.flanks(path[k], path[(k + 1) % L])
        if len(fl) != 2:
            raise BasisError(f"path edge ({path[k]}, {path[(k + 1) % L]}) "
                             f"lies in {len(fl)} squares")
        flank.append(fl)

    cuts = []
    for k in range(L):
        v, p, nx = path[k], path[k - 1], path[(k + 1) % L]
        ring, spokes = _ring(P, v)
        cuts.append((v, _ring_arcs(ring, spokes.index(p), spokes.index(nx))))
    # rings are read on the uncut state; only then is anything rewritten
    for v, arcs in cuts:
        for arc in arcs:
            c = P.fresh(v)
            for sid in arc:
                P.rewrite(sid, v, c)

    mid = {v: P.fresh() for v in path}
    for k in range(L):
        u, w = path[k], path[(k + 1) % L]
        s1, s2 = flank[k]
        cu1, cw1 = P.copy_in(s1, u), P.copy_in(s1, w)
        cu2, cw2 = P.copy_in(s2, u), P.copy_in(s2, w)
        P.add((cu1, cw1, mid[u], mid[w]))
        P.add((mid[u], mid[w], cu2, cw2))

    patches: dict[int, list[tuple[int, list[int]]]] = {}
    for oi, t, v, fa, fb in hits:
        ca = {P.copy_in(sid, v) for sid in fa}
        cb = {P.copy_in(sid, v) for sid in fb}
        if len(ca) != 1 or len(cb) != 1 or ca == cb:
            raise BasisError(f"a curve meets vertex {v} tangentially; "
                             "the crossing is not transversal")
        patches.setdefault(oi, []).append((t, [ca.pop(), mid[v], cb.pop()]))
    for oi, repl in patches.items():
        for t, seq in sorted(repl, reverse=True):
            others[oi][t:t + 1] = seq
    return [mid[v] for v in path]


def _curve_stars(Q: CubeComplex, B: EdgePathBasis
                 ) -> dict[int, set[tuple[int, ...]]]:
    """vertex -> squares containing it, read off star(2), for the
    basis-path vertices that are vertices of Q."""
    ptr, owners = Q.incidence().star(2)
    squares = Q.cells[2]
    return {v: {squares[i] for i in owners[ptr[v]:ptr[v + 1]]}
            for v in {v for p in B.curves for v in p} if 0 <= v < Q.n_vertices}


def _check_cert(stars: dict[int, set[tuple[int, ...]]],
                path: tuple[int, ...],
                cert: RegularNeighborhoodCert) -> tuple[int, ...] | None:
    """None when the cert holds cell-by-cell, else an offending square
    (or the bare path vertex whose star breaks the strip)."""
    L = len(path)
    if len(cert.columns) != L or L < 3:
        return path[:1]
    seen: set[tuple[int, ...]] = set()
    for k, (s1, s2) in enumerate(cert.columns):
        u, w = path[k], path[(k + 1) % L]
        for s in (s1, s2):
            if not _has_edge(s, u, w):
                return s
            seen.add(s)
    if len(seen) != 2 * L:
        return cert.columns[0][0]
    for k in range(L):
        star = set(cert.columns[k - 1]) | set(cert.columns[k])
        if stars[path[k]] != star:
            bad = stars[path[k]] ^ star
            return next(iter(bad))
    return None


def regularize_with_chains(Qp: CubeComplex, Bp: EdgePathBasis,
                           chains: dict[Edge, tuple[int, ...]]
                           ) -> tuple[CubeComplex, EdgePathBasis,
                                      tuple[RegularNeighborhoodCert, ...],
                                      dict[Edge, tuple[int, ...]]]:
    """Give every basis curve a regular neighborhood isomorphic to
    curve x I2 by cutting along it and gluing back a cubulated ribbon;
    the curve becomes the ribbon's middle line. Pairs are independent:
    only the two curves of a handle meet, at their single crossing,
    where both detour through the other's ribbon.

    Tracked vertex chains are carried through: every chain crossing a
    curve picks up the detour through that curve's ribbon, two extra
    edges per crossing, so subdivision parities are preserved.
    """
    g = Bp.genus
    if g == 0:
        return Qp, Bp, (), dict(chains)
    P = _Patch(Qp)
    paths: list[list[int]] = [list(p) for p in Bp.curves]
    keys = sorted(chains)
    tracked: list[list[int]] = [list(chains[k]) for k in keys]
    for s in range(g):
        for me in (2 * s, 2 * s + 1):
            others = [paths[i] for i in range(2 * g) if i != me] + tracked
            paths[me] = _cut_and_ribbon(P, paths[me], others)

    used = sorted({v for t in P.sqs.values() for v in t})
    remap = {v: i for i, v in enumerate(used)}
    tops = [tuple(remap[v] for v in P.sqs[sid]) for sid in sorted(P.sqs)]
    C = _validated(build_complex(2, tops, n_vertices=len(used)),
                   "surgered surface", BasisError)
    B2 = EdgePathBasis(g, tuple(tuple(remap[v] for v in p) for p in paths))
    chains2 = {k: tuple(remap[v] for v in t) for k, t in zip(keys, tracked)}

    stars = _curve_stars(C, B2)
    edge_id = C.incidence().position(1)
    ptr, owners = C.incidence().cofaces(1)
    certs = []
    for i, p in enumerate(B2.curves):
        cols = []
        for k in range(len(p)):
            e = edge_id.get(_edge(p[k], p[(k + 1) % len(p)]))
            fl = [] if e is None else \
                [C.cells[2][j] for j in owners[ptr[e]:ptr[e + 1]]]
            if len(fl) != 2:
                raise BasisError(f"curve {i}: edge ({p[k]}, "
                                 f"{p[(k + 1) % len(p)]}) has {len(fl)} "
                                 "flanking squares")
            cols.append((fl[0], fl[1]))
        cert = RegularNeighborhoodCert(i, tuple(cols))
        bad = _check_cert(stars, p, cert)
        if bad is not None:
            raise BasisError(f"curve {i}: square {bad} breaks the "
                             "curve x I2 structure")
        certs.append(cert)
    return C, B2, tuple(certs), chains2


def verify_neighborhoods(Q: CubeComplex, B: EdgePathBasis,
                         certs: Sequence[RegularNeighborhoodCert]) -> bool:
    """Re-check every certificate against the complex, trusting nothing
    from the construction."""
    if len(certs) != len(B.curves):
        return False
    cells = set(Q.cells[2])
    stars = _curve_stars(Q, B)
    for cert, path in zip(certs, B.curves):
        for col in cert.columns:
            if col[0] not in cells or col[1] not in cells:
                return False
        if _check_cert(stars, path, cert) is not None:
            return False
    return True


# ---------------------------------------------------------------------------
# verification of edge-path bases


def _verify_edge_paths(Q: CubeComplex, B: EdgePathBasis) -> bool:
    """Canonical pattern for curves given as closed edge paths.

    Curves must be simple and pairwise vertex-disjoint except that each
    handle pair shares exactly one vertex, where the four path edges
    alternate around the link: a transversal crossing. On a closed
    orientable surface that pattern makes the unsigned intersection
    matrix a symplectic permutation, and its unimodularity promotes the
    classes to a basis of first homology.
    """
    # A connected closed orientable surface of the stated genus: every
    # vertex link a cycle, read in one pass by surface_invariants. The
    # link of each vertex the pattern test touches is walked there.
    if Q.dim != 2:
        return False
    try:
        _, _, genus = surface_invariants(Q)
    except NonSurfaceLinkError:
        return False
    if genus is None or genus != B.genus or len(B.curves) != 2 * genus:
        return False
    if genus == 0:
        return True
    edges = Q.incidence().position(1)
    for p in B.curves:
        if len(p) < 3 or len(p) != len(set(p)):
            return False
        if any(_edge(p[k], p[(k + 1) % len(p)]) not in edges
               for k in range(len(p))):
            return False
    occupancy: dict[int, list[tuple[int, int]]] = {}
    for ci, p in enumerate(B.curves):
        for t, v in enumerate(p):
            occupancy.setdefault(v, []).append((ci, t))
    n = 2 * genus
    M = [[0] * n for _ in range(n)]
    ok = True
    for v, occ in occupancy.items():
        if len(occ) == 1:
            continue
        if len(occ) != 2:
            ok = False
            continue
        (i, ti), (j, tj) = occ
        pi, ni = B.curves[i][ti - 1], B.curves[i][(ti + 1) % len(B.curves[i])]
        pj, nj = B.curves[j][tj - 1], B.curves[j][(tj + 1) % len(B.curves[j])]
        # surface_invariants read every link a circle, so the squares at v
        # close up into one cycle
        cycle = _link_cycle(Q, v)
        assert cycle is not None
        _, spokes = cycle
        at = [spokes.index(u) for u in (pi, ni, pj, nj)]
        around = sorted(range(4), key=lambda t: at[t])
        # transversal exactly when the two curves alternate around v;
        # a shared edge collapses two spokes and is never transversal
        if len(set(at)) == 4 and \
                tuple(x // 2 for x in around) in ((0, 1, 0, 1), (1, 0, 1, 0)):
            M[i][j] += 1
            M[j][i] += 1
        else:
            ok = False
    for i in range(n):
        for j in range(i + 1, n):
            want = 1 if (i // 2 == j // 2) else 0
            if M[i][j] != want:
                ok = False
    return ok and _unimodular(M)
