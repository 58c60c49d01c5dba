"""Sphere assembly: cylinders over a surface, handlebody caps, dimension raising.

The 3-sphere pipeline works outward from a closed quadrangulated surface Q.
A product cylinder Q x I_k supplies almost all facets at (k+1) * f0(Q)
vertices.  Each end is continued by a refining cylinder that interpolates
between Q and a fine quadrangulation Q'' in a single step: over every square
F of Q sits a pillow, the 2-sphere made of F at the bottom, the patch of Q''
over F at the top, and subdivided walls over the edges of F.  Filling every
pillow with solid cubes and insetting a cube into each produces the cylinder.
The two Q'' ends are then closed by handlebodies: cut Q'' along half of a
basis of curves, all at once off the one index of Q'', and cap with disks;
the result is a sphere which bounds a ball after one more product layer.
Gluing the five pieces yields a complex with the homology of S^3: each
seam is checked on its own, against the piece it lands on, and the pieces'
maximal cells are closed once, together.

Every piece is made in three steps: a stage (refining_cylinder, handlebody)
builds its scaffold and the checked FillRequests of the spheres its balls
fill; assemble_sphere3 fills them all, then closes each piece from its
scaffold and its balls.  Fill search is incomplete: when it runs out, sphere3
returns a StructuralReport of the requests, as when it stops before the fills.

induct_dimension raises dimension by doubling: remove one facet from a
d-sphere S, take the product of the remaining ball with a square, and
return its boundary, written by the product formula.  Vertices grow
exactly 4x and facets at least 2x.
Each step emits one DEBUG record under cubulations.sphere_builder with the
input and output f-vectors and the seconds each of its stages took.
"""

from __future__ import annotations

import logging
import time
from array import array
from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import chain
from typing import Sequence

from .core import (
    CubeComplex,
    CubeComplexError,
    _reachable,
    _validated,
    build_complex,
    bipartite_classes,
    canonical,
    manifold_check,
    pseudomanifold_check,
    upper_bound_checks,
)
from .topology import betti_numbers, homology_sphere_check, surface_invariants
from .transforms import (
    GADGETS,
    GlueError,
    _seam_ids,
    boundary_complex,
    cartesian_product,
    cut_along_curves,
    interval_complex,
)
from .transforms import remove_facet as _remove_facet
from .fillball import FillFailed, _sphere_defect, fill_ball
from .basis import EdgePathBasis, canonical_basis, refine_report, \
    regularize_with_chains, verify_neighborhoods
from .surface_gen import _is_odd_prime, surface_report

__all__ = [
    "AssemblyError",
    "FillRequest",
    "check_fill_request",
    "CylinderReport",
    "HandlebodyReport",
    "StructuralReport",
    "PipelineCensus",
    "refining_cylinder",
    "handlebody",
    "assemble_sphere3",
    "sphere3",
    "induct_dimension",
    "sphere_d",
]

Edge = tuple[int, int]

log = logging.getLogger(__name__)

class AssemblyError(CubeComplexError):
    pass


# ---------------------------------------------------------------------------
# fill requests


@dataclass(frozen=True)
class FillRequest:
    """A 2-sphere some stage needs filled, with where it came from."""

    sphere: CubeComplex
    origin: str


def check_fill_request(req: FillRequest) -> None:
    """Assert the filling lemma's hypotheses, the ones fill_ball checks:
    a valid closed orientable quadrangulated 2-sphere with an even
    number of squares."""
    reason = _sphere_defect(req.sphere)
    if reason is not None:
        raise AssemblyError(f"{req.origin}: {reason}")


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class CylinderReport:
    """Refining cylinder between a surface and its refinement, as a
    scaffold: end is the adjusted refinement Q'' forming the far end, and
    pillow requests[i]'s vertex x is scaffold vertex sphere_ids[i][x];
    the vertices the fills add take ids from census["scaffold_vertices"]
    up.  In the closed cylinder the near end keeps the surface's own
    vertex ids and the far end sits at offset f0(surface), in Q'' order.
    """

    end: CubeComplex
    requests: tuple[FillRequest, ...]
    sphere_ids: tuple[tuple[int, ...], ...]
    census: dict[str, int]


@dataclass(frozen=True)
class HandlebodyReport:
    """Handlebody bounded by Q'', as a scaffold: the genus-0 sphere of
    Q'' cut along curves and capped, and its one FillRequest.  The solid
    is the prism sphere x I, whose vertex (x, t) is 2x + t, with pairs
    identifying vertices of its end t = 0 with their images, and a ball
    on its end t = 1."""

    sphere: CubeComplex
    requests: tuple[FillRequest, ...]
    pairs: dict[int, int]
    census: dict[str, int]


@dataclass(frozen=True)
class StructuralReport:
    """What a full run has to fill, when it stops before the fill step or
    the fill step runs out: every request of the three stages, and per
    stage "full" exactly when all of its requests were filled."""

    requests: tuple[FillRequest, ...]
    stage_levels: dict[str, str]
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class PipelineCensus:
    """Cell bookkeeping for one pipeline run.

    stage_f holds the f-vectors of the stages, each read off the complex
    built, but for the product cylinder Q x I_k, "cylinder", which is
    never built here: a product's j-cells are the j-cells of Q at each of
    the k + 1 levels and the (j-1)-cells of Q times each of the k
    intervals, so f_j = (k + 1) f_j(Q) + k f_(j-1)(Q).
    scaffold_vertices counts every vertex the construction pins down
    before any ball is filled (product cylinder, both refining
    cylinders' walls and ends, handlebody disks and far spheres);
    growth_constant is (scaffold - product part) / n^4.
    """

    n: int
    k: int
    d: int
    stage_f: dict[str, tuple[int, ...]]
    pillows: int
    pillow_squares: int
    parity_fixes: int
    scaffold_vertices: int
    growth_constant: float


# ---------------------------------------------------------------------------
# refining cylinder


def _place_ball(ball: CubeComplex, sphere_ids: Sequence[int], fresh: int
                ) -> tuple[list[tuple[int, ...]], int]:
    """The cubes of a filled ball in scaffold ids, and the next fresh id.
    The ball's vertices below len(sphere_ids) are its sphere's, and
    vertex x goes to sphere_ids[x]; each vertex the fill added takes the
    next fresh id, in order."""
    added = ball.n_vertices - len(sphere_ids)
    ids = [*sphere_ids, *range(fresh, fresh + added)]
    return [tuple(map(ids.__getitem__, c)) for c in ball.cells[3]], \
        fresh + added


def _close_piece(what: str, cubes: list[tuple[int, ...]], n_vertices: int,
                 want: set[tuple[int, ...]], wanted: str) -> CubeComplex:
    """The 3-complex the cubes close to, validated, whose rim must be
    exactly the squares want (canonical); wanted names them in the
    AssemblyError a piece with another rim raises."""
    C = _validated(build_complex(3, cubes, n_vertices=n_vertices), what,
                   AssemblyError)
    if set(map(C.cells[2].__getitem__, C.incidence().rim())) != want:
        raise AssemblyError(f"{what} boundary is not {wanted}")
    return C


def _wheel(cycle: Sequence[int], center: int) -> list[tuple[int, ...]]:
    """Disk over an even cycle: one quad per pair of consecutive edges."""
    L = len(cycle)
    if L % 2 or L < 4:
        raise AssemblyError(f"wheel needs an even cycle, got length {L}")
    out = []
    for i in range(0, L, 2):
        a, b, c = cycle[i], cycle[i + 1], cycle[(i + 2) % L]
        out.append((a, b, center, c))
    return out


def _check_chain_ends(chains: dict[Edge, tuple[int, ...]]) -> None:
    """Refuse chains whose ends give a surface vertex two images.

    Chains run low endpoint first, so (u, v) with u < v starts at the
    image of u.  Disagreement between two chains at a shared endpoint
    means the chains do not belong to this surface.
    """
    image: dict[int, int] = {}
    for (u, v), path in chains.items():
        for q, x in ((u, path[0]), (v, path[-1])):
            if image.setdefault(q, x) != x:
                raise AssemblyError(
                    f"chain endpoints disagree at surface vertex {q}")


def _patch_map(Q: CubeComplex, Qp: CubeComplex,
               chains: dict[Edge, tuple[int, ...]]
               ) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Partition the refinement's squares into patches over the base squares.

    The subdivided base edges are walls; two squares of the refinement
    sharing a wall edge lie over different base squares, everything else
    connects.  Each component is identified by intersecting, over the
    walls it touches, the pairs of base squares those walls bound.
    """
    inc = Qp.incidence()
    edge_id = inc.position(1)
    ptr, owners = inc.cofaces(1)
    wall_of: dict[int, Edge] = {}
    for key, path in chains.items():
        for a, b in zip(path, path[1:]):
            e = edge_id.get((a, b) if a < b else (b, a))
            if e is None or ptr[e + 1] - ptr[e] != 2:
                raise AssemblyError(
                    f"subdivided edge segment {tuple(sorted((a, b)))} is not "
                    "an interior edge of the refinement")
            if wall_of.setdefault(e, key) != key:
                raise AssemblyError("two subdivided edges share a segment")

    sqs = Qp.cells[2]
    rows, _ = inc.facets(2)

    def across(i: int) -> list[int]:
        return [j for e in rows[4 * i:4 * i + 4] if e not in wall_of
                for j in owners[ptr[e]:ptr[e + 1]]]

    comp = [-1] * len(sqs)
    touched: list[set[Edge]] = []
    for start in range(len(sqs)):
        if comp[start] < 0:
            for i in _reachable(start, across):
                comp[i] = len(touched)
            touched.append(set())
    for i, e in enumerate(rows):
        if e in wall_of:
            touched[comp[i // 4]].add(wall_of[e])

    base_id = Q.incidence().position(1)
    base_ptr, base_owners = Q.incidence().cofaces(1)
    patches: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for ci, keys in enumerate(touched):
        if not keys:
            raise AssemblyError("refinement has squares bounded by no "
                                "subdivided edge; patches are undefined")
        cands: set[tuple[int, ...]] | None = None
        for key in keys:
            e = base_id.get(key)
            if e is None:
                raise AssemblyError(f"chain {key} is not an edge of the base")
            fs = {Q.cells[2][j] for j in base_owners[base_ptr[e]:base_ptr[e + 1]]}
            cands = fs if cands is None else cands & fs
        if not cands or len(cands) != 1:
            raise AssemblyError("patch does not sit over a unique base square")
        F = cands.pop()
        if F in patches:
            raise AssemblyError(f"two patches over base square {F}")
        patches[F] = [sqs[i] for i in range(len(sqs)) if comp[i] == ci]
    missing = set(Q.cells[2]) - set(patches)
    if missing:
        raise AssemblyError(f"no patch over base square {sorted(missing)[0]}")
    return patches


def refining_cylinder(Q: CubeComplex, Qp: CubeComplex,
                      Bpp: EdgePathBasis | None = None, *,
                      chains: dict[Edge, tuple[int, ...]] | None = None
                      ) -> CylinderReport:
    """Cylinder interpolating between Q and its refinement in one step.

    Qp is the refinement, with `chains` mapping each base edge to its
    subdivided vertex path.  Passing Qp equal to Q stands for the trivial
    refinement and yields a plain product layer.

    Every base edge must be subdivided into the same parity of edge
    counts: evenly for a genuine refinement, or not at all.  In the even
    case the vertical edge over each vertex of the lexicographically
    smaller bipartition class is split in two, which makes every wall an
    even cycle and every pillow an even sphere after at most one
    10-square split of a patch square (recorded as the parity fixes that
    turn the refinement into the returned end Q'').  Bpp's curves must
    be edge paths of Qp; a fix splits a square clear of them, keeping
    its four edges, so they stay edge paths of Q''.

    The scaffold is Q, Q'' and the walls; each pillow is one checked
    FillRequest, with the scaffold ids its ball lands on.  Nothing is
    filled here: _close_cylinder closes the cylinder from its balls.
    Emits one DEBUG record under cubulations.sphere_builder with the
    pillows, the parity fixes, the scaffold's vertices and the seconds.
    """
    t0 = time.perf_counter()
    if chains is None:
        if Qp == Q:
            chains = {tuple(e): tuple(e) for e in Q.cells[1]}
        else:
            raise AssemblyError("a refinement needs its edge chains")

    for C, tag in ((Q, "base"), (Qp, "refinement")):
        if C.dim != 2:
            raise AssemblyError(f"{tag} must be a 2-complex")
        closed, orientable, _ = surface_invariants(C)
        if not (closed and orientable):
            raise AssemblyError(f"{tag} is not a closed orientable surface")
    if set(chains) != set(Q.cells[1]):
        raise AssemblyError("chains must cover the base edges exactly")

    lengths = {len(p) - 1 for p in chains.values()}
    if lengths == {1}:
        split: frozenset[int] = frozenset()
    elif all(l > 0 and l % 2 == 0 for l in lengths):
        zero, one = bipartite_classes(Q)
        split = min(zero, one, key=sorted)
    else:
        raise AssemblyError("every base edge must be subdivided evenly")

    _check_chain_ends(chains)
    patches = _patch_map(Q, Qp, chains)
    curve_verts: set[int] = set()
    if Bpp is not None:
        curve_verts = {v for path in Bpp.curves for v in path}
        edge_id = Qp.incidence().position(1)
        for path in Bpp.curves:
            for e in map(canonical, zip(path, path[1:] + path[:1])):
                if e not in edge_id:
                    raise AssemblyError(f"basis curve step {e} is not an "
                                        "edge of the refinement")

    # wall sizes, then one 10-square parity fix per odd pillow; a wall is
    # even, as split is empty when every chain is one edge, and one class
    # of a bipartition, so it holds one end of each edge, when all are even
    wall_half: dict[Edge, int] = {}
    for e, path in chains.items():
        u, v = e
        L = 1 + (len(path) - 1) + (2 if u in split else 1) \
            + (2 if v in split else 1)
        assert L % 2 == 0
        wall_half[e] = L // 2

    # the four edges of each base square, off Q's facet table
    rows, _ = Q.incidence().facets(2)
    sides = [[Q.cells[1][e] for e in rows[i:i + 4]]
             for i in range(0, len(rows), 4)]
    fixes: dict[tuple[int, ...], tuple[int, ...]] = {}
    for F, edges in zip(Q.cells[2], sides):
        total = 1 + sum(wall_half[e] for e in edges) + len(patches[F])
        if total % 2:
            free = sorted(t for t in patches[F] if not set(t) & curve_verts)
            if not free:
                raise AssemblyError(
                    f"no square over {F} clear of the basis curves; cannot "
                    "fix the pillow parity")
            fixes[F] = free[0]

    if fixes:
        drop = set(fixes.values())
        tops = [t for t in Qp.cells[2] if t not in drop]
        base_id = Qp.n_vertices
        for F in sorted(fixes):
            cells10 = [canonical(c) for c in
                       GADGETS["square_10"].build(fixes[F], base_id)]
            base_id += GADGETS["square_10"].n_new_vertices
            tops.extend(cells10)
            patches[F] = [s for s in patches[F] if s != fixes[F]] + cells10
        Qpp = build_complex(2, tops, n_vertices=base_id)
    else:
        Qpp = Qp
    if (len(Qpp.cells[2]) - len(Q.cells[2])) % 2:
        raise AssemblyError("parity fixes failed to preserve square parity")

    # global id layout: base copy, then Q'' at offset f0, then verticals,
    # wall centers, and finally whatever the fills add
    nb = Q.n_vertices
    T0 = nb
    nxt = nb + Qpp.n_vertices
    mid: dict[int, int] = {}
    for v in sorted(split):
        mid[v] = nxt
        nxt += 1
    # Wall over (u, v): bottom edge, one vertical per endpoint (the split
    # one broken at its midpoint), the subdivided edge on top.  The wheel
    # cuts the cycle at even positions, so the walk starts two steps before
    # the midpoint: otherwise both vertical edges of the split endpoint end
    # up in one quad, and the neighboring wall would share three vertices
    # with it instead of an edge.
    walls: dict[Edge, list[tuple[int, ...]]] = {}
    n_centers = 0
    for e in sorted(chains):
        u, v = e
        path = chains[e]  # images of u .. v
        if v in split:
            cyc = [u, v, mid[v]]
            cyc.extend(T0 + x for x in reversed(path))
        elif u in split:
            cyc = [v, u, mid[u]]
            cyc.extend(T0 + x for x in path)
        else:
            cyc = [u, v]
            cyc.extend(T0 + x for x in reversed(path))
        if len(cyc) == 4:
            walls[e] = [(cyc[0], cyc[1], cyc[3], cyc[2])]
        else:
            walls[e] = _wheel(cyc, nxt)
            nxt += 1
            n_centers += 1

    requests: list[FillRequest] = []
    sphere_ids: list[tuple[int, ...]] = []
    for F, edges in zip(Q.cells[2], sides):
        sqs: list[tuple[int, ...]] = [F]
        for e in edges:
            sqs.extend(walls[e])
        sqs.extend(tuple(T0 + x for x in t) for t in patches[F])
        used = sorted({v for t in sqs for v in t})
        g2l = {g: i for i, g in enumerate(used)}
        local = build_complex(2, [tuple(g2l[v] for v in t) for t in sqs])
        req = FillRequest(local, f"pillow over base square {F}")
        check_fill_request(req)
        requests.append(req)
        sphere_ids.append(tuple(used))

    census = {
        "pillows": len(requests),
        "pillow_squares": sum(len(r.sphere.cells[2]) for r in requests),
        "splits": len(mid),
        "wall_centers": n_centers,
        "parity_fixes": len(fixes),
        "scaffold_vertices": nxt,
    }
    log.debug("refining_cylinder: %d pillows, %d parity fixes, scaffold "
              "%d vertices, %.3f s", len(requests), len(fixes), nxt,
              time.perf_counter() - t0)
    return CylinderReport(Qpp, tuple(requests), tuple(sphere_ids), census)


def _close_cylinder(Q: CubeComplex, cyl: CylinderReport,
                    balls: Sequence[CubeComplex]) -> CubeComplex:
    """The refining cylinder over Q, from its scaffold and one filled ball
    per pillow, in request order.  Each ball is placed by _place_ball:
    its sphere's vertices keep their scaffold ids and the ones the fill
    added take fresh ids, in order.  A cube is inset into each of the
    balls' cubes, and the inset cubes are closed and checked by
    _close_piece: a violation of the face property is an AssemblyError
    naming the first offending pair, and so is a rim other than Q and Q''.
    """
    nxt = cyl.census["scaffold_vertices"]
    filled: list[tuple[int, ...]] = []
    for ball, ids in zip(balls, cyl.sphere_ids):
        cubes, nxt = _place_ball(ball, ids, nxt)
        filled.extend(cubes)
    inset = []
    g7 = GADGETS["inset_cube_7"]
    for cube in filled:
        inset.extend(g7.build(cube, nxt))
        nxt += g7.n_new_vertices
    T0 = Q.n_vertices
    want = set(Q.cells[2]) | {tuple(T0 + x for x in t)
                              for t in cyl.end.cells[2]}
    return _close_piece("refining cylinder", inset, nxt, want, "the two ends")


# ---------------------------------------------------------------------------
# handlebody


def _disk_cells(cycle: Sequence[int], base: int
                ) -> tuple[list[tuple[int, ...]], int]:
    """Capping disk: wheel over the cycle, every quad subdivided in five."""
    cells: list[tuple[int, ...]] = []
    nxt = base + 1
    g5 = GADGETS["insert_square_5"]
    for q in _wheel(cycle, base):
        cells.extend(g5.build(q, nxt))
        nxt += g5.n_new_vertices
    return cells, nxt - base


def _quotient_ids(P: CubeComplex, pairs: dict[int, int]) -> list[int]:
    """The ids of P's vertices in its quotient by pairs, which identifies
    each vertex of the domain with its image: a vertex takes the rank of
    its image among the vertices outside the domain.  The map must be
    injective, its domain must not meet its image, and no cube of P may
    lose a corner; the first that fails is an AssemblyError."""
    if len(set(pairs.values())) != len(pairs):
        raise AssemblyError("self-gluing map is not injective")
    if not pairs.keys().isdisjoint(pairs.values()):
        raise AssemblyError("self-gluing domain and image overlap")
    rank, r = [], 0
    for v in range(P.n_vertices):
        rank.append(r)
        r += v not in pairs
    ids = [rank[pairs.get(v, v)] for v in range(P.n_vertices)]
    for c in P.cells[P.dim]:
        if len(set(map(ids.__getitem__, c))) != len(c):
            raise AssemblyError(f"self-gluing degenerates cell {c}")
    return ids


def handlebody(Qpp: CubeComplex, curves: Sequence[Sequence[int]]
               ) -> HandlebodyReport:
    """Handlebody bounded by Qpp, built by cutting along the given curves.

    Cut Qpp along all its curves at once (cut_along_curves, which gives
    curve i's copies the ids after those of the curves before it), cap
    both copies of each cut circle with a disk of half the curve's
    length in subdivided squares; the result must be a 2-sphere with
    evenly many squares.  The solid is that sphere times an interval
    with the two disk copies identified at one end (the report's pairs)
    and a filled ball at the other; nothing is filled here, and
    _close_handlebody closes the solid from its ball.

    The sphere is checked once, by check_fill_request on its request,
    and one that fails is an AssemblyError saying the curves are not
    half of a basis.  With curves the input is first checked to be a
    closed orientable surface.  With no curves the input must already be
    a sphere and the handlebody is a thickened ball: the input itself is
    the sphere, nothing is cut or rebuilt, and the sphere's check is the
    input's.  Emits one DEBUG record under cubulations.sphere_builder
    with the curves, the f-vector of the sphere and the seconds.
    """
    t0 = time.perf_counter()
    if Qpp.dim != 2:
        raise AssemblyError("handlebody needs a 2-complex")
    if curves:
        closed, orientable, _ = surface_invariants(Qpp)
        if not (closed and orientable):
            raise AssemblyError(
                "handlebody needs a closed orientable surface")
    for c in curves:
        if len(c) % 2:
            raise AssemblyError(f"curve length {len(c)} is odd; the capping "
                                "disk needs an even cycle")

    # at t = 0 each curve's copy and second disk are identified with the
    # curve and the first
    pairs: dict[int, int] = {}
    extra = 0
    sphere = Qpp
    if curves:
        S = cut_along_curves(Qpp, curves)
        tops = list(S.cells[2])
        copy, nxt = Qpp.n_vertices, S.n_vertices
        for c in curves:
            cp = range(copy, copy + len(c))
            copy += len(c)
            sides = []
            for cycle in (tuple(c), cp):
                cells, used = _disk_cells(cycle, nxt)
                tops.extend(cells)
                sides.append(range(nxt, nxt + used))
                nxt += used
            extra += len(sides[0])
            for a, b in chain(zip(cp, c), zip(sides[1], sides[0])):
                pairs[2 * a] = 2 * b
        sphere = build_complex(2, tops, n_vertices=nxt)
    req = FillRequest(sphere, "handlebody end")
    try:
        check_fill_request(req)
    except AssemblyError as e:
        raise AssemblyError(
            f"{e}; the curves are not half of a basis") from None

    census = {
        "curves": len(curves),
        "cut_vertices": sum(len(c) for c in curves),
        "disk_squares": sum(5 * (len(c) // 2) for c in curves) * 2,
        "sphere_squares": len(sphere.cells[2]),
        "prism_cubes": len(sphere.cells[2]),
        "extra_vertices": sphere.n_vertices + extra,
    }
    log.debug("handlebody: %d curves, sphere f %s, %.3f s", len(curves),
              sphere.f_vector(), time.perf_counter() - t0)
    return HandlebodyReport(sphere, (req,), pairs, census)


def _close_handlebody(Qpp: CubeComplex, hb: HandlebodyReport,
                      ball: CubeComplex
                      ) -> tuple[CubeComplex, dict[int, int]]:
    """The handlebody bounded by Qpp, from its scaffold and the ball that
    fills its sphere, and the map from each Qpp vertex to its id there.
    The prism's quotient is numbered directly (_quotient_ids), the ball
    is placed on its far end as the refining cylinder places its fills
    (_place_ball), without cube insets, and the cubes of both are closed
    and checked by one _close_piece: a violation of the face property is
    an AssemblyError naming the first offending pair, and so is a rim
    other than Qpp."""
    P = cartesian_product(hb.sphere, interval_complex(1))
    qmap = _quotient_ids(P, hb.pairs)
    # the far end, t = 1, is the sphere the ball fills
    cubes, fresh = _place_ball(ball, qmap[1::2], P.n_vertices - len(hb.pairs))
    prism = [tuple(map(qmap.__getitem__, cube)) for cube in P.cells[3]]
    bmap = {v: qmap[2 * v] for v in range(Qpp.n_vertices)}
    want = {canonical([bmap[v] for v in t]) for t in Qpp.cells[2]}
    H = _close_piece("handlebody", prism + cubes, fresh, want,
                     "the input surface")
    return H, bmap


# ---------------------------------------------------------------------------
# assembly


def assemble_sphere3(Q: CubeComplex, k: int, cyl: CylinderReport,
                     hb_bottom: HandlebodyReport, hb_top: HandlebodyReport,
                     ) -> CubeComplex:
    """Product cylinder, two refining cylinders and two handlebodies, in
    one complex: the fill step, then one close per piece, then the glue.

    The same cylinder report serves both ends (the construction is
    id-for-id identical on either side); the handlebodies, bounding
    cyl.end, may differ, or be one report, which is filled once.  The
    fill step calls fill_ball on the pillows, then on the bottom sphere,
    then on the top one, and re-raises the first FillFailed with a note
    naming the request's index and origin.  _close_cylinder and
    _close_handlebody then close the pieces from their balls.

    The ids are those four glue calls would give, piece after piece.
    The product P = Q x I_k keeps its own: (v, t) is v (k+1) + t.  The
    bottom cylinder's near end lands on P's layer t = 0, the top one's on
    t = k, and each cylinder's other vertices follow, in cylinder id
    order.  Each handlebody's boundary map lands on the far end of its
    cylinder, and its other vertices follow, bottom before top.  Every
    seam is checked and numbered by glue's one rule, transforms._seam_ids,
    against the piece it lands on: the cylinder seams against P, the
    handlebody seams against the cylinder.  The five pieces' maximal
    cells are then closed once, by one build_complex.

    The result is checked to be a closed pseudomanifold with the homology
    of S^3 whose vertex links are spheres; a violation of the face
    property is an AssemblyError naming the first offending pair (core's
    one rule, _validated).  Emits one DEBUG record under
    cubulations.sphere_builder with the f-vector and the seconds of the
    whole, of the fills with their count, of the closes with the pieces'
    f-vectors, of the gluing (the seams and the closure) and the checks.
    """
    t0 = time.perf_counter()
    if k < 1:
        raise AssemblyError("the product cylinder needs at least one layer")
    hbs = [hb_bottom] if hb_top is hb_bottom else [hb_bottom, hb_top]
    requests = [*cyl.requests, *chain.from_iterable(hb.requests for hb in hbs)]
    balls = []
    for i, req in enumerate(requests):
        try:
            balls.append(fill_ball(req.sphere).ball)
        except FillFailed as e:
            e.add_note(f"request {i}, {req.origin}, was not filled")
            e._request = i  # sphere3 reads back how many were filled
            raise
    t1 = time.perf_counter()

    n = len(cyl.requests)
    C = _close_cylinder(Q, cyl, balls[:n])
    closed = [_close_handlebody(cyl.end, hb, b)
              for hb, b in zip(hbs, balls[n:])]
    t2 = time.perf_counter()

    nb = Q.n_vertices
    n_end = cyl.end.n_vertices
    P = cartesian_product(Q, interval_complex(k))
    fresh = P.n_vertices
    on_p = range(fresh)

    def seam(name, A, a_ids, B, pairs):
        nonlocal fresh
        try:
            ids, fresh = _seam_ids(A, B, pairs, a_ids, fresh)
        except GlueError as e:
            raise AssemblyError(f"{name}: {e}") from None
        return ids

    m1 = seam("bottom cylinder seam", P, on_p, C,
              {v: v * (k + 1) for v in range(nb)})
    m2 = seam("top cylinder seam", P, on_p, C,
              {v: v * (k + 1) + k for v in range(nb)})
    placed = [(C, m1), (C, m2)]
    for name, (H, bmap), m in (("bottom handlebody seam", closed[0], m1),
                               ("top handlebody seam", closed[-1], m2)):
        placed.append((H, seam(
            name, C, m, H, {bmap[x]: nb + x for x in range(n_end)})))
    tops = list(chain.from_iterable(P.maximal_cells().values()))
    for B, ids in placed:
        for level in B.maximal_cells().values():
            tops.extend(tuple(map(ids.__getitem__, c)) for c in level)
    A = build_complex(3, tops, n_vertices=fresh)
    t3 = time.perf_counter()

    if not pseudomanifold_check(_validated(A, "assembly", AssemblyError)):
        raise AssemblyError("assembled complex is not a closed pseudomanifold")
    if not homology_sphere_check(A, 3):
        # the check's fallback computed these already; this second run,
        # on the failure path only, names them in the error
        prof = betti_numbers(A)
        raise AssemblyError(f"assembled homology is {prof.betti} with "
                            f"torsion {prof.torsion}, not a 3-sphere's")
    if not manifold_check(A, 3):
        raise AssemblyError("assembled complex has a bad vertex link")
    t4 = time.perf_counter()
    log.debug("assemble_sphere3: f %s, %.3f s: %d fills %.3f s, close "
              "%.3f s (cylinder f %s, handlebodies f %s), glue %.3f s, "
              "checks %.3f s", A.f_vector(), t4 - t0, len(balls), t1 - t0,
              t2 - t1, C.f_vector(), ", ".join(str(H.f_vector())
                                               for H, _ in closed),
              t3 - t2, t4 - t3)
    return A


def _split_alpha_beta(B: EdgePathBasis
                      ) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    # curves come in handle pairs (a_1, b_1, a_2, b_2, ...); the a side is
    # cut inside the bottom handlebody, the b side outside in the top one
    return list(B.curves[0::2]), list(B.curves[1::2])


def sphere3(n: int, k: int | None = None, *, structural: bool = False
            ) -> tuple[CubeComplex | StructuralReport, PipelineCensus]:
    """Run the full 3-sphere pipeline at scale n.

    n must be an odd prime at least 11; k (the product cylinder length)
    defaults to n^3.  The ribbon surgery's regular-neighbourhood
    certificates are re-checked on the refined surface with
    verify_neighborhoods before anything is built on it.  At genus 0
    there are no curves, and one handlebody, the thickened ball over the
    refined sphere, serves both ends.

    The stages build their scaffolds and checked FillRequests, and
    assemble_sphere3 fills, closes and glues the pieces.  With structural
    the run stops before the fill step and returns a StructuralReport of
    the requests, every stage "structural"; when a fill runs out it
    returns the same report, whose notes name the failing request and
    the FillFailed message, a stage "full" when all its requests filled.

    Emits one DEBUG record under cubulations.sphere_builder with the
    stage levels, the seconds of each stage: surface and basis,
    refinement, cylinder, handlebodies and assembly ("skipped" when it did
    not run), and the request that was not filled.
    """
    if not _is_odd_prime(n) or n < 11:
        raise AssemblyError("n must be an odd prime at least 11")
    if k is None:
        k = n ** 3
    if k < 1:
        raise AssemblyError("k must be at least 1")

    stage_s: dict[str, float | None] = {}
    t = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal t
        now = time.perf_counter()
        stage_s[stage] = now - t
        t = now

    Q, _srep = surface_report(n)
    B = canonical_basis(Q)
    lap("surface and basis")
    rep = refine_report(Q, B)
    Q2, B2, certs, chains2 = regularize_with_chains(
        rep.complex, rep.basis, rep.edge_chains)
    if not verify_neighborhoods(Q2, B2, certs):
        raise AssemblyError("a regular-neighbourhood certificate of the "
                            "refined basis does not hold")
    lap("refinement")

    cyl = refining_cylinder(Q, Q2, B2, chains=chains2)
    lap("cylinder")
    alpha, beta = _split_alpha_beta(B2)
    hbA = handlebody(cyl.end, alpha)
    hbB = handlebody(cyl.end, beta) if B2.curves else hbA
    lap("handlebodies")

    f_Q = Q.f_vector()
    f_P = tuple((k + 1) * f + k * g for f, g in zip((*f_Q, 0), (0, *f_Q)))
    stage_f: dict[str, tuple[int, ...]] = {
        "surface": f_Q,
        "refined": Q2.f_vector(),
        "end": cyl.end.f_vector(),
        "sphere_bottom": hbA.sphere.f_vector(),
        "sphere_top": hbB.sphere.f_vector(),
        "cylinder": f_P,
    }

    cyl_extra = cyl.census["scaffold_vertices"] - f_Q[0]
    scaffold = f_P[0] + 2 * cyl_extra \
        + hbA.census["extra_vertices"] + hbB.census["extra_vertices"]
    census = PipelineCensus(
        n=n, k=k, d=3,
        stage_f=stage_f,
        pillows=cyl.census["pillows"],
        pillow_squares=cyl.census["pillow_squares"],
        parity_fixes=cyl.census["parity_fixes"],
        scaffold_vertices=scaffold,
        growth_constant=(scaffold - f_P[0]) / n ** 4,
    )

    # per stage, the end of its requests in fill order, one for each
    # handlebody; one handlebody at both ends is filled once
    requests = cyl.requests + hbA.requests + hbB.requests
    n_cyl = len(cyl.requests)
    ends = {"refining_cylinder": n_cyl, "handlebody_bottom": n_cyl + 1,
            "handlebody_top": n_cyl + 1 + (hbB is not hbA)}
    filled, S3 = 0, None
    notes = ["the refining cylinder is built once and used at both ends; "
             "its pillow fills are shared"]
    stage_s["assembly"] = None
    if not structural:
        try:
            S3 = assemble_sphere3(Q, k, cyl, hbA, hbB)
        except FillFailed as e:
            filled = e._request
            notes.append(f"{e.__notes__[-1]}: {e}")
        else:
            bounds = upper_bound_checks(S3)
            if not bounds.facet_bound_ok or bounds.cube_bound_ok is False:
                raise AssemblyError("assembled sphere exceeds the facet "
                                    "bounds")
            filled = len(requests)
        lap("assembly")
    levels = {stage: "full" if end <= filled else "structural"
              for stage, end in ends.items()}
    log.debug("sphere3: n %d, k %d, levels %s; %s%s", n, k, levels,
              ", ".join(f"{stage} {s:.3f} s" if s is not None
                        else f"{stage} skipped"
                        for stage, s in stage_s.items()),
              f"; {notes[-1]}" if len(notes) > 1 else "")
    if S3 is not None:
        stage_f = dict(stage_f)
        stage_f["final"] = S3.f_vector()
        return S3, replace(census, stage_f=stage_f)
    return StructuralReport(requests, levels, tuple(notes)), census


# ---------------------------------------------------------------------------
# raising dimension


def _union(P: CubeComplex, E: CubeComplex) -> CubeComplex:
    """The union of two closed complexes of one dimension on the same ids,
    where E adds few cells to P, with its facet table merged from theirs.

    Per level, E's cells are placed in P's sorted cells by bisection; the
    ones P lacks are inserted there, so P's rows move in runs between them.
    P's ids are remapped with one array map per level, and each inserted
    row is E's, with E's ids mapped to their merged positions."""
    cells: dict[int, tuple[tuple[int, ...], ...]] = {}
    facets: dict[int, tuple[array, array]] = {}
    p_inc, e_inc = P.incidence(), E.incidence()
    shift = e_at = array("i")
    for k in range(P.dim + 1):
        old, added = P.cells[k], E.cells[k]
        new = []  # (position in P, index in E) of each cell P lacks
        for e, c in enumerate(added):
            p = bisect_left(old, c)
            if p == len(old) or old[p] != c:
                new.append((p, e))
        parts, lo = [], 0
        for p, e in new:
            parts += old[lo:p], (added[e],)
            lo = p
        parts.append(old[lo:])
        merged = cells[k] = tuple(chain.from_iterable(parts))
        # P's cells before the first inserted one stay, the ones after
        # the r-th move up by r
        below, shift, lo = shift, array("i"), 0
        for r, hi in enumerate([p for p, _ in new] + [len(old)]):
            shift.extend(range(lo + r, hi + r))
            lo = hi
        e_below = e_at
        e_at = array("i", [bisect_left(merged, c) for c in added])
        if k:
            w = 2 * k
            ids, coeffs = p_inc.facets(k)
            ids = array("i", map(below.__getitem__, ids))
            e_ids, e_coeffs = e_inc.facets(k)
            out_ids, out_coeffs, lo = array("i"), array("b"), 0
            for p, e in new:
                out_ids += ids[w * lo:w * p]
                out_ids += array("i", map(e_below.__getitem__,
                                          e_ids[w * e:w * e + w]))
                out_coeffs += coeffs[w * lo:w * p]
                out_coeffs += e_coeffs[w * e:w * e + w]
                lo = p
            out_ids += ids[w * lo:]
            out_coeffs += coeffs[w * lo:]
            facets[k] = out_ids, out_coeffs
    return CubeComplex(P.dim, P.n_vertices, cells, facets)


def induct_dimension(S: CubeComplex, facet=None) -> CubeComplex:
    """One doubling step: a cubulated d-sphere to a (d+1)-sphere.

    Remove the interior of one facet F (the first in canonical order by
    default), thicken the remaining ball Q by the square I x I, and take
    the boundary.  The output has exactly 4 * f0(S) vertices, and
    4 (f_d(S) - 1) + 2d facets by the product formula below, at least
    twice as many as S for d >= 2; it is checked to be a homology sphere.
    The input must be a closed pseudomanifold: a violation of the face
    property is an AssemblyError naming the first offending pair (core's
    one rule, _validated).  A facet that is not a d-cell of S raises
    AssemblyError.

    The boundary is written by its product formula, with bd for the
    boundary: bd(Q x I x I) = Q x bd(I x I)  u  bd(F) x I x I, two
    products that are closed and canonical and overlap in
    bd(F) x bd(I x I).  bd(F) is read off S's facet tables, and bd(I x I)
    is the rim of the square's own product, so vertex (q, i, j) is
    4q + 2i + j, as in the product Q x I x I.
    The second product adds only the cells bd(F) x (open square), 26 for
    d = 3, so the two are merged (_union): those cells are placed by
    bisection, and the first product's cells and facet rows move in runs
    between them.  Both products carry facet tables derived from their
    factors', Q carries S's, and the merge keeps them, so the homology
    check on the output reads a finished table.  Both homology checks
    collapse their sphere less one facet to a vertex on the facet tables
    alone (see topology), so no coface table of the output is built.
    """
    d = S.dim
    if d < 2:
        raise AssemblyError("dimension raising needs a sphere of dim >= 2")
    t0 = time.perf_counter()
    if not pseudomanifold_check(_validated(S, "doubling input",
                                           AssemblyError)):
        raise AssemblyError("input is not a closed pseudomanifold")
    target = S.cells[d][0] if facet is None else \
        canonical(facet) if len(facet) == 1 << d else None
    if target not in S.incidence().position(d):
        raise AssemblyError(f"{facet} is not a {d}-cell of the input")
    t1 = time.perf_counter()
    if not homology_sphere_check(S, d):
        raise AssemblyError("input does not have sphere homology")
    t2 = time.perf_counter()

    Q = _remove_facet(S, target)
    faces = S.incidence().closure(d, [S.incidence().position(d)[target]])
    rim_F = CubeComplex.from_cells(d - 1, S.n_vertices, {
        k: [S.cells[k][i] for i in faces[k]] for k in range(d)})
    square = cartesian_product(interval_complex(1), interval_complex(1))
    sides = cartesian_product(Q, boundary_complex(square))
    ends = cartesian_product(rim_F, square)
    t3 = time.perf_counter()
    out = _union(sides, ends)
    t4 = time.perf_counter()

    # out has 4 * n ids by construction; count the vertices it has
    if len(out.cells[0]) != 4 * S.n_vertices:
        raise AssemblyError("vertex count is off; input was not a sphere")
    if not homology_sphere_check(out, d + 1):
        raise AssemblyError("doubling lost the sphere homology")
    t5 = time.perf_counter()
    log.debug("induct_dimension: f %s -> %s; validate %.3f s, products "
              "%.3f s, boundary %.3f s, homology checks %.3f s in + %.3f s "
              "out", S.f_vector(), out.f_vector(), t1 - t0, t3 - t2,
              t4 - t3, t2 - t1, t5 - t4)
    return out


def sphere_d(d: int, n: int, k: int | None = None, *,
             structural: bool = False
             ) -> tuple[CubeComplex | StructuralReport, PipelineCensus]:
    """d-sphere within a vertex budget of n, by doubling a 3-sphere run.

    Picks the largest usable prime p so that the predicted vertex count
    after d-3 doublings stays at most n, runs the 3-sphere pipeline
    there, and doubles.  Doubling needs the full complex, so a
    structural 3-sphere run ends the climb early with its report.
    """
    if d < 3:
        raise AssemblyError("dimension must be at least 3")
    if n < 2 ** (d + 1):
        raise AssemblyError(
            f"need at least 2^(d+1) = {2 ** (d + 1)} vertices in dim {d}")

    # predicted vertices: the product cylinder exactly, plus an n^4
    # allowance for the refinement stages (their measured constant is
    # well under 1); grows like p^4, so the scan terminates
    budget3 = n // 4 ** (d - 3)
    best = None
    p = 11
    while True:
        if _is_odd_prime(p):
            Qp, _ = surface_report(p)
            kp = k if k is not None else p ** 3
            if (kp + 1) * Qp.n_vertices + p ** 4 > budget3:
                break
            best = p
        p += 2
    if best is None:
        raise AssemblyError(
            f"no pipeline scale fits {budget3} vertices; the smallest run "
            "needs more room")

    result, census = sphere3(best, k=k, structural=structural)
    if d == 3:
        return result, census
    if isinstance(result, StructuralReport):
        notes = result.notes + (
            f"doubling to dimension {d} needs the full 3-sphere complex",)
        return replace(result, notes=notes), replace(census, d=d)

    S = result
    for _ in range(d - 3):
        S = induct_dimension(S)
    if S.n_vertices > n:
        raise AssemblyError("doubling exceeded the vertex budget")
    stage_f = dict(census.stage_f)
    stage_f["final"] = S.f_vector()
    return S, replace(census, d=d, stage_f=stage_f)
