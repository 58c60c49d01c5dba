"""Circulant bipartite graphs embedded in surfaces, and their cubulations.

The graph G has an odd prime n of vertices in each part, both indexed by
Z/n; vertex i is joined to i+-d on the other side for 1 <= d <= d_max,
where d_max is the largest odd number below n/10. Thickening each vertex
to a disk (strips attached counterclockwise in the order
+1,-1,+2,-2,...,+d_max,-d_max) and capping the boundary circles produces a
closed orientable surface whose faces are the traced boundary cycles.

Complex vertex ids: left i -> i, right i -> n + i (0-indexed residues).

Tracing states are (part, residue, d): the walk just arrived at this vertex
by a counterclockwise step of size d. Even walks (arriving on the right
side of a strip) keep d constant; odd walks (left side) step d+1 next,
wrapping d_max -> 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CubeComplex, CubeComplexError, _validated, build_complex, \
    canonical
from .topology import surface_invariants
from .transforms import GADGETS, _insert_square_5


def _is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def d_max_for(n: int) -> int:
    """Largest odd number strictly below n/10."""
    d = (n - 1) // 10
    if d % 2 == 0:
        d -= 1
    # guard against n/10 being an exact odd integer
    while 10 * d >= n:
        d -= 2
    return d


@dataclass(frozen=True)
class CirculantBipartite:
    n: int
    d_max: int

    def edges(self) -> list[tuple[int, int]]:
        """Canonical edge list in complex ids (left i, right n+j)."""
        n = self.n
        out = []
        for i in range(n):
            for d in range(1, self.d_max + 1):
                out.append((i, n + (i + d) % n))
                out.append((i, n + (i - d) % n))
        return sorted(set(out))

    @property
    def n_edges(self) -> int:
        return 2 * self.n * self.d_max

    def vertex_id(self, part: int, x: int) -> int:
        return x % self.n + (self.n if part else 0)


def build_graph(n: int) -> CirculantBipartite:
    if not _is_odd_prime(n):
        raise CubeComplexError(f"{n} is not an odd prime")
    if n < 11:
        raise CubeComplexError(f"n={n} is too small to have d_max >= 1")
    G = CirculantBipartite(n, d_max_for(n))
    assert G.d_max >= 1 and G.d_max % 2 == 1
    return G


@dataclass(frozen=True)
class TracedCycle:
    parity: str  # "even" | "odd"
    states: tuple[tuple[int, int, int], ...]  # (part, residue, arrival d)
    vertices: tuple[int, ...]  # complex ids, aligned with states

    def __len__(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class RotationSurface:
    graph: CirculantBipartite
    cycles: tuple[TracedCycle, ...]

    def euler_characteristic(self) -> int:
        G = self.graph
        return 2 * G.n - G.n_edges + len(self.cycles)

    def genus(self) -> int:
        return (2 - self.euler_characteristic()) // 2


def trace_cycles(G: CirculantBipartite) -> RotationSurface:
    """Trace every boundary cycle of the thickened graph.

    Each strip side is traversed exactly once: the side arriving on the
    right belongs to an even cycle, the side arriving on the left to an odd
    one, giving 2 * n_edges traversal states in total. Cycles are anchored
    at their minimal state and sorted (evens by step size, then odds).
    """
    n, dm = G.n, G.d_max

    def close_orbit(start, step):
        orbit = [start]
        cur = step(start)
        while cur != start:
            orbit.append(cur)
            cur = step(cur)
        return orbit

    cycles: list[TracedCycle] = []

    seen: set[tuple[int, int, int]] = set()
    for d in range(1, dm + 1):
        for p0 in (0, 1):
            for x0 in range(n):
                s = (p0, x0, d)
                if s in seen:
                    continue
                orbit = close_orbit(s, lambda st: (1 - st[0], (st[1] + d) % n, d))
                seen.update(orbit)
                anchor = orbit.index(min(orbit))
                orbit = orbit[anchor:] + orbit[:anchor]
                cycles.append(TracedCycle(
                    "even",
                    tuple(orbit),
                    tuple(G.vertex_id(p, x) for p, x, _ in orbit),
                ))
    assert len(seen) == 2 * n * dm

    def odd_step(st):
        p, x, d = st
        nd = d + 1 if d < dm else 1
        return (1 - p, (x + nd) % n, nd)

    seen_odd: set[tuple[int, int, int]] = set()
    for p0 in (0, 1):
        for x0 in range(n):
            for d0 in range(1, dm + 1):
                s = (p0, x0, d0)
                if s in seen_odd:
                    continue
                orbit = close_orbit(s, odd_step)
                seen_odd.update(orbit)
                # anchor at the minimal reset state (arrival step d_max)
                resets = [i for i, st in enumerate(orbit) if st[2] == dm]
                anchor = min(resets, key=lambda i: orbit[i]) if resets else 0
                orbit = orbit[anchor:] + orbit[:anchor]
                cycles.append(TracedCycle(
                    "odd",
                    tuple(orbit),
                    tuple(G.vertex_id(p, x) for p, x, _ in orbit),
                ))
    assert len(seen_odd) == 2 * n * dm
    return RotationSurface(G, tuple(cycles))


# ---------------------------------------------------------------------------
# property checks

WINDOW_LIMIT = 10  # (II): the longest window of a cycle that must be simple
C_BOUND = 1.2      # (III): the measured c must stay at or below this


@dataclass(frozen=True)
class PropertyReport:
    property_i: bool
    property_ii: bool
    property_iii: bool
    witness_i: tuple | None
    witness_ii: tuple | None
    n_paths: int
    c_measured: float

    def all_hold(self) -> bool:
        return self.property_i and self.property_ii and self.property_iii


def check_properties(R: RotationSurface, split: "CyclePathSplit"
                     ) -> PropertyReport:
    """(I): each window j,?,k occurs once per parity class. (II): windows of
    up to WINDOW_LIMIT steps are simple. (III): measured path count from
    the split, reported as c = paths / |V(G)|, at most C_BOUND."""
    windows: dict[str, dict[tuple[int, int], tuple[int, int]]] = {
        "even": {}, "odd": {}}
    witness_i = None
    ok_i = True
    for ci, cyc in enumerate(R.cycles):
        vs = cyc.vertices
        L = len(vs)
        for t in range(L):
            j, k = vs[t], vs[(t + 2) % L]
            key = (j, k) if j < k else (k, j)
            book = windows[cyc.parity]
            if key in book and book[key] != (ci, t):
                if witness_i is None:
                    witness_i = (cyc.parity, key, book[key], (ci, t))
                ok_i = False
            else:
                book.setdefault(key, (ci, t))
    ok_ii = True
    witness_ii = None
    for ci, cyc in enumerate(R.cycles):
        vs = cyc.vertices
        L = len(vs)
        span = min(WINDOW_LIMIT + 1, L)
        for t in range(L):
            window = [vs[(t + s) % L] for s in range(span)]
            if len(set(window)) != span:
                ok_ii = False
                if witness_ii is None:
                    witness_ii = (ci, t, tuple(window))
                break
        if not ok_ii:
            break
    n_paths = sum(len(c.pieces) for c in split.cycles)
    c_measured = n_paths / (2 * R.graph.n)
    ok_iii = c_measured <= C_BOUND
    return PropertyReport(ok_i, ok_ii, ok_iii, witness_i, witness_ii,
                          n_paths, c_measured)


# ---------------------------------------------------------------------------
# path splitting


@dataclass(frozen=True)
class PathPiece:
    vertices: tuple[int, ...]  # complex ids; len >= 3 (>= 1 interior vertex)
    endpoint_class: str  # "left" | "right"


@dataclass(frozen=True)
class SplitCycle:
    parity: str
    pieces: tuple[PathPiece, ...]  # concatenation walks the whole cycle
    raw_run_lengths: tuple[int, ...]  # odd cycles: lengths of the P_i runs


@dataclass(frozen=True)
class CyclePathSplit:
    cycles: tuple[SplitCycle, ...]


def _split_simple_cycle(vs: tuple[int, ...], endpoint_class: str,
                        class_test) -> SplitCycle:
    """Split a simple cycle in two paths meeting at two designated-class
    vertices: the anchor (minimal such vertex) and the next one, two steps
    on."""
    L = len(vs)
    anchor_positions = [i for i in range(L) if class_test(vs[i])]
    p0 = min(anchor_positions, key=lambda i: vs[i])
    order = vs[p0:] + vs[:p0]
    piece1 = PathPiece(tuple(order[0:3]), endpoint_class)
    piece2 = PathPiece(tuple(order[2:]) + (order[0],), endpoint_class)
    return SplitCycle("simple", (piece1, piece2), ())


def _merge_split_cycle(vs: tuple[int, ...], cut_candidates: list[int],
                       class_lo: int, class_hi: int) -> tuple[PathPiece, ...]:
    """Cut a long non-simple cycle into simple pieces at candidate
    positions, using as few cuts as simplicity allows.

    Every piece must be simple, and the cut (junction) vertices must be
    pairwise distinct: the cubulation joins one hub vertex to every
    junction, and a repeated junction vertex would merge two hub edges,
    pinching the surface. Candidates all carry class vertices in
    [class_lo, class_hi), so piece lengths stay even; positions holding an
    already-used vertex are skipped (possible only for non-candidate
    fallback cuts, which are tried if no candidate fits)."""
    L = len(vs)

    def simple_stretch(pos: int) -> int:
        # largest e < L such that vs[pos..pos+e] has no repeated vertex
        seen = {vs[pos % L]}
        e = 0
        while e + 1 < L:
            v = vs[(pos + e + 1) % L]
            if v in seen:
                break
            seen.add(v)
            e += 1
        return e

    start = min(cut_candidates, key=lambda i: vs[i])
    used = {vs[start]}
    offsets = [0]  # cut offsets from start; final piece closes at L
    done = 0
    while True:
        base = (start + done) % L
        reach = simple_stretch(base)
        if done + reach >= L and len(offsets) >= 2:
            break  # the remaining arc back to start is simple
        reach = min(reach, L - done)
        candidate_offsets = sorted(
            (p - base) % L for p in cut_candidates
            if 0 < (p - base) % L <= reach and vs[p] not in used)
        if candidate_offsets:
            e = candidate_offsets[-1]
        else:
            fallback = [e for e in range(2, reach + 1, 2)
                        if class_lo <= vs[(base + e) % L] < class_hi
                        and vs[(base + e) % L] not in used]
            if not fallback:
                raise CubeComplexError(
                    "cannot split cycle into simple pieces with distinct "
                    f"junctions near position {base}")
            e = fallback[-1]
        done += e
        offsets.append(done)
        used.add(vs[(start + done) % L])
    pieces = []
    for a, b in zip(offsets, offsets[1:] + [L]):
        pieces.append(PathPiece(
            tuple(vs[(start + i) % L] for i in range(a, b + 1)),
            "left" if class_lo == 0 else "right"))
    return tuple(pieces)


def split_paths(R: RotationSurface) -> CyclePathSplit:
    """Split every traced cycle into simple paths with distinct junctions.

    Odd cycles with d_max >= 3 are cut at difference-sequence resets. The
    right-vertex resets visit each right vertex exactly once, so cutting at
    every one of them would place ~n junctions but also make pieces of
    length d_max whose endpoints recur as interior vertices of other
    pieces' hub edges; instead consecutive runs are merged while the piece
    stays simple, which both shortens the piece list and keeps junction
    vertices distinct. Raw run lengths (d_max each) are recorded
    separately. Even cycles (and the degenerate d_max = 1 odd cycle) are
    simple closed walks and split in two; a closed walk cannot be one
    simple path. Even paths end at left vertices, odd ones at right
    vertices.
    """
    n, dm = R.graph.n, R.graph.d_max
    is_left = lambda v: v < n
    is_right = lambda v: v >= n
    out: list[SplitCycle] = []
    for cyc in R.cycles:
        vs = cyc.vertices
        if cyc.parity == "even":
            sc = _split_simple_cycle(vs, "left", is_left)
            out.append(SplitCycle("even", sc.pieces, ()))
            continue
        if dm == 1:
            sc = _split_simple_cycle(vs, "right", is_right)
            out.append(SplitCycle("odd", sc.pieces, (1,) * len(vs)))
            continue
        resets = [i for i, st in enumerate(cyc.states) if st[2] == dm]
        right_resets = [i for i in resets if is_right(vs[i])]
        pieces = _merge_split_cycle(vs, right_resets, n, 2 * n)
        out.append(SplitCycle("odd", pieces, (dm,) * len(resets)))
    return CyclePathSplit(tuple(out))


def divisibility_table(n: int, dm: int) -> list[tuple[int, int, int]]:
    """All (d, c, (c+1)(2d+c)/2 mod n) for 1 <= d <= d+c <= d_max; path
    simplicity needs every residue nonzero."""
    out = []
    for d in range(1, dm + 1):
        for c in range(0, dm - d + 1):
            out.append((d, c, ((c + 1) * (2 * d + c) // 2) % n))
    return out


# ---------------------------------------------------------------------------
# cubulation


def _cubulation_squares(G: CirculantBipartite, R: RotationSurface,
                        P: CyclePathSplit) -> tuple[list[tuple[int, ...]], int]:
    """The squares of cubulate_cycles and its vertex count, unbuilt."""
    tops: list[tuple[int, ...]] = []
    base = 2 * G.n
    for cyc, split in zip(R.cycles, P.cycles):
        hub = base
        base += 1
        for piece in split.pieces:
            q = piece.vertices
            w = base
            base += 1
            for t in range(0, len(q) - 2, 2):
                tops.append((w, q[t], q[t + 2], q[t + 1]))
            hub_square = (w, q[-1], q[0], hub)
            tops.extend(_insert_square_5(hub_square, base))
            base += 4
    return tops, base


def cubulate_cycles(G: CirculantBipartite, R: RotationSurface,
                    P: CyclePathSplit) -> CubeComplex:
    """Refine the embedded graph to a square complex.

    Per cycle: a hub vertex joined to every piece endpoint, splitting the
    face into subcycles (one per piece). Per subcycle: an interior vertex
    joined to the endpoint-class vertices of its path, making one square
    per two boundary edges; the square containing both path endpoints and
    the hub is subdivided in five. Ids: 2n graph vertices, then per cycle
    its hub, then per piece its interior vertex followed by the four
    subdivision vertices.
    """
    tops, n_vertices = _cubulation_squares(G, R, P)
    return _validated(build_complex(2, tops, n_vertices=n_vertices),
                      "cubulation", CubeComplexError)


def _build_surface(n: int) -> tuple[CirculantBipartite, RotationSurface,
                                   PropertyReport, CubeComplex]:
    """Graph, tracing, checks, split and cubulation, once; if the square
    count is odd, one square is subdivided in ten to fix the parity."""
    G = build_graph(n)
    R = trace_cycles(G)
    split = split_paths(R)
    report = check_properties(R, split)
    if not report.all_hold():
        raise CubeComplexError(f"surface properties failed: {report}")
    for d, c, residue in divisibility_table(n, G.d_max):
        if residue == 0:
            raise CubeComplexError(
                f"path simplicity broken: (c+1)(2d+c)/2 = 0 mod n at d={d}, c={c}")
    tops, n_vertices = _cubulation_squares(G, R, split)
    if len(tops) % 2:
        # the least square in ten, as apply_gadget(C, C.cells[2][0],
        # "square_10") would subdivide it in the cubulation C, which is
        # then built once
        canon = [canonical(t) for t in tops]
        least = min(canon)
        del tops[canon.index(least)]
        gadget = GADGETS["square_10"]
        tops.extend(gadget.build(least, n_vertices))
        n_vertices += gadget.n_new_vertices
    return G, R, report, _validated(
        build_complex(2, tops, n_vertices=n_vertices), "cubulation",
        CubeComplexError)


@dataclass(frozen=True)
class SurfaceReport:
    n: int
    d_max: int
    n_even: int
    n_odd: int
    genus: int
    f_vector: tuple[int, ...]
    properties: PropertyReport
    c_measured: float
    even_squares: bool


def surface_report(n: int) -> tuple[CubeComplex, SurfaceReport]:
    G, R, props, C = _build_surface(n)
    closed, orientable, genus = surface_invariants(C)
    assert closed and orientable and genus == R.genus()
    return C, SurfaceReport(
        n=n,
        d_max=G.d_max,
        n_even=sum(1 for c in R.cycles if c.parity == "even"),
        n_odd=sum(1 for c in R.cycles if c.parity == "odd"),
        genus=genus,
        f_vector=C.f_vector(),
        properties=props,
        c_measured=props.c_measured,
        even_squares=len(C.cells[2]) % 2 == 0,
    )
