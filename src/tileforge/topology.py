"""Combinatorial audits of the boundary complex.

Pieces of the boundary are handled purely symbolically: a piece is the set of
tiles it lies in, so two pieces intersect exactly when the union of their
tile families, seen from one piece's frame, is a vertex of the level graph of
the right size.  All Hata graphs here compare pieces at one common scale.
"""

from __future__ import annotations

from typing import NamedTuple

from .analysis import (
    AbcTriple,
    TileAnalysis,
    analysis_for,
    predicts_14,
)
from .lattice import Vec, vec_add, vec_neg, vec_sub
from .power import PowerGraph, VertexSet, subdivide, vertex_set


class Piece(NamedTuple):
    """Same-scale boundary piece, canonically framed by its tile family."""

    vertex: VertexSet
    shift: Vec

    @property
    def key(self) -> frozenset:
        """Identity of the piece: the set of tiles it lies in."""
        return frozenset((self.shift,) + tuple(
            vec_add(b, self.shift) for b in self.vertex))


def make_piece(vertex, shift) -> Piece:
    """Canonical piece: reframe so the shift is the smallest family member."""
    key = Piece(tuple(vertex), tuple(shift)).key
    base = min(key)
    members = tuple(sorted(vec_sub(t, base) for t in key if t != base))
    return Piece(members, base)


class HataGraph(NamedTuple):
    """Undirected intersection graph of same-scale pieces."""

    nodes: tuple[Piece, ...]
    edges: tuple[tuple[int, int, VertexSet], ...]

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * len(self.nodes)
        for i, j, _ in self.edges:
            deg[i] += 1
            deg[j] += 1
        return tuple(deg)


def hata_graph(ctx, pieces) -> HataGraph:
    """Intersection graph of pieces given as (vertex, shift) pairs, Pieces
    included; every piece is canonicalised, so one piece is one node.

    Two pieces can meet only if their shifts differ by 0 or a neighbor, so
    the pieces are paired by shift.  The intersection of B_v + a and
    B_w + a + off does not depend on a, so each link is decided once per
    context and kept in t.links under (v, off, w), None included: a link
    decided for one pair of pieces holds for every translate of the pair.
    """
    t = analysis_for(ctx)
    canon = sorted({make_piece(*p) for p in pieces})
    by_shift: dict[Vec, list[int]] = {}
    for i, p in enumerate(canon):
        by_shift.setdefault(p.shift, []).append(i)
    offsets = ((0,) * t.matrix.size,) + t.neighbors.points
    links = t.links
    edges = []
    for shift, left in by_shift.items():
        for off in offsets:
            right = by_shift.get(vec_add(shift, off))
            if right is None:
                continue
            for i in left:
                p = canon[i]
                for j in right:
                    if j <= i:
                        continue
                    q = canon[j]
                    key = (p.vertex, off, q.vertex)
                    gamma = links.get(key, _UNDECIDED)
                    if gamma is _UNDECIDED:
                        gamma = links[key] = t.intersection(
                            p.vertex, p.shift, q.vertex, q.shift)
                    if gamma is not None:
                        edges.append((i, j, gamma))
    return HataGraph(tuple(canon), tuple(sorted(edges)))


_UNDECIDED = object()


class ChainReport(NamedTuple):
    """Shape classification of a Hata graph.

    classification is one of path, regular_chain, cycle, circular_chain,
    connected, disconnected, other.  regular chains are paths whose links are
    single points; circular chains are point-linked cycles of length >= 4.
    """

    classification: str
    node_count: int
    edge_count: int
    witness: str | None = None

    @property
    def is_path(self) -> bool:
        return self.classification in ("path", "regular_chain")

    @property
    def is_circular_chain(self) -> bool:
        return self.classification == "circular_chain"


def classify(h: HataGraph) -> ChainReport:
    n = len(h.nodes)
    if n == 0:
        return ChainReport("other", 0, 0, "no pieces")
    deg = h.degrees()
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for i, j, _ in h.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        for x in adj[stack.pop()]:
            if x not in seen:
                seen.add(x)
                stack.append(x)
    if len(seen) < n:
        out = next(i for i in range(n) if i not in seen)
        return ChainReport("disconnected", n, len(h.edges),
                           f"nodes 0 and {out} are in different components")
    point_links = all(len(e[2]) == 3 for e in h.edges)
    if all(d == 2 for d in deg) and n >= 3:
        if n >= 4 and point_links:
            return ChainReport("circular_chain", n, len(h.edges))
        bad = next((e for e in h.edges if len(e[2]) != 3), None)
        note = None if bad is None else f"link {bad[0]}-{bad[1]} is not a point"
        if n < 4:
            note = "fewer than 4 pieces"
        return ChainReport("cycle", n, len(h.edges), note)
    if all(d <= 2 for d in deg) and len(h.edges) == n - 1:
        if n == 1:
            return ChainReport("path", 1, 0)
        if point_links:
            return ChainReport("regular_chain", n, len(h.edges))
        bad = next(e for e in h.edges if len(e[2]) != 3)
        return ChainReport("path", n, len(h.edges),
                           f"link {bad[0]}-{bad[1]} is not a point")
    return ChainReport("connected", n, len(h.edges), "degree above 2")


def path_order(h: HataGraph) -> list[int]:
    """Node indices along a path-shaped Hata graph."""
    n = len(h.nodes)
    if n == 1:
        return [0]
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for i, j, _ in h.edges:
        adj[i].append(j)
        adj[j].append(i)
    ends = [i for i in range(n) if len(adj[i]) == 1]
    if len(ends) != 2:
        raise ValueError("graph is not a path")
    order = [min(ends)]
    prev = None
    while len(order) < n:
        nxt = [x for x in adj[order[-1]] if x != prev]
        if len(nxt) != 1:
            raise ValueError("graph is not a path")
        prev = order[-1]
        order.append(nxt[0])
    return order


def successor_hata(ctx, alpha_set) -> tuple[HataGraph, ChainReport]:
    """Hata graph of the distinct one-step successors of a level vertex."""
    t = analysis_for(ctx)
    vs = vertex_set(alpha_set)
    g = t.level(len(vs))
    if not g.has_vertex(vs):
        raise ValueError(f"{vs} is not a level-{len(vs)} vertex")
    return _successor_hata(t, g, vs)


def _successor_hata(t: TileAnalysis, g: PowerGraph, vs: VertexSet):
    """successor_hata on vs, a vertex of the level graph g."""
    zero = (0,) * t.matrix.size
    dsts = sorted({dst for _, dst in g.out_edges(vs)})
    h = hata_graph(t, [(d, zero) for d in dsts])
    return h, classify(h)


# Per depth, a loop grows about 1.85 times in pieces and its audit about 8
# times in time, so depths above this bound are refused rather than run.
MAX_LOOP_DEPTH = 6


def _check_loop_depth(k: int) -> None:
    """Reject a loop depth outside 1..MAX_LOOP_DEPTH."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > MAX_LOOP_DEPTH:
        raise ValueError(f"k must be at most {MAX_LOOP_DEPTH}")


def boundary_loop_pieces(ctx, alpha: Vec, k: int = 1) -> tuple:
    """Depth-k pieces of the closed piece loop around one neighbor."""
    _check_loop_depth(k)
    t = analysis_for(ctx)
    alpha = tuple(int(x) for x in alpha)
    faces = [v for v in t.level(2).vertices if alpha in v]
    if not faces:
        raise ValueError(f"{alpha} appears in no level-2 vertex")
    zero = (0,) * t.matrix.size
    return subdivide(t.level(2), [(f, zero) for f in faces], k - 1)


def boundary_loop_audit(ctx, alpha: Vec, k: int = 1) -> tuple[HataGraph, ChainReport]:
    t = analysis_for(ctx)
    h = hata_graph(t, boundary_loop_pieces(t, alpha, k))
    return h, classify(h)


class FourFold(NamedTuple):
    """The two level-3 vertices enclosing a level-2 vertex."""

    pair: tuple[VertexSet, VertexSet]
    first_digits: tuple[Vec, Vec]


def four_fold_placement(ctx, alpha_set) -> FourFold:
    """Exactly two triple-points bound each arc; returns them with first digits."""
    return _four_fold_placement(analysis_for(ctx), vertex_set(alpha_set))


def _four_fold_placement(t: TileAnalysis, vs: VertexSet) -> FourFold:
    """four_fold_placement on vs, a canonical vertex set."""
    members = set(vs)
    supersets = [w for w in t.level(3).vertices if members.issubset(w)]
    if len(supersets) != 2:
        raise ValueError(f"{vs} lies in {len(supersets)} level-3 vertices, not 2")
    first = []
    for w in supersets:
        word = t.walk(w)
        first.append((word.preperiod + word.period)[0])
    return FourFold((supersets[0], supersets[1]), (first[0], first[1]))


class ComplexCensus(NamedTuple):
    """Face/arc/point counts of the boundary complex with adjacency degrees."""

    faces: int
    edges: int
    points: int
    euler: int
    degree_sequence: tuple[int, ...]


def census(ctx) -> ComplexCensus:
    t = analysis_for(ctx)
    s = t.neighbors.points
    if len(s) != 14:
        raise ValueError("census requires a tile with 14 neighbors")
    v2 = t.level(2).vertices
    v3 = t.level(3).vertices
    degs = tuple(sorted(sum(1 for v in v2 if a in v) for a in s))
    return ComplexCensus(len(s), len(v2), len(v3),
                         len(s) - len(v2) + len(v3), degs)


# ---------------------------------------------------------------------------
# audit helpers shared by the sweep; each returns None or a failure message


def successor_paths_failure(ctx) -> str | None:
    t = analysis_for(ctx)
    g2 = t.level(2)
    for v in g2.vertices:
        _, report = _successor_hata(t, g2, v)
        if not report.is_path:
            return f"successors of {v} form {report.classification}"
    return None


def four_fold_failure(ctx) -> str | None:
    t = analysis_for(ctx)
    for v in t.level(2).vertices:
        try:
            ff = _four_fold_placement(t, v)
        except ValueError as exc:
            return str(exc)
        if len(t.level(2).out_edges(v)) > 1 and ff.first_digits[0] == ff.first_digits[1]:
            return f"branching vertex {v} has equal first digits"
    return None


def loop_chains_failure(ctx, k_max: int = 1) -> str | None:
    _check_loop_depth(k_max)
    t = analysis_for(ctx)
    for alpha in t.neighbors.points:
        for k in range(1, k_max + 1):
            msg = _loop_failure(t, alpha, k)[1]
            if msg is not None:
                return msg
    return None


def walk_points_failure(ctx) -> str | None:
    from .power import word_admissible_from

    t = analysis_for(ctx)
    pts = {}
    for v in t.level(3).vertices:
        word = t.walk(v)
        x = t.word_point(word)
        if x in pts:
            return f"{v} and {pts[x]} share the point {x}"
        pts[x] = v
        for member in v:
            if not word_admissible_from(t.boundary_graph, member, word):
                return f"walk word of {v} is not admissible from {member}"
    return None


def _loop_failure(t: TileAnalysis, alpha: Vec, k: int):
    """Shape of the depth-k loop around alpha, and why it is not a circular
    chain of distinct point links (None when it is one)."""
    h, report = boundary_loop_audit(t, alpha, k)
    shape, where = report.classification, f"loop around {alpha} at depth {k}"
    if not report.is_circular_chain:
        witness = "" if report.witness is None else f": {report.witness}"
        return shape, f"{where} is {shape}{witness}"
    msg = _loop_point_failure(h)
    return shape, None if msg is None else f"{where}: {msg}"


def _loop_point_failure(h: HataGraph) -> str | None:
    incident: dict[int, list[frozenset]] = {}
    node_keys = [p.key for p in h.nodes]
    keys = []
    for i, j, gamma in h.edges:
        if len(gamma) != 3:
            return f"link {i}-{j} is not a point"
        key = node_keys[i] | node_keys[j]
        keys.append(key)
        incident.setdefault(i, []).append(key)
        incident.setdefault(j, []).append(key)
    for i, ks in incident.items():
        if len(ks) != 2 or ks[0] == ks[1]:
            return f"piece {i} does not meet its neighbors in 2 distinct points"
    if len(set(keys)) != len(keys):
        return "a point lies in more than two pieces"
    return None


# ---------------------------------------------------------------------------
# interior-structure audit: loops, ordered face equations, check partition


class BingReport(NamedTuple):
    ok: bool
    loop_checks: tuple
    equation_checks: tuple
    partition_checks: tuple
    messages: tuple[str, ...]


def _face_order(triple: AbcTriple) -> tuple[Vec, ...]:
    """Fixed face enumeration used by the check-partition audit."""
    p, q, n, qp, nq, np_, nqp = triple.names()
    return (
        vec_neg(qp), nqp, nq, vec_neg(q), vec_neg(n), vec_neg(np_),
        p, vec_neg(p), np_, n, q, vec_neg(nq), vec_neg(nqp), qp,
    )


def _equation_failure(t: TileAnalysis, alpha: Vec) -> tuple[int, str | None]:
    """Check the ordered subdivision of one face meets only adjacently."""
    out = t.boundary_graph.out_edges(alpha)
    labeled = {}
    for e in out:
        piece = make_piece((e.dst,), e.d)
        labeled.setdefault(piece, set()).add(e.d)
    if any(len(ls) > 1 for ls in labeled.values()):
        return len(out), "two labels denote one piece"
    h = hata_graph(t, labeled.keys())
    if len(h.nodes) != len(out):
        return len(out), "children collapsed unexpectedly"
    report = classify(h)
    if len(h.nodes) > 1:
        if report.classification != "path":
            return len(out), f"children form {report.classification}"
        if any(len(gamma) != 2 for _, _, gamma in h.edges):
            return len(out), "a consecutive link is not an arc"
        label_of = {node: next(iter(labeled[node]))[0] for node in h.nodes}
        seq = [label_of[h.nodes[i]] for i in path_order(h)]
        if seq != sorted(seq) and seq != sorted(seq, reverse=True):
            return len(out), f"path does not follow the digit order: {seq}"
    return len(out), None


def bing_audit(ctx, k_max: int = 4) -> BingReport:
    """Loops are circular chains, face equations meet adjacent-only, and the
    fixed face order gives nonempty connected attachment sets.

    ctx is a family triple or a context of a family member: the face order
    is read off the triple.
    """
    _check_loop_depth(k_max)
    t = analysis_for(ctx)
    triple = t.triple
    if triple is None:
        raise ValueError("audit needs a family member")
    if not predicts_14(triple):
        raise ValueError("audit requires a 14-neighbor family member")
    messages = []

    loop_checks = []
    for alpha in t.neighbors.points:
        for k in range(1, k_max + 1):
            shape, msg = _loop_failure(t, alpha, k)
            if msg is not None:
                messages.append(msg)
            loop_checks.append((alpha, k, shape, msg is None))

    equation_checks = []
    for alpha in t.neighbors.points:
        count, msg = _equation_failure(t, alpha)
        if msg is not None:
            messages.append(f"face equation {alpha}: {msg}")
        equation_checks.append((alpha, count, msg is None, msg))

    partition_checks = []
    order = _face_order(triple)
    v2 = set(t.level(2).vertices)
    zero = (0,) * t.matrix.size
    for i in range(1, len(order)):
        alpha = order[i]
        arcs = [vertex_set((prev, alpha)) for prev in order[:i]
                if vertex_set((prev, alpha)) in v2]
        ok = bool(arcs)
        if ok:
            report = classify(hata_graph(t, [(a, zero) for a in arcs]))
            ok = report.classification != "disconnected" and report.node_count > 0
            if not ok:
                messages.append(f"attachment set {i + 1} is disconnected")
        else:
            messages.append(f"attachment set {i + 1} is empty")
        if i == len(order) - 1 and ok:
            loop_faces = {v for v in v2 if alpha in v}
            if set(arcs) != loop_faces:
                ok = False
                messages.append("final attachment set is not the full loop")
        partition_checks.append((i + 1, alpha, len(arcs), ok))

    ok = not messages
    return BingReport(ok, tuple(loop_checks), tuple(equation_checks),
                      tuple(partition_checks), tuple(messages))

