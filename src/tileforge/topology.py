"""Combinatorial audits of the boundary complex.

Pieces of the boundary are handled purely symbolically: a piece is the set of
tiles it lies in, so two pieces intersect exactly when the union of their
tile families, seen from one piece's frame, is a vertex of the level graph of
the right size.  All Hata graphs here compare pieces at one common scale.
"""

from __future__ import annotations

from typing import NamedTuple

from .analysis import TileAnalysis, analysis_for
from .lattice import Vec, int_vector, vec_add, vec_neg, vec_sub
from .power import VertexSet, subdivide, vertex_set


class Piece(NamedTuple):
    """Same-scale boundary piece, canonically framed by its tile family."""

    vertex: VertexSet
    shift: Vec


def make_piece(vertex, shift) -> Piece:
    """Canonical piece: reframe so the shift is the smallest family member."""
    shift = tuple(shift)
    tiles = {shift, *(vec_add(b, shift) for b in vertex)}
    base = min(tiles)
    members = tuple(sorted(vec_sub(t, base) for t in tiles if t != base))
    return Piece(members, base)


class HataGraph(NamedTuple):
    """Undirected intersection graph of same-scale pieces."""

    nodes: tuple[Piece, ...]
    edges: tuple[tuple[int, int, VertexSet], ...]

    def adjacency(self) -> dict[int, list[int]]:
        """Each node's index and the indices of the nodes it is linked to."""
        adj: dict[int, list[int]] = {i: [] for i in range(len(self.nodes))}
        for i, j, _ in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj


def hata_graph(ctx, pieces) -> HataGraph:
    """Intersection graph of pieces given as (vertex, shift) pairs, Pieces
    included; every piece is canonicalised, so one piece is one node.

    Two pieces can meet only if their shifts differ by 0 or a neighbor, so
    the pieces are paired through the offsets of each distinct shift, not
    by scanning all pairs: the loop around one neighbor of (6,8,12) has 2,040 pieces at
    depth 4 and 11,256 at depth 5, so 2.1 and 63 million pairs.  The
    intersection of B_v + a and B_w + a + off does not depend on a, so each
    link is decided once per context and kept in t.links under (v, off, w),
    None included: a link decided for one pair of pieces holds for every
    translate of the pair.
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
    adj = h.adjacency()
    deg = [len(adj[i]) for i in range(n)]
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
    # A point link is where m + 1 tiles of R^m meet: a vertex set of size m.
    m = len(h.nodes[0].shift)
    bad = next((e for e in h.edges if len(e[2]) != m), None)
    if all(d == 2 for d in deg) and n >= 3:
        if n >= 4 and bad is None:
            return ChainReport("circular_chain", n, len(h.edges))
        note = None if bad is None else f"link {bad[0]}-{bad[1]} is not a point"
        if n < 4:
            note = "fewer than 4 pieces"
        return ChainReport("cycle", n, len(h.edges), note)
    if all(d <= 2 for d in deg) and len(h.edges) == n - 1:
        if n == 1:
            return ChainReport("path", 1, 0)
        if bad is None:
            return ChainReport("regular_chain", n, len(h.edges))
        return ChainReport("path", n, len(h.edges),
                           f"link {bad[0]}-{bad[1]} is not a point")
    return ChainReport("connected", n, len(h.edges), "degree above 2")


def path_order(h: HataGraph) -> list[int]:
    """Node indices along a path-shaped Hata graph."""
    n = len(h.nodes)
    if n == 1:
        return [0]
    adj = h.adjacency()
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
    """Hata graph of the children of a level vertex: B_dst + d for each out
    edge (d, dst), as subdivide makes them."""
    t = analysis_for(ctx)
    vs = vertex_set(alpha_set)
    g = t.level(len(vs))
    if not g.has_vertex(vs):
        raise ValueError(f"{vs} is not a level-{len(vs)} vertex")
    zero = (0,) * t.matrix.size
    h = hata_graph(t, subdivide(g, [(vs, zero)], 1))
    return h, classify(h)


# Per depth, a loop grows in pieces by about the mean level-2 out-degree:
# 2.5 on (1,2,4), and 6.5 on the worst member, (6,8,12), whose 14 loops
# hold 72 / 468 / 2,844 / 15,912 pieces at depths 1 to 4.  Its loop audit,
# which walks one loop of each pair around ±alpha, takes 0.001 / 0.006 /
# 0.029 / 0.164 s of CPU for k_max 1 to 4 once levels 2 and 3 are built
# (median of 5 on a 2-vCPU VM, Python 3.11.7).
# Depths above this bound are refused rather than run.
MAX_LOOP_DEPTH = 6


def _check_loop_depth(k: int) -> None:
    """Reject a loop depth outside 1..MAX_LOOP_DEPTH."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k > MAX_LOOP_DEPTH:
        raise ValueError(f"k must be at most {MAX_LOOP_DEPTH}")


def boundary_loop_pieces(ctx, alpha: Vec, k: int = 1) -> tuple:
    """Depth-k pieces of the closed piece loop around one neighbor."""
    _check_loop_depth(k)
    t = analysis_for(ctx)
    alpha = int_vector(alpha, "neighbor")
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
    """The two level-3 vertices enclosing a level-2 vertex, and for each the
    child (d, dst) of the level-2 vertex that holds it."""

    pair: tuple[VertexSet, VertexSet]
    children: tuple[tuple[Vec, VertexSet], tuple[Vec, VertexSet]]


def four_fold_placement(ctx, alpha_set) -> FourFold:
    """Exactly two triple points bound the arc vs; returns them with the
    children that hold them.  The child B_v' + d, one out-edge (d, v'),
    holds the triple point w when w's single step w ->(d) w' reads the same
    digit and v' lies in w'; exactly one child may hold w.  A vs that is
    not a level-2 vertex is refused."""
    t = analysis_for(ctx)
    vs = vertex_set(alpha_set)
    g2, g3 = t.level(2), t.level(3)
    if not g2.has_vertex(vs):
        raise ValueError(f"{vs} is not a level-2 vertex")
    members = set(vs)
    supersets = [w for w in g3.vertices if members.issubset(w)]
    if len(supersets) != 2:
        raise ValueError(f"{vs} lies in {len(supersets)} level-3 vertices, not 2")
    children = []
    for w in supersets:
        steps = g3.out_edges(w)
        if len(steps) != 1:
            raise ValueError(f"{w} has {len(steps)} out-edges, not 1")
        (dw, w_next), = steps
        held = [(d, v) for d, v in g2.out_edges(vs)
                if d == dw and set(v).issubset(w_next)]
        if len(held) != 1:
            raise ValueError(f"{w} lies in {len(held)} children of {vs}, not 1")
        children.append(held[0])
    return FourFold((supersets[0], supersets[1]), (children[0], children[1]))


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


def least_framings(vertices) -> list[VertexSet]:
    """The level vertices, in their order, that are least among their
    reframings: v ∪ {0} seen from its member a is v_a = {−a} ∪ {b − a :
    b ∈ v, b ≠ a}.  The audits check one framing per orbit, since one
    framing decides the others.

    An edge v ->(d) w pairs each member b with σ(b) = M b + d_b − d, and
    the digits read off the subtiles {d} ∪ {M b + d_b} fix σ.  Then
    v_a ->(d_a) w_σ(a), since M(b − a) + d_b − d_a = σ(b) − σ(a) and
    M(−a) + d − d_a = −σ(a); the differences lie in S, every nonzero
    point with an infinite walk.  So reframing is a bijection of out-edges,
    and the children of v_a at shift a are those of v, tile for tile; at
    shift 0 they are translated by −M a.  The faces around −α are the
    reframings of those around α, so the loops around ±α agree likewise at
    every depth.  hata_graph is translation-invariant: lex order survives
    a translation and t.links is keyed by (vertex, offset, vertex).  So
    it gives the same edges and node order, and classify and
    _loop_point_failure the same report, for every framing.  Given the
    vertices in sorted order, an orbit's least member comes first, so the
    first failure an audit names, and its text, do not depend on this.
    """
    return [v for v in vertices
            if all(v < _reframed(v, a) for a in v)]


def _reframed(v: VertexSet, a: Vec) -> VertexSet:
    """v ∪ {0} seen from its member a."""
    return tuple(sorted([vec_neg(a), *(vec_sub(b, a) for b in v if b != a)]))


def successor_paths_failure(ctx) -> str | None:
    t = analysis_for(ctx)
    if not (arcs := least_framings(t.level(2).vertices)):
        return "level 2 is empty: no arc has successors to check"
    for v in arcs:
        _, report = successor_hata(t, v)
        if not report.is_path:
            return f"successors of {v} form {report.classification}"
    return None


def four_fold_failure(ctx) -> str | None:
    t = analysis_for(ctx)
    if not (arcs := least_framings(t.level(2).vertices)):
        return "level 2 is empty: no arc has triple points to place"
    for v in arcs:
        try:
            ff = four_fold_placement(t, v)
        except ValueError as exc:
            return str(exc)
        if len(t.level(2).out_edges(v)) > 1 and ff.children[0] == ff.children[1]:
            return f"branching vertex {v} has both triple points in one child"
    return None


def loop_chains_failure(ctx, k_max: int = 1) -> str | None:
    """Why the depth-k loop around some neighbor alpha, k = 1, ..., k_max,
    is not a circular chain of distinct point links; the first such loop
    is named.  The loop around −alpha is that around alpha, translated.
    A neighbor with no loop fails with boundary_loop_pieces' refusal."""
    _check_loop_depth(k_max)
    t = analysis_for(ctx)
    for (alpha,) in least_framings([(a,) for a in t.neighbors.points]):
        for k in range(1, k_max + 1):
            try:
                h, report = boundary_loop_audit(t, alpha, k)
            except ValueError as exc:
                return str(exc)
            where = f"loop around {alpha} at depth {k}"
            if not report.is_circular_chain:
                witness = ("" if report.witness is None
                           else f": {report.witness}")
                return f"{where} is {report.classification}{witness}"
            if (msg := _loop_point_failure(h)) is not None:
                return f"{where}: {msg}"
    return None


def walk_points_failure(ctx) -> str | None:
    # Imported here so that a wrap of power.word_admissible_from, such as
    # perfbench's call counter, sees every call; a module-level name would
    # keep the unwrapped function.
    from .power import word_admissible_from

    t = analysis_for(ctx)
    if not (triples := t.level(3).vertices):
        return "level 3 is empty: no triple point to walk"
    pts = {}
    for v in triples:
        try:
            word = t.walk(v)
        except ValueError as exc:
            return str(exc)
        x = t.word_point(word)
        if x in pts:
            return f"{v} and {pts[x]} share the point {x}"
        pts[x] = v
        for member in v:
            if not word_admissible_from(t.boundary_graph, member, word):
                return f"walk word of {v} is not admissible from {member}"
    return None


def _loop_point_failure(h: HataGraph) -> str | None:
    """Why a circular chain's links are not distinct points, or None; as
    classify has checked, every link is a point and every piece on two.
    hata_graph decides the link of pieces i < j in piece i's frame, so the
    point is the canonical piece of gamma at piece i's shift."""
    incident: dict[int, list[Piece]] = {}
    points = []
    for i, j, gamma in h.edges:
        point = make_piece(gamma, h.nodes[i].shift)
        points.append(point)
        incident.setdefault(i, []).append(point)
        incident.setdefault(j, []).append(point)
    for i, (a, b) in incident.items():
        if a == b:
            return f"piece {i} does not meet its neighbors in 2 distinct points"
    if len(set(points)) != len(points):
        return "a point lies in more than two pieces"
    return None


# ---------------------------------------------------------------------------
# Bing's two checks of the faces


def face_equations_failure(ctx) -> str | None:
    """Why the children of some face, one per out-edge of its level-1
    vertex, do not form a path of arcs in the order of their digits.  The
    arcs and the digit order are those of a 3-D family member."""
    t = analysis_for(ctx)
    if t.triple is None:
        raise ValueError("the face equations need a family member")
    for alpha in t.neighbors.points:
        if (msg := _equation_failure(t, alpha)) is not None:
            return f"face equation {alpha}: {msg}"
    return None


def _equation_failure(t: TileAnalysis, alpha: Vec) -> str | None:
    """Check the ordered subdivision of one face meets only adjacently.
    Each child B_dst + d, as subdivide makes it, is labelled by its digit
    d, its shift before canonicalisation."""
    zero = (0,) * t.matrix.size
    children = subdivide(t.level(1), [((alpha,), zero)], 1)
    digit = {make_piece(dst, d): d for dst, d in children}
    if len(digit) != len(children):
        return "two labels denote one piece"
    h = hata_graph(t, digit.keys())
    report = classify(h)
    if len(h.nodes) > 1:
        if report.classification != "path":
            return f"children form {report.classification}"
        if any(len(gamma) != 2 for _, _, gamma in h.edges):
            return "a consecutive link is not an arc"
        seq = [digit[h.nodes[i]][0] for i in path_order(h)]
        if seq != sorted(seq) and seq != sorted(seq, reverse=True):
            return f"path does not follow the digit order: {seq}"
    return None


def attachment_failure(ctx, order) -> str | None:
    """Why, in the given order of the faces, some face's attachment set
    (its arcs with the faces before it) is empty or disconnected.  The
    order must list every neighbor once, or ValueError is raised; so the
    last face's set is every arc it lies on, its whole loop."""
    t = analysis_for(ctx)
    faces = [int_vector(a, "face") for a in order]
    if sorted(faces) != sorted(t.neighbors.points):
        raise ValueError("a face order lists every neighbor exactly once")
    v2 = set(t.level(2).vertices)
    zero = (0,) * t.matrix.size
    for i in range(1, len(faces)):
        alpha = faces[i]
        arcs = [arc for prev in faces[:i]
                if (arc := vertex_set((prev, alpha))) in v2]
        if not arcs:
            return f"attachment set {i + 1} of face {alpha} is empty"
        report = classify(hata_graph(t, [(a, zero) for a in arcs]))
        if report.classification == "disconnected":
            return (f"attachment set {i + 1} of face {alpha} is "
                    f"disconnected: {report.witness}")
    return None
