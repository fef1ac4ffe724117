"""Boundary graphs on lattice translations.

A translation alpha carries the edge alpha ->(d|d') alpha' exactly when
M alpha + d' - d = alpha', so some edge alpha -> alpha' exists iff
alpha' - M alpha lies in D - D.  The fixpoints run on that unlabeled relation:
the contact iteration closes a seed set under predecessors; the neighbor
iteration alternates Minkowski sums with removal of walk-dead vertices until
the set stabilizes.  Labeled graphs only certify the final sets.
"""

from __future__ import annotations

from array import array
from functools import cached_property, lru_cache
from operator import add, mul
from types import MappingProxyType
from typing import NamedTuple

from .lattice import (
    IntMatrix,
    Vec,
    char_poly,
    checked_record,
    vec_add,
    vec_neg,
    vec_sub,
)

MAX_ROUNDS = 64


class RoundLimitError(RuntimeError):
    """A fixpoint iteration did not settle within MAX_ROUNDS rounds."""


class LabeledEdge(NamedTuple):
    src: Vec
    dst: Vec
    d: Vec
    d_prime: Vec

    def mirrored(self) -> "LabeledEdge":
        return LabeledEdge(vec_neg(self.src), vec_neg(self.dst), self.d_prime, self.d)


class BoundaryGraph(checked_record("BoundaryGraph",
                                   "vertices edges matrix digits")):
    """Immutable labeled digraph over a finite translation set."""

    # No __slots__: the cached tables below live in the instance dict.

    def __new__(cls, vertices: tuple[Vec, ...], edges: tuple[LabeledEdge, ...],
                matrix: IntMatrix, digits: tuple[Vec, ...]):
        vset = set(vertices)
        if any(e.src not in vset or e.dst not in vset for e in edges):
            raise ValueError("edge endpoints must be vertices")
        return super().__new__(cls, vertices, edges, matrix, digits)

    @cached_property
    def _out(self) -> dict:
        out: dict[Vec, list[LabeledEdge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            out[e.src].append(e)
        return out

    def out_edges(self, v: Vec) -> tuple[LabeledEdge, ...]:
        return tuple(self._out.get(v, ()))

    @cached_property
    def digit_successors(self) -> dict:
        """(alpha, d) -> list of (dst, right digit); built once per graph."""
        table: dict[tuple[Vec, Vec], list[tuple[Vec, Vec]]] = {}
        for e in self.edges:
            table.setdefault((e.src, e.d), []).append((e.dst, e.d_prime))
        return table

    @cached_property
    def bit_tables(self) -> tuple:
        """(verts, index, out) for the level fixpoints.

        verts are the sorted vertices and index[v] the position of v in
        verts.  out[i] lists (successor index, digit mask) once for each
        distinct successor of verts[i]; bit j of the digit mask is set when
        digits[j] is the left digit of some edge from verts[i] to that
        successor.
        """
        verts = tuple(sorted(self.vertices))
        index = {v: i for i, v in enumerate(verts)}
        table = self.digit_successors
        out = []
        for v in verts:
            masks: dict[int, int] = {}
            for j, d in enumerate(self.digits):
                for dst, _ in table.get((v, d), ()):
                    i = index[dst]
                    masks[i] = masks.get(i, 0) | 1 << j
            out.append(tuple(masks.items()))
        return verts, index, out


@lru_cache(maxsize=16)
def digit_differences(digits) -> MappingProxyType:
    """D - D as a read-only table: each difference d' - d, in sorted order,
    maps to its digit pairs (d, d'); digits is a tuple of tuples.

    Cached per digit set, so the contact, neighbor and level-2 stages and
    graph building of one system build it once.  Iterating the table gives
    the differences alone.
    """
    pairs: dict[Vec, list[tuple[Vec, Vec]]] = {}
    for d in digits:
        for dp in digits:
            pairs.setdefault(vec_sub(dp, d), []).append((d, dp))
    return MappingProxyType({delta: tuple(pairs[delta])
                             for delta in sorted(pairs)})


def build_graph(gamma, matrix: IntMatrix, digits) -> BoundaryGraph:
    """Graph on gamma with every edge alpha ->(d|d') alpha' = M alpha + d' - d."""
    pts = sorted({tuple(int(x) for x in v) for v in gamma})
    digits = tuple(tuple(int(x) for x in d) for d in digits)
    pset = set(pts)
    diff_pairs = digit_differences(digits).items()
    edges: list[LabeledEdge] = []
    for a in pts:
        ma = matrix.mul_vec(a)
        for diff, pairs in diff_pairs:
            b = vec_add(ma, diff)
            if b in pset:
                for d, dp in pairs:
                    edges.append(LabeledEdge(a, b, d, dp))
    return BoundaryGraph(tuple(pts), tuple(sorted(edges)), matrix, digits)


def successor_arrays(lists) -> tuple[array, array]:
    """(offsets, targets) of the successor lists of vertices 0..n-1, the
    flat form prune_sinks takes; lists may be any iterable of lists."""
    offsets, targets = array("i", [0]), array("i")
    for out in lists:
        targets.fromlist(out)
        offsets.append(len(targets))
    return offsets, targets


def prune_sinks(offsets, targets) -> list[int]:
    """Vertices of the largest subgraph in which every vertex keeps a successor.

    The successors of vertex i are targets[offsets[i]:offsets[i + 1]], each
    an index below n = len(offsets) - 1; offsets and targets are flat int
    sequences, array('i') or list.  A vertex survives exactly when an
    infinite walk starts at it; the survivors come back as indices, in
    increasing order.

    A depth-first walk from each unseen vertex steps to the first successor
    not known to be dead.  Reaching a vertex on the walk's own path, or one
    known to be alive, makes the whole path alive; a vertex whose
    successors are all dead is dead, and the walk backs up.  So each edge is
    read at most once, and no predecessor table is built.
    """
    n = len(offsets) - 1
    state = bytearray(n)  # 0 unseen, 1 on the path, 2 alive, 3 dead
    at = offsets[:]  # the next edge each vertex on the path reads
    path = []  # the walk's vertices before v
    for root in range(n):
        if state[root]:
            continue
        v = root
        state[v] = 1
        while True:
            e, end = at[v], offsets[v + 1]
            while e < end and state[targets[e]] == 3:
                e += 1
            if e == end:
                state[v] = 3
                if not path:
                    break
                v = path.pop()
                continue
            x = targets[e]
            if state[x]:
                state[v] = 2
                for u in path:
                    state[u] = 2
                path.clear()
                break
            at[v] = e + 1
            state[x] = 1
            path.append(v)
            v = x
    return [v for v in range(n) if state[v] != 3]


def reduce(graph: BoundaryGraph) -> BoundaryGraph:
    """Largest subgraph in which every vertex keeps an outgoing edge."""
    index = {v: i for i, v in enumerate(graph.vertices)}
    alive = {graph.vertices[i] for i in prune_sinks(*successor_arrays(
        [index[e.dst] for e in graph._out[v]] for v in graph.vertices))}
    if len(alive) == len(graph.vertices):
        return graph
    kept = tuple(e for e in graph.edges if e.src in alive and e.dst in alive)
    return BoundaryGraph(tuple(v for v in graph.vertices if v in alive), kept,
                         graph.matrix, graph.digits)


def _max_abs(vectors) -> int:
    """The largest absolute value of a coordinate of the vectors."""
    return max(max(map(max, vectors)), -min(map(min, vectors)))


def _packing(matrix: IntMatrix, r: int, diffs):
    """(pack, image, packed diffs, unpack) for vectors whose coordinates are
    bounded by r in absolute value, and for their images M a + delta.

    A vector v packs to sum(v[i] * base**i), with base = 2 * (norm * r +
    max|delta|) + 3 and norm the largest absolute row sum of M.  Every
    coordinate of such a vector and of its images is then below
    base / 2 in absolute value, so each is a balanced digit of the base and
    the packing is injective on them.  Packing is linear: image(a), the pack
    of M a, is sum(a[j] * pack(M e_j)), an image M a + delta costs one
    addition, and pack(a + b) = pack(a) + pack(b).
    """
    norm = max(sum(map(abs, row)) for row in matrix.rows)
    base = 2 * (norm * r + _max_abs(diffs)) + 3
    half = base // 2
    powers = [base ** i for i in range(matrix.size)]

    def pack(v):
        return sum(map(mul, v, powers))

    cols = [pack(col) for col in zip(*matrix.rows)]

    def image(v):
        return sum(map(mul, v, cols))

    def unpack(x):
        v = []
        for _ in powers:
            digit = (x + half) % base - half
            v.append(digit)
            x = (x - digit) // base
        return tuple(v)

    return pack, image, [pack(d) for d in diffs], unpack


def _alive_packs(images: dict, packed_diffs) -> list[int]:
    """The packs a among the keys of images, which maps a to the pack of
    M a, from which an infinite walk of a -> M a + delta within the keys
    starts, delta running over the packed differences."""
    packs = list(images)
    index = {x: i for i, x in enumerate(packs)}
    get = index.get
    # Flat lists rather than arrays: the relation is rebuilt every round of
    # a fixpoint and dropped, and lists are faster to fill and to read.
    offsets, targets = [0], []
    for m in images.values():
        targets += [j for d in packed_diffs if (j := get(m + d)) is not None]
        offsets.append(len(targets))
    return [packs[i] for i in prune_sinks(offsets, targets)]


def _packed_images(points, matrix: IntMatrix, diffs):
    """(index, images, packed diffs): index maps the pack of each point
    back to it, and images maps it to the pack of M times the point."""
    pts = set(points)
    if not pts:
        return {}, {}, []
    pack, image, packed_diffs, _ = _packing(matrix, _max_abs(pts), diffs)
    index = {pack(p): p for p in pts}
    return index, {x: image(p) for x, p in index.items()}, packed_diffs


def successor_map(points, matrix: IntMatrix, diffs) -> dict[Vec, set[Vec]]:
    """a -> {M a + delta : delta in diffs} within points; with diffs = D - D
    these are the edges of build_graph(points) without their labels."""
    index, images, packed_diffs = _packed_images(points, matrix, diffs)
    keys = index.keys()
    return {index[a]: {index[b] for b in keys & [m + d for d in packed_diffs]}
            for a, m in images.items()}


def _walk_alive(points, matrix: IntMatrix, diffs) -> set[Vec]:
    """The points from which an infinite walk of successor_map starts."""
    index, images, packed_diffs = _packed_images(points, matrix, diffs)
    return {index[a] for a in _alive_packs(images, packed_diffs)}


def minkowski_sum(left, right) -> set[Vec]:
    return {tuple(map(add, a, b)) for a in left for b in right}


def default_contact_basis(matrix: IntMatrix) -> tuple[Vec, ...]:
    """Basis (1,0,0), (A,1,0), (B,A,1) read off the characteristic polynomial."""
    if matrix.size != 3:
        raise ValueError("default contact basis requires a 3x3 matrix")
    _, a, b, _ = char_poly(matrix)
    return ((1, 0, 0), (a, 1, 0), (b, a, 1))


class ContactSet(checked_record("ContactSet", "points rounds")):
    """Predecessor-closed, walk-reduced translation set around the origin."""

    __slots__ = ()

    def __new__(cls, points: tuple[Vec, ...], rounds: int):
        if (0,) * len(points[0]) not in points:
            raise ValueError("contact set must contain the origin")
        return super().__new__(cls, points, rounds)


def contact_set(matrix: IntMatrix, digits, basis=None) -> ContactSet:
    """Close {0, +-basis} under predecessors, then trim walk-dead points."""
    digits = tuple(tuple(int(x) for x in d) for d in digits)
    if basis is None:
        basis = default_contact_basis(matrix)
    basis = tuple(tuple(int(x) for x in b) for b in basis)
    zero = (0,) * matrix.size
    pts: set[Vec] = {zero}
    for b in basis:
        pts.add(b)
        pts.add(vec_neg(b))
    diffs = digit_differences(digits)
    # M k = w has an integer solution exactly when adj(M) w = 0 mod |det M|,
    # and then k = adj(M) w / det M.  So the differences are indexed by the
    # residue of adj(M) delta, and a point l looks up the deltas whose
    # residue cancels that of adj(M) l.
    det, adj = matrix.det, matrix.adjugate
    modulus = abs(det)

    def adj_mul(v):
        return tuple(sum(map(mul, row, v)) for row in adj)

    by_residue: dict[Vec, list[Vec]] = {}
    for delta in diffs:
        t = adj_mul(delta)
        by_residue.setdefault(tuple(x % modulus for x in t), []).append(t)
    # Predecessors of points already closed were found in earlier rounds,
    # so each round solves only for the points the previous round added.
    frontier = pts
    rounds = 0
    for _ in range(MAX_ROUNDS):
        found = set()
        for l in frontier:
            t = adj_mul(l)
            for s in by_residue.get(tuple(-x % modulus for x in t), ()):
                found.add(tuple((a + b) // det for a, b in zip(t, s)))
        frontier = found - pts
        if not frontier:
            break
        pts = pts | frontier
        rounds += 1
    else:
        raise RoundLimitError(f"contact stage: iteration exceeded {MAX_ROUNDS} "
                              f"rounds with {len(pts)} points")
    alive = _walk_alive(pts, matrix, diffs)
    return ContactSet(tuple(sorted(alive)), rounds)


class NeighborSet(checked_record("NeighborSet", "points rounds")):
    """Stabilized neighbor translations; origin excluded, negation-closed."""

    __slots__ = ()

    def __new__(cls, points: tuple[Vec, ...], rounds: int):
        have = set(points)
        for p in points:
            if vec_neg(p) not in have:
                raise ValueError("neighbor set must be negation-closed")
        return super().__new__(cls, points, rounds)


def neighbor_set(contact, matrix: IntMatrix, digits) -> NeighborSet:
    """Iterate S <- trim(S + S0) from S0 = contact set until stable."""
    base = tuple(contact.points) if isinstance(contact, ContactSet) else tuple(contact)
    digits = tuple(tuple(int(x) for x in d) for d in digits)
    zero = (0,) * matrix.size
    s0 = {tuple(int(x) for x in p) for p in base} | {zero}
    diffs = digit_differences(digits)
    s0_max = _max_abs(s0)
    current = set(s0)
    rounds = 0
    for _ in range(MAX_ROUNDS):
        # Each sum a + b and its image are made from the packs of a and b,
        # so the sums are never built as vectors; only survivors are.
        pack, image, packed_diffs, unpack = _packing(
            matrix, _max_abs(current) + s0_max, diffs)
        right = [(pack(b), image(b)) for b in s0]
        sums = {pa + pb: ma + mb
                for pa, ma in [(pack(a), image(a)) for a in current]
                for pb, mb in right}
        nxt = set(map(unpack, _alive_packs(sums, packed_diffs)))
        if nxt == current:
            break
        current = nxt
        rounds += 1
    else:
        raise RoundLimitError(f"neighbor stage: iteration exceeded "
                              f"{MAX_ROUNDS} rounds with {len(current)} points")
    points = tuple(sorted(current - {zero}))
    if len(_walk_alive(points, matrix, diffs)) != len(points):
        raise AssertionError("neighbor set lost walk-freeness without the origin")
    return NeighborSet(points, rounds)
