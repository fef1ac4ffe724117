"""Power graphs: walk-reduced graphs on subsets of the neighbor set.

A level-k vertex is a set of k distinct nonzero translations seen together;
an edge carries a single left digit d and pairs every member alpha with an
image sigma(alpha) through some labeled edge alpha ->(d|d') sigma(alpha) of
the base graph, sigma a bijection.  The candidates of the sink-removal
fixpoint are pruned first: a level-2 pair must differ by a translation that
can itself walk forever, and a level-k set with k > 2 must have every
(k-1)-subset alive at level k-1.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul

from .graphs import (
    BoundaryGraph,
    _alive_packs,
    _max_abs,
    _packing,
    digit_differences,
    prune_sinks,
    successor_arrays,
)
from .lattice import (
    IntMatrix,
    Vec,
    checked_record,
    det_adjugate,
    mat_pow,
    vec_add,
    vec_neg,
    vec_sub,
)

VertexSet = tuple[Vec, ...]


def vertex_set(members) -> VertexSet:
    """Canonical vertex set: sorted, distinct, origin-free, nonempty."""
    pts = sorted({tuple(int(x) for x in p) for p in members})
    if not pts:
        raise ValueError("vertex set must be nonempty")
    if any(all(x == 0 for x in p) for p in pts):
        raise ValueError("vertex set must not contain the origin")
    return tuple(pts)


def negated(vs: VertexSet) -> VertexSet:
    return tuple(sorted(vec_neg(p) for p in vs))


def _bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _pack(members, w: int) -> int:
    """The key of a vertex set from its member indices in increasing order:
    each member takes w bits, the smallest the highest, so keys of sets of
    one size sort as the sets do."""
    key = 0
    for i in members:
        key = key << w | i
    return key


def _members(key: int, k: int, w: int) -> list[int]:
    """The k member indices of a key, in increasing order."""
    mask = (1 << w) - 1
    return [key >> s & mask for s in range(w * (k - 1), -1, -w)]


def _images(out, members, w: int) -> dict[int, int]:
    """Image key -> digit mask of the set with these member indices, one
    successor each.

    The product runs over the members' out-lists (see bit_tables) and ANDs
    their digit masks as it goes: a partial choice that no one digit serves
    is dropped, and choices with the same image OR their digit masks.  A
    partial image is the key of the successors chosen so far, and each new
    successor is inserted in order; one already chosen ends the choice, so
    every image is a k-set and the members' images a bijection.
    """
    mask = (1 << w) - 1
    first, *rest = members
    images = dict(out[first])
    for t, i in enumerate(rest, 1):
        full = w * t  # the shift past all t members of a partial image
        row = out[i]
        step: dict[int, int] = {}
        for s, common in images.items():
            for b, m in row:
                m &= common
                if m:
                    # The low fields hold the larger members: move those
                    # above b below it.  The field then left equals b only
                    # if b repeats a member, or if no member is left and
                    # b is 0.
                    high, low, shift = s, 0, 0
                    while (f := high & mask) > b:
                        low |= f << shift
                        high >>= w
                        shift += w
                    if f != b or shift == full:
                        key = (high << w | b) << shift | low
                        step[key] = step.get(key, 0) | m
        images = step
    return images


def _candidates(alive, k: int, w: int) -> list[int]:
    """Keys of the k-sets all of whose (k-1)-subsets are in alive, a set of
    (k-1)-set keys, in increasing order.

    Two alive sets that differ only in their largest member join to one
    candidate, so each candidate is made once, from its two subsets that
    keep its k-2 smallest members; its other k-2 subsets are looked up.
    """
    mask = (1 << w) - 1
    groups: dict[int, list[int]] = {}
    for v in alive:
        groups.setdefault(v >> w, []).append(v & mask)
    # Dropping field f of a prefix of k-2 fields, counted from the lowest.
    cuts = [(w * (f + 1), w * f, (1 << w * f) - 1) for f in range(k - 2)]
    out = []
    for prefix, tops in groups.items():
        rest = [prefix >> up << down | prefix & low for up, down, low in cuts]
        for a, b in itertools.combinations(sorted(tops), 2):
            if all(((r << w | a) << w | b) in alive for r in rest):
                out.append((prefix << w | a) << w | b)
    out.sort()
    return out


def _survivors(out, cand, k: int, w: int) -> list[int]:
    """The keys in cand, the candidates in increasing key order, from which
    an infinite walk starts, each step going to an image (see _images) that
    is itself a candidate; they come back in the same order.

    The candidates are numbered in key order through one lookup, their
    successors are stored as flat arrays of numbers (see prune_sinks), and
    only the survivors become keys again.
    """
    number = {key: j for j, key in enumerate(cand)}
    get = number.get
    succ = successor_arrays(
        [j for j in map(get, _images(out, _members(key, k, w), w))
         if j is not None]
        for key in cand)
    del number, get  # the lookup is not needed while the walk is pruned
    return [cand[i] for i in prune_sinks(*succ)]


class PowerGraph(checked_record("PowerGraph",
                                "level vertices matrix digits")):
    """Immutable level graph; edges are (src, left digit, dst).

    The edges, sorted, are built on first read from _base, the base graph
    whose vertices the vertex sets are made of.  _base is left out of
    equality, hashing and repr; it lives in the instance dict, with the
    cached tables.  Which base-graph edges carry src onto dst is not
    stored.
    """

    def __new__(cls, level: int, vertices: tuple[VertexSet, ...],
                matrix: IntMatrix, digits: tuple[Vec, ...],
                _base: BoundaryGraph):
        self = super().__new__(cls, level, vertices, matrix, digits)
        self.__dict__["_base"] = _base
        return self

    def __getnewargs__(self):
        return (*self, self._base)

    @cached_property
    def edges(self) -> tuple[tuple[VertexSet, Vec, VertexSet], ...]:
        return _label_edges(self._base, self.vertices)

    @cached_property
    def _out(self) -> dict:
        out: dict[VertexSet, list] = {v: [] for v in self.vertices}
        for src, d, dst in self.edges:
            out[src].append((d, dst))
        return out

    @cached_property
    def _vertex_set(self) -> frozenset:
        return frozenset(self.vertices)

    def out_edges(self, v: VertexSet) -> tuple[tuple[Vec, VertexSet], ...]:
        return tuple(self._out.get(v, ()))

    def has_vertex(self, v: VertexSet) -> bool:
        return v in self._vertex_set


def _label_edges(base: BoundaryGraph, vertices) -> tuple:
    """Every (src, d, dst) between the given vertex sets, sorted by vertex
    set and digit value."""
    verts, index, out = base.bit_tables
    w = len(verts).bit_length()
    members = {v: [index[x] for x in v] for v in vertices}
    alive = {_pack(ix, w): v for v, ix in members.items()}
    digits = base.digits
    edges = []
    for src, ix in members.items():
        for image, digit_mask in _images(out, ix, w).items():
            dst = alive.get(image)
            if dst is not None:
                edges.extend((src, digits[j], dst)
                             for j in _bit_indices(digit_mask))
    edges.sort()
    return tuple(edges)


def _pairs(base: BoundaryGraph, alive, w: int) -> list[int]:
    """Level-2 candidates: the keys, in increasing order, of the pairs
    {a, a + c} of alive level-1 vertices, given by index, whose difference
    c can walk forever.

    An edge {a, b} -> {a', b'} of the level-2 graph reads one left digit d
    on both members, so with every base edge dst = M src + d' - d the
    difference c = b - a steps to c' = b' - a' = M c + delta, delta in
    D - D, and c' != 0.  An infinite level-2 walk therefore gives an
    infinite walk of nonzero differences in V - V, and sink-pruning that
    relation first leaves every level-2 vertex among the candidates.
    Packing is linear, so pack(b) - pack(a) and image(b) - image(a) are the
    pack and image of b - a.  Both orientations of each difference are in
    the relation, and it commutes with negation, so c can walk forever
    exactly when -c can: each pair is made once, from its lower member.  As
    a + c may exceed the packing's bound, p + c may name another member x;
    then x - c names a, so such an extra pair is made once too, and it only
    adds a candidate, which the fixpoint prunes.
    """
    verts = base.bit_tables[0]
    members = [verts[i] for i in alive]
    if not members:
        return []
    pack, image, packed_diffs, _ = _packing(
        base.matrix, 2 * _max_abs(members), digit_differences(base.digits))
    packed = [(pack(v), image(v)) for v in members]
    diffs = {pb - pa: ib - ia for pa, ia in packed
             for pb, ib in packed if pa != pb}
    live = _alive_packs(diffs, packed_diffs)
    at = {p: i for (p, _), i in zip(packed, alive)}
    get = at.get
    pairs = [i << w | j for p, i in at.items() for c in live
             if (j := get(p + c)) is not None and i < j]
    pairs.sort()
    return pairs


def power_graph(base: BoundaryGraph, level: int,
                start: PowerGraph | None = None) -> PowerGraph:
    """Level graph on size-`level` subsets of the base graph's vertex set.

    The fixpoint keys each vertex set by its member indices in the sorted
    base vertices, packed into one int (see _pack), numbers each level's
    candidates 0..n-1 (see _survivors), and keeps no labels; the returned
    graph labels its edges when they are read.  start, a lower level graph
    of the same base, resumes the fixpoint from its vertices instead of
    from level 1.  Level 2 takes its candidates from _pairs, which needs
    every base edge to satisfy dst = M src + d' - d, as build_graph's do.
    """
    if level < 1:
        raise ValueError("level must be at least 1")
    verts, index, out = base.bit_tables
    w = len(verts).bit_length()
    if start is None:
        first, alive = 1, None
    elif start._base is not base or not 1 <= start.level < level:
        raise ValueError("start must be a lower level graph of the same base")
    else:
        first = start.level + 1
        alive = [_pack([index[x] for x in v], w) for v in start.vertices]
    origin = index.get((0,) * base.matrix.size)
    for k in range(first, level + 1):
        if alive is None:
            cand = range(len(verts))
        elif k == 2:
            if origin in alive and len(alive) > 1:
                raise ValueError("vertex set must not contain the origin")
            cand = _pairs(base, alive, w)
        else:
            cand = _candidates(set(alive), k, w)
        alive = _survivors(out, cand, k, w)

    # Keys sort as their vertex sets do, since verts is sorted.
    vertices = tuple(tuple(verts[i] for i in _members(key, level, w))
                     for key in alive)
    return PowerGraph(level, vertices, base.matrix, base.digits, base)


def intersection_vertex(beta1: VertexSet, a1: Vec, beta2: VertexSet, a2: Vec,
                        is_vertex) -> VertexSet | None:
    """Vertex set describing (B_beta1 + a1) ∩ (B_beta2 + a2), or None.

    The candidate is the union of both translate families seen from the first
    piece's frame; is_vertex(level, candidate) decides whether that candidate
    actually supports an infinite walk.
    """
    delta = vec_sub(a2, a1)
    zero = (0,) * len(delta)
    members = set(beta1)
    members.update(vec_add(b, delta) for b in beta2)
    members.add(delta)
    members.discard(zero)
    gamma = tuple(sorted(members))
    return gamma if is_vertex(len(gamma), gamma) else None


class DigitWord(checked_record("DigitWord", "preperiod period")):
    """Eventually periodic digit word; stored in canonical form.

    The period is primitive (not a repetition of a shorter word) and the
    preperiod is minimal: trailing preperiod digits equal to the period's
    tail are rolled into the period's phase, which leaves the infinite word
    unchanged.
    """

    __slots__ = ()

    def __new__(cls, preperiod: tuple[Vec, ...], period: tuple[Vec, ...]):
        pre = tuple(tuple(int(x) for x in d) for d in preperiod)
        per = tuple(tuple(int(x) for x in d) for d in period)
        if not per:
            raise ValueError("period must be nonempty")
        for k in range(1, len(per)):
            if len(per) % k == 0 and per == per[:k] * (len(per) // k):
                per = per[:k]
                break
        while pre and pre[-1] == per[-1]:
            per = (per[-1],) + per[:-1]
            pre = pre[:-1]
        return super().__new__(cls, pre, per)


def unique_walk(graph: PowerGraph, start: VertexSet) -> DigitWord:
    """Digit word of the single walk from start; errors on any branching."""
    if not graph.has_vertex(start):
        raise ValueError(f"{start} is not a vertex of the level-{graph.level} graph")
    max_steps = len(graph.vertices) + 1
    seen: dict[VertexSet, int] = {}
    labels: list[Vec] = []
    v = start
    for _ in range(max_steps + 1):
        if v in seen:
            i = seen[v]
            return DigitWord(tuple(labels[:i]), tuple(labels[i:]))
        seen[v] = len(labels)
        out = graph.out_edges(v)
        if len(out) != 1:
            raise ValueError(
                f"walk is not unique: vertex {v} has {len(out)} outgoing edges"
            )
        d, v = out[0]
        labels.append(d)
    raise RuntimeError("walk failed to close within the step budget")


@lru_cache(maxsize=64)
def _period_system(rows, p: int):
    """K = M^p - I for the matrix with these rows, det K and adj(K)."""
    k = tuple(tuple(x - (i == j) for j, x in enumerate(r))
              for i, r in enumerate(mat_pow(rows, p)))
    det, adj = det_adjugate(k)
    if det == 0:
        raise ValueError("matrix is singular")
    return k, det, adj


def walk_point(word: DigitWord, matrix: IntMatrix) -> tuple[Fraction, ...]:
    """Exact point addressed by the word: x = sum_k M^-k d_k.

    The periodic point solves K x = c with K = M^p - I, so x = adj(K) c /
    det K; each preperiod digit d maps x to M^-1 (x + d) = adj(M)(x + d) /
    det M.  Numerators stay integral over one common denominator, and only
    the result is made of Fractions.
    """
    c = (0,) * matrix.size
    for d in word.period:
        c = vec_add(matrix.mul_vec(c), d)
    k, den, adj = _period_system(matrix.rows, len(word.period))
    num = tuple(sum(map(mul, r, c)) for r in adj)
    if tuple(sum(map(mul, r, num)) for r in k) != tuple(den * v for v in c):
        raise AssertionError("periodic point must satisfy its fixed-point equation")
    for d in reversed(word.preperiod):
        shifted = tuple(x + den * y for x, y in zip(num, d))
        num = tuple(sum(map(mul, r, shifted)) for r in matrix.adjugate)
        den *= matrix.det
    return tuple(Fraction(x, den) for x in num)


def word_admissible_from(base: BoundaryGraph, start: Vec, word: DigitWord) -> bool:
    """True iff the infinite word labels some infinite walk from start.

    Runs the subset construction along the word; once inside the period,
    a repeated (phase, state set) pair proves an infinite walk exists.
    """
    succ = base.digit_successors

    def step(states, d):
        out = set()
        for s in states:
            for dst, _ in succ.get((s, d), ()):
                out.add(dst)
        return frozenset(out)

    states = frozenset([tuple(int(x) for x in start)])
    for d in word.preperiod:
        states = step(states, d)
        if not states:
            return False
    seen = set()
    while True:
        key = states
        if key in seen:
            return True
        seen.add(key)
        for d in word.period:
            states = step(states, d)
            if not states:
                return False


def subdivide(graph: PowerGraph, pieces, steps: int) -> tuple:
    """Expand (vertex, shift) pieces through `steps` rounds of children.

    The child of B_v + s along the edge (d, dst) is B_dst + M s + d, one
    scale finer; each piece's children follow it in sorted out-edge order.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    frontier = tuple(pieces)
    for _ in range(steps):
        frontier = tuple((dst, vec_add(graph.matrix.mul_vec(s), d))
                         for v, s in frontier
                         for d, dst in sorted(graph.out_edges(v)))
    return frontier
