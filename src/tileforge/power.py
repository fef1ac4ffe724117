"""Power graphs: walk-reduced graphs on subsets of the neighbor set.

A level-k vertex is a set of k distinct nonzero translations seen together;
an edge carries a single left digit d and pairs every member alpha with an
image sigma(alpha) through some labeled edge alpha ->(d|d') sigma(alpha) of
the base graph, sigma a bijection.  Level-k vertices exist only where every
(k-1)-subset survives at level k-1, which prunes the candidate space before
the sink-removal fixpoint runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .graphs import BoundaryGraph, prune_sinks
from .lattice import IntMatrix, Vec, mat_pow, vec_add, vec_neg, vec_sub

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


@dataclass(frozen=True)
class PowerGraph:
    """Immutable level graph; edges are (src, left digit, dst).

    Which base-graph edges carry src onto dst is not stored.
    """

    level: int
    vertices: tuple[VertexSet, ...]
    edges: tuple[tuple[VertexSet, Vec, VertexSet], ...]
    matrix: IntMatrix
    digits: tuple[Vec, ...]
    _out: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        out: dict[VertexSet, list] = {v: [] for v in self.vertices}
        for src, d, dst in self.edges:
            out[src].append((d, dst))
        object.__setattr__(self, "_out", out)

    def out_edges(self, v: VertexSet) -> tuple[tuple[Vec, VertexSet], ...]:
        return tuple(self._out.get(v, ()))

    def has_vertex(self, v: VertexSet) -> bool:
        return v in self._out

    def symmetry_defects(self) -> tuple:
        """Edges whose mirror -src ->(reversed digit) -dst is absent.

        The digit reversal pairs digits[i] with digits[-1-i]; meaningful for
        collinear digit sets ordered along their direction.
        """
        index = {d: i for i, d in enumerate(self.digits)}
        have = set(self.edges)
        bad = []
        for src, d, dst in self.edges:
            mirror_d = self.digits[len(self.digits) - 1 - index[d]]
            if (negated(src), mirror_d, negated(dst)) not in have:
                bad.append((src, d, dst))
        return tuple(bad)


def power_graph(base: BoundaryGraph, level: int) -> PowerGraph:
    """Level graph on size-`level` subsets of the base graph's vertex set."""
    if level < 1:
        raise ValueError("level must be at least 1")
    members = list(base.vertices)
    succ = base.digit_successors
    digits = base.digits

    prev: list[VertexSet] | None = None
    for k in range(1, level + 1):
        if k == 1:
            candidates = [(v,) for v in members]
        elif k == 2:
            alive = [v[0] for v in prev]
            candidates = [vertex_set(c) for c in itertools.combinations(alive, 2)]
        else:
            prev_set = set(prev)
            cand_set = set()
            for v in prev:
                for x in members:
                    if x in v:
                        continue
                    cand = tuple(sorted(v + (x,)))
                    if cand in cand_set:
                        continue
                    if all(cand[:i] + cand[i + 1:] in prev_set for i in range(k)):
                        cand_set.add(cand)
            candidates = sorted(cand_set)
        succ_sets = {v: set() for v in candidates}
        edges = set()
        for src in candidates:
            for d in digits:
                target_lists = []
                for a in src:
                    targets = succ.get((a, d))
                    if not targets:
                        break
                    target_lists.append(targets)
                else:
                    for combo in itertools.product(*target_lists):
                        dst_members = tuple(t[0] for t in combo)
                        if len(set(dst_members)) != k:
                            continue
                        dst = tuple(sorted(dst_members))
                        if dst in succ_sets:
                            edges.add((src, d, dst))
                            succ_sets[src].add(dst)
        alive = prune_sinks(succ_sets)
        prev = sorted(alive)
        last_edges = sorted(e for e in edges if e[0] in alive and e[2] in alive)

    return PowerGraph(level, tuple(prev), tuple(last_edges), base.matrix, digits)


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


@dataclass(frozen=True)
class DigitWord:
    """Eventually periodic digit word; stored in canonical form.

    The period is primitive (not a repetition of a shorter word) and the
    preperiod is minimal: trailing preperiod digits equal to the period's
    tail are rolled into the period's phase, which leaves the infinite word
    unchanged.
    """

    preperiod: tuple[Vec, ...]
    period: tuple[Vec, ...]

    def __post_init__(self):
        pre = tuple(tuple(int(x) for x in d) for d in self.preperiod)
        per = tuple(tuple(int(x) for x in d) for d in self.period)
        if not per:
            raise ValueError("period must be nonempty")
        for k in range(1, len(per)):
            if len(per) % k == 0 and per == per[:k] * (len(per) // k):
                per = per[:k]
                break
        while pre and pre[-1] == per[-1]:
            per = (per[-1],) + per[:-1]
            pre = pre[:-1]
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)


def unique_walk(graph: PowerGraph, start: VertexSet,
                max_steps: int | None = None) -> DigitWord:
    """Digit word of the single walk from start; errors on any branching."""
    if not graph.has_vertex(start):
        raise ValueError(f"{start} is not a vertex of the level-{graph.level} graph")
    if max_steps is None:
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


def walk_point(word: DigitWord, matrix: IntMatrix) -> tuple[Fraction, ...]:
    """Exact point addressed by the word: x = sum_k M^-k d_k."""
    c = (0,) * matrix.size
    for d in word.period:
        c = vec_add(matrix.mul_vec(c), d)
    # K = M^p - I, multiplied as rows so the constructor's check runs once.
    k = IntMatrix(tuple(
        tuple(x - (i == j) for j, x in enumerate(r))
        for i, r in enumerate(mat_pow(matrix.rows, len(word.period)))))
    x = k.solve_fraction(c)
    check = tuple(sum(Fraction(r[j]) * x[j] for j in range(matrix.size))
                  for r in k.rows)
    if check != tuple(Fraction(v) for v in c):
        raise AssertionError("periodic point must satisfy its fixed-point equation")
    for d in reversed(word.preperiod):
        x = matrix.solve_fraction(vec_add(x, d))
    return x


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


@dataclass(frozen=True)
class SubtileRef:
    """Piece of a boundary set after depth-1 subdivision steps.

    The piece denoted is M^-(depth-1) (B_vertex + shift(word)) where word
    lists the left digits of the walk from the root.
    """

    depth: int
    word: tuple[Vec, ...]
    vertex: VertexSet

    def __post_init__(self):
        if self.depth < 1 or len(self.word) != self.depth - 1:
            raise ValueError("word length must equal depth - 1")


def ref_shift(matrix: IntMatrix, word) -> Vec:
    """Accumulated translation of a walk word in the piece's own scale."""
    c = (0,) * matrix.size
    for d in word:
        c = vec_add(matrix.mul_vec(c), d)
    return c


def piece_key(vertex: VertexSet, shift: Vec) -> frozenset:
    """Identity of a piece as the set of tiles it lies in (same-scale frame)."""
    return frozenset((shift,) + tuple(vec_add(b, shift) for b in vertex))


def subdivide(graph: PowerGraph, ref: SubtileRef, steps: int) -> tuple[SubtileRef, ...]:
    """Expand a piece through `steps` rounds of one-step walk children."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    frontier = [ref]
    for _ in range(steps):
        nxt = []
        for r in frontier:
            for d, dst in sorted(graph.out_edges(r.vertex)):
                nxt.append(SubtileRef(r.depth + 1, r.word + (d,), dst))
        frontier = nxt
    return tuple(frontier)
