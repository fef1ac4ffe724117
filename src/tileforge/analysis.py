"""Per-tile analysis context: one place that builds and caches everything.

A TileAnalysis owns the exact pipeline for a single family member: companion
matrix and digits, contact set, neighbor set, the boundary graph on the
neighbors, and the level graphs.  Audits and exports share one context so the
expensive structures are computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .graphs import (
    BoundaryGraph,
    ContactSet,
    NeighborSet,
    build_graph,
    contact_set,
    neighbor_set,
)
from .lattice import IntMatrix, Vec, companion_form, vec_add, vec_sub
from .power import (
    DigitWord,
    PowerGraph,
    VertexSet,
    intersection_vertex,
    power_graph,
    unique_walk,
    walk_point,
)


@dataclass(frozen=True)
class AbcTriple:
    """Family parameters with 1 <= A <= B < C."""

    A: int
    B: int
    C: int

    def __post_init__(self):
        a, b, c = int(self.A), int(self.B), int(self.C)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "C", c)
        if not 1 <= a <= b < c:
            raise ValueError("parameters must satisfy 1 <= A <= B < C")

    @property
    def p(self) -> Vec:
        return (1, 0, 0)

    @property
    def q(self) -> Vec:
        return (self.A, 1, 0)

    @property
    def n(self) -> Vec:
        return (self.B, self.A, 1)

    def names(self) -> tuple[Vec, ...]:
        """The contact directions p, q, n, q-p, n-q, n-p and n-q+p."""
        p, q, n = self.p, self.q, self.n
        qp = vec_sub(q, p)
        nq = vec_sub(n, q)
        np_ = vec_sub(n, p)
        nqp = vec_add(nq, p)
        return p, q, n, qp, nq, np_, nqp


def as_triple(p) -> AbcTriple:
    """p itself when it is an AbcTriple, else AbcTriple(*p)."""
    return p if isinstance(p, AbcTriple) else AbcTriple(*p)


def predicts_14(triple) -> bool:
    """Closed-form test for a 14-member neighbor set."""
    triple = as_triple(triple)
    a, b, c = triple.A, triple.B, triple.C
    if not a < b:
        return False
    if b >= 2 * a - 1:
        return c >= 2 * (b - a) + 2
    return c >= a + b - 2


class TileAnalysis:
    """Lazily computed exact structures for one family member."""

    def __init__(self, triple: AbcTriple):
        self.triple = triple
        self.matrix, self.digits = companion_form([1, triple.A, triple.B, triple.C])
        self._levels: dict[int, PowerGraph] = {}

    @cached_property
    def contact(self) -> ContactSet:
        return contact_set(self.matrix, self.digits)

    @cached_property
    def neighbors(self) -> NeighborSet:
        return neighbor_set(self.contact, self.matrix, self.digits)

    @cached_property
    def boundary_graph(self) -> BoundaryGraph:
        """The labeled graph on the neighbor set itself."""
        return build_graph(self.neighbors.points, self.matrix, self.digits)

    @cached_property
    def contact_graph(self) -> BoundaryGraph:
        """The labeled graph on the origin-free contact set."""
        zero = (0,) * self.matrix.size
        pts = tuple(p for p in self.contact.points if p != zero)
        return build_graph(pts, self.matrix, self.digits)

    def level(self, k: int) -> PowerGraph:
        if k not in self._levels:
            self._levels[k] = power_graph(self.boundary_graph, k)
        return self._levels[k]

    def is_vertex(self, k: int, candidate: VertexSet) -> bool:
        if k < 1 or k > len(self.neighbors.points):
            return False
        return self.level(k).has_vertex(candidate)

    def intersection(self, beta1: VertexSet, a1: Vec,
                     beta2: VertexSet, a2: Vec) -> VertexSet | None:
        """Vertex set of (B_beta1 + a1) ∩ (B_beta2 + a2), or None if empty."""
        return intersection_vertex(beta1, a1, beta2, a2, self.is_vertex)

    def walk(self, vertex: VertexSet) -> DigitWord:
        return unique_walk(self.level(len(vertex)), vertex)

    def point_of(self, vertex: VertexSet):
        return walk_point(self.walk(vertex), self.matrix)


@lru_cache(maxsize=None)
def _analysis_cached(a: int, b: int, c: int) -> TileAnalysis:
    return TileAnalysis(AbcTriple(a, b, c))


def analysis_for(obj) -> TileAnalysis:
    """obj itself when it is a TileAnalysis, else the shared, cached context
    of a triple or (A, B, C) tuple."""
    if isinstance(obj, TileAnalysis):
        return obj
    triple = as_triple(obj)
    return _analysis_cached(triple.A, triple.B, triple.C)
