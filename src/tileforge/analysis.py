"""Per-tile analysis context: one place that builds and caches everything.

A TileAnalysis owns the exact pipeline for one validated system (M, D) and
contact seed basis: contact set, neighbor set, the boundary graph on the
neighbors, and the level graphs.  A context reads its (A, B, C) family
member, if it is one, off (M, D).  Audits and exports share one context so
the expensive structures are computed once.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

from .graphs import (
    BoundaryGraph,
    ContactSet,
    NeighborSet,
    build_graph,
    contact_set,
    neighbor_set,
)
from .lattice import (
    IntMatrix,
    Vec,
    char_poly,
    checked_record,
    companion_form,
    digit_lattice,
    int_vector,
    is_complete_residue_system,
    is_expanding,
    vec_add,
    vec_sub,
)
from .power import (
    DigitWord,
    PowerGraph,
    VertexSet,
    intersection_vertex,
    power_graph,
    unique_walk,
    walk_point,
)


class AbcTriple(checked_record("AbcTriple", "A B C")):
    """Family parameters with 1 <= A <= B < C."""

    __slots__ = ()

    def __new__(cls, A: int, B: int, C: int):
        a, b, c = int_vector((A, B, C), "triple")
        if not 1 <= a <= b < c:
            raise ValueError("parameters must satisfy 1 <= A <= B < C")
        return super().__new__(cls, a, b, c)

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

    def system(self) -> tuple[IntMatrix, tuple[Vec, ...]]:
        """Companion matrix of x^3 + A x^2 + B x + C and its collinear digits."""
        return companion_form([1, self.A, self.B, self.C])


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


def check_system(matrix: IntMatrix, digits, basis=None):
    """The digits and the basis (None stays None) as tuples of int tuples,
    once the system is checked: M must be expanding, D a complete residue
    system modulo M with one coordinate per row of M whose lattice Z[M, D]
    is all of Z^n, and a basis must hold as many linearly independent
    vectors as M has rows.  Every entry of a digit or a basis vector must
    be an integer.  The system is checked first, and only a message about
    the basis starts with "basis".

    Z[M, D] = Z^n is necessary for the tile's translates by Z^n to tile.
    For a D that is not collinear it is not sufficient (Lagarias and
    Wang), and nothing more is checked: M = [[2, 1], [0, 2]] with
    D = {(-1, 1), (-1, 2), (2, 1), (2, 2)} passes, though its tile has
    area about 3 and overlaps its translates by +-e1 and +-2e1 in positive
    measure.
    """
    size = matrix.size
    if not digits:
        raise ValueError("digit set is empty")
    digits = tuple(int_vector(d, "digit") for d in digits)
    if any(len(d) != size for d in digits):
        raise ValueError(f"every digit needs {size} coordinates")
    if not is_expanding(matrix):
        raise ValueError("matrix is not expanding")
    if not is_complete_residue_system(matrix, digits):
        raise ValueError("digits are not a complete residue system modulo "
                         "the matrix")
    # A complete residue system spans a full-rank lattice, so the Hermite
    # form has one row per coordinate and its index is the diagonal's
    # product.
    hermite = digit_lattice(matrix, digits)
    index = math.prod(r[i] for i, r in enumerate(hermite))
    if index != 1:
        raise ValueError(f"digits generate a sublattice of index {index}")
    if basis is None:
        return digits, None
    basis = tuple(int_vector(v, "basis vector") for v in basis)
    if len(basis) != size or any(len(v) != size for v in basis):
        raise ValueError(f"basis needs {size} vectors of length {size}")
    if IntMatrix(basis).det == 0:
        raise ValueError("basis vectors are linearly dependent")
    return digits, basis


class TileAnalysis:
    """Lazily computed exact structures for one validated system.

    basis None seeds the contact set with the default basis read off the
    characteristic polynomial.  The constructor validates and computes
    nothing else.
    """

    def __init__(self, matrix: IntMatrix, digits, basis=None):
        # Tuples of ints, the hashable form the stages and audits key by.
        self.digits, self.basis = check_system(matrix, digits, basis)
        self.matrix = matrix
        self._levels: dict[int, PowerGraph] = {}
        # The memo of topology.hata_graph: each link decided so far, None
        # included, keyed by (vertex, offset, vertex).
        self.links: dict = {}

    @cached_property
    def triple(self) -> AbcTriple | None:
        """The family member this system is, if any: M is the companion
        matrix of x^3 + A x^2 + B x + C with 1 <= A <= B < C, and D, taken
        as a set, is {(i, 0, 0) : 0 <= i < C}."""
        _, *abc = char_poly(self.matrix)
        if len(abc) == 3 and 1 <= abc[0] <= abc[1] < abc[2]:
            triple = AbcTriple(*abc)
            m, d = triple.system()
            if m == self.matrix and set(d) == set(self.digits):
                return triple
        return None

    @cached_property
    def contact(self) -> ContactSet:
        return contact_set(self.matrix, self.digits, self.basis)

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
        """The level-k graph, resumed from the highest level below k that
        is already built."""
        if k not in self._levels:
            below = [j for j in self._levels if j < k]
            start = self._levels[max(below)] if below else None
            self._levels[k] = power_graph(self.boundary_graph, k, start)
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
        """The digit word of the unique walk from a level vertex."""
        return unique_walk(self.level(len(vertex)), vertex)

    def word_point(self, word: DigitWord):
        """Exact point addressed by an eventually periodic digit word."""
        return walk_point(word, self.matrix)


# Contexts keep their level graphs and memos, so the cache holds only the
# most recently used ones.
CONTEXT_CACHE_SIZE = 16


@lru_cache(maxsize=CONTEXT_CACHE_SIZE)
def _analysis_cached(triple: AbcTriple) -> TileAnalysis:
    return TileAnalysis(*triple.system())


def analysis_for(obj) -> TileAnalysis:
    """obj itself when it is a TileAnalysis, else the shared context of a
    triple or (A, B, C) tuple, cached among the CONTEXT_CACHE_SIZE most
    recently used."""
    if isinstance(obj, TileAnalysis):
        return obj
    return _analysis_cached(as_triple(obj))
