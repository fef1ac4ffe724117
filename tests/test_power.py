import collections
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tileforge import power
from tileforge.analysis import AbcTriple, TileAnalysis, analysis_for, predicts_14
from tileforge.family import family_triples
from tileforge.graphs import (
    BoundaryGraph,
    build_graph,
    digit_differences,
)
from tileforge.lattice import (
    ExactPoint,
    IntMatrix,
    Vec,
    companion_form,
    mat_pow,
    vec_add,
    vec_sub,
)
from tileforge.power import (
    DigitWord,
    PowerGraph,
    VertexSet,
    negated,
    power_graph,
    subdivide,
    unique_walk,
    vertex_set,
    walk_point,
    word_admissible_from,
)

from strategies import expanding_systems, run_fresh, walk_alive_oracle


def vecs(*points):
    return vertex_set(points)


def test_abc_triple_validation():
    with pytest.raises(ValueError):
        AbcTriple(0, 1, 2)
    with pytest.raises(ValueError):
        AbcTriple(2, 1, 3)
    with pytest.raises(ValueError):
        AbcTriple(1, 3, 3)


def test_predicts_14_examples():
    assert predicts_14(AbcTriple(1, 2, 4))
    assert not predicts_14(AbcTriple(1, 1, 2))
    assert predicts_14(AbcTriple(3, 4, 10))
    assert not predicts_14(AbcTriple(1, 2, 3))


def test_level_sizes_124():
    t = analysis_for((1, 2, 4))
    assert len(t.neighbors.points) == 14
    assert len(t.level(2).vertices) == 36
    assert len(t.level(3).vertices) == 24
    assert t.level(4).vertices == ()


def test_level3_has_unique_out_edges_forming_four_cycles():
    t = analysis_for((1, 2, 4))
    g3 = t.level(3)
    out = {v: [e for e in g3.edges if e[0] == v] for v in g3.vertices}
    assert all(len(es) == 1 for es in out.values())
    seen = set()
    cycles = 0
    for v in g3.vertices:
        if v in seen:
            continue
        path = [v]
        cur = v
        while True:
            cur = out[cur][0][2]
            if cur == v:
                break
            path.append(cur)
        assert len(path) == 4
        seen.update(path)
        cycles += 1
    assert cycles == 6


def test_level3_matches_unpruned_reduction():
    # brute force over all 3-subsets, no candidate pruning
    t = analysis_for((1, 2, 4))
    base = t.boundary_graph
    succ = {}
    for e in base.edges:
        succ.setdefault((e.src, e.d), set()).add(e.dst)
    cands = [tuple(sorted(c)) for c in itertools.combinations(base.vertices, 3)]
    edges = set()
    for src in cands:
        for d in base.digits:
            lists = [sorted(succ.get((a, d), ())) for a in src]
            if any(not l for l in lists):
                continue
            for combo in itertools.product(*lists):
                if len(set(combo)) == 3:
                    edges.add((src, d, tuple(sorted(combo))))
    alive = set(cands)
    changed = True
    while changed:
        changed = False
        for v in list(alive):
            if not any(e[0] == v and e[2] in alive for e in edges):
                alive.discard(v)
                changed = True
    assert alive == set(t.level(3).vertices)


def test_power_symmetry_digit_reversal():
    for abc in [(1, 2, 4), (2, 3, 5)]:
        t = analysis_for(abc)
        for k in (2, 3):
            assert symmetry_defects(t.level(k).edges, t.digits) == ()


def test_intersection_vertex_self_is_identity():
    t = analysis_for((1, 2, 4))
    v = t.level(2).vertices[0]
    zero = (0, 0, 0)
    assert t.intersection(v, zero, v, zero) == v


def test_intersection_vertex_joint_point():
    t = analysis_for((1, 2, 4))
    zero = (0, 0, 0)
    b1 = vecs((-1, -1, 0), (1, 0, 1))   # {-Q, N-Q}
    b2 = vecs((-1, 0, 0), (1, 0, 1))    # {-P, N-Q}
    out = t.intersection(b1, zero, b2, zero)
    assert out == vecs((-1, -1, 0), (-1, 0, 0), (1, 0, 1))
    assert t.is_vertex(3, out)


def test_intersection_vertex_far_translate_is_empty():
    t = analysis_for((1, 2, 4))
    b = vecs((-1, -1, 0), (1, 0, 1))
    assert t.intersection(b, (0, 0, 0), b, (5, 5, 5)) is None


def test_unique_walk_from_pqn():
    t = analysis_for((1, 2, 4))
    start = vecs((1, 0, 0), (1, 1, 0), (2, 1, 1))  # {P, Q, N}
    word = t.walk(start)
    assert word.preperiod == ()
    assert word.period == ((0, 0, 0), (0, 0, 0), (1, 0, 0), (3, 0, 0))
    first = t.level(3).out_edges(start)[0]
    assert first[0] == (0, 0, 0)
    assert first[1] == vecs((-1, 0, 0), (0, 1, 0), (1, 1, 1))  # {-P, Q-P, N-P}


def test_unique_walk_rejects_branching():
    t = analysis_for((1, 2, 4))
    with pytest.raises(ValueError, match="outgoing"):
        unique_walk(t.level(2), vecs((-1, 0, 0), (0, 1, 0)))  # {-P, Q-P}


def test_walk_closes_within_24_steps_everywhere():
    t = analysis_for((1, 2, 4))
    for v in t.level(3).vertices:
        w = t.walk(v)
        assert len(w.preperiod) + len(w.period) <= 24


def test_walk_point_zero_period():
    t = analysis_for((1, 2, 4))
    x = walk_point(DigitWord((), ((0, 0, 0),)), t.matrix)
    assert type(x) is ExactPoint and x == ((0, 0, 0), 1)
    assert x.fractions() == (0, 0, 0)


def test_walk_point_unit_period():
    # hand-checked: M x - x = (1,0,0) at x = (-1/2, -1/4, -1/8)
    t = analysis_for((1, 2, 4))
    x = walk_point(DigitWord((), ((1, 0, 0),)), t.matrix)
    assert x == ((-4, -2, -1), 8)
    assert x.fractions() == (Fraction(-1, 2), Fraction(-1, 4), Fraction(-1, 8))
    assert vec_sub(t.matrix.mul_vec(x.numerators), x.numerators) == (8, 0, 0)


def test_exact_points_are_reduced_so_equal_points_are_equal():
    assert ExactPoint((2, 0, -4), 6) == ExactPoint((-1, 0, 2), -3) == (
        (1, 0, -2), 3)
    assert hash(ExactPoint((3, 6, 9), 3)) == hash(ExactPoint((1, 2, 3), 1))
    assert ExactPoint((0, 0, 0), -5) == ((0, 0, 0), 1)
    assert ExactPoint((1, 0, 0), 2) != ExactPoint((1, 0, 0), 4)
    with pytest.raises(ValueError, match="denominator must be nonzero"):
        ExactPoint((1, 0, 0), 0)


def test_24_walk_points_distinct_and_admissible():
    t = analysis_for((1, 2, 4))
    points = set()
    for v in t.level(3).vertices:
        word = t.walk(v)
        points.add(t.word_point(word))
        for member in v:
            assert word_admissible_from(t.boundary_graph, member, word)
    assert len(points) == 24


def test_word_admissibility_rejects_dead_words():
    t = analysis_for((1, 2, 4))
    zeros = DigitWord((), ((0, 0, 0),))
    assert not word_admissible_from(t.boundary_graph, (2, 1, 1), zeros)


def test_word_admissibility_reuses_one_successor_table():
    t = analysis_for((1, 2, 4))
    g = build_graph(t.neighbors.points, t.matrix, t.digits)  # private copy
    v = t.level(3).vertices[0]
    word = t.walk(v)
    assert word_admissible_from(g, v[0], word)
    # The graph's one successor index is all the check builds and reads.
    assert list(vars(g)) == ["bit_tables"]
    tables = g.bit_tables
    assert word_admissible_from(g, v[0], word)
    assert g.bit_tables is tables
    # Emptied rows must be what the next call sees: nothing is rebuilt.
    tables[2][:] = [()] * len(tables[2])
    assert not word_admissible_from(g, v[0], word)


def test_digit_word_canonical_forms():
    assert DigitWord((), ((1,), (1,))) == DigitWord((), ((1,),))
    rolled = DigitWord(((1,),), ((2,), (1,)))
    assert rolled == DigitWord((), ((1,), (2,)))
    with pytest.raises(ValueError):
        DigitWord((), ())


def test_subdivide_steps_zero_is_identity():
    t = analysis_for((1, 2, 4))
    piece = (t.level(2).vertices[0], (0, 0, 0))
    assert subdivide(t.level(2), [piece], 0) == (piece,)


def test_subdivide_124_single_child():
    t = analysis_for((1, 2, 4))
    root = (vecs((0, 1, 0), (1, 1, 1)), (0, 0, 0))  # {Q-P, N-P}
    kids = subdivide(t.level(2), [root], 1)
    assert kids == ((vecs((-1, -1, 0), (1, 0, 1)), (0, 0, 0)),)  # {-Q, N-Q}


def test_subdivide_235_four_children():
    t = analysis_for((2, 3, 5))
    root = (vecs((1, 1, 0), (2, 2, 1)), (0, 0, 0))  # {Q-P, N-P}
    kids = subdivide(t.level(2), [root], 1)
    assert len(kids) == 4


def test_subdivide_child_of_a_shifted_piece_is_m_s_plus_d():
    t = analysis_for((2, 3, 5))
    g = t.level(2)
    v = vecs((1, 1, 0), (2, 2, 1))
    s = (1, -2, 3)
    m_s = tuple(sum(a * b for a, b in zip(row, s)) for row in t.matrix.rows)
    kids = subdivide(g, [(v, s)], 1)
    assert kids == tuple((dst, vec_add(m_s, d))
                         for d, dst in sorted(g.out_edges(v)))
    # Two steps from B_v + s are the two steps from B_v, moved by M^2 s;
    # the pieces of a list follow one another in list order.
    m2_s = tuple(sum(a * b for a, b in zip(row, s))
                 for row in mat_pow(t.matrix.rows, 2))
    assert subdivide(g, [(v, s)], 2) == tuple(
        (w, vec_add(c, m2_s)) for w, c in subdivide(g, [(v, (0, 0, 0))], 2))
    w = g.vertices[0]
    assert subdivide(g, [(v, s), (w, s)], 2) == \
        subdivide(g, [(v, s)], 2) + subdivide(g, [(w, s)], 2)


def test_subdivide_takes_children_in_sorted_edge_order():
    # A PowerGraph lists its out-edges sorted already; a graph that lists
    # them in another order must give the same children.
    g = analysis_for((2, 3, 5)).level(2)
    root = (vecs((1, 1, 0), (2, 2, 1)), (0, 0, 0))

    class Reversed:
        matrix = g.matrix

        def out_edges(self, v):
            return g.out_edges(v)[::-1]

    assert subdivide(Reversed(), [root], 2) == subdivide(g, [root], 2)


def test_analysis_for_caches():
    assert analysis_for((1, 2, 4)) is analysis_for(AbcTriple(1, 2, 4))


# ---------------------------------------------------------------------------
# Oracle: the set-based level graph that labelled every edge while its
# fixpoint ran, kept verbatim apart from its names.  The bitmask fixpoint
# and its lazily built labels must reproduce it exactly, edge order included.


@dataclass(frozen=True)
class OraclePowerGraph:
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


def symmetry_defects(edges, digits) -> tuple:
    """Edges whose mirror -src ->(reversed digit) -dst is absent.

    The digit reversal pairs digits[i] with digits[-1-i]; meaningful for
    collinear digit sets ordered along their direction.
    """
    index = {d: i for i, d in enumerate(digits)}
    have = set(edges)
    bad = []
    for src, d, dst in edges:
        mirror_d = digits[len(digits) - 1 - index[d]]
        if (negated(src), mirror_d, negated(dst)) not in have:
            bad.append((src, d, dst))
    return tuple(bad)


def digit_table(base: BoundaryGraph) -> dict:
    """(alpha, d) -> list of (dst, right digit), read off base.edges alone,
    so the oracles below stay independent of the tables they check."""
    table: dict[tuple[Vec, Vec], list[tuple[Vec, Vec]]] = {}
    for e in base.edges:
        table.setdefault((e.src, e.d), []).append((e.dst, e.d_prime))
    return table


def oracle_power_graph(base: BoundaryGraph, level: int) -> OraclePowerGraph:
    """Level graph on size-`level` subsets of the base graph's vertex set."""
    if level < 1:
        raise ValueError("level must be at least 1")
    members = list(base.vertices)
    succ = digit_table(base)
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
        alive = walk_alive_oracle(succ_sets)
        prev = sorted(alive)
        last_edges = sorted(e for e in edges if e[0] in alive and e[2] in alive)

    return OraclePowerGraph(level, tuple(prev), tuple(last_edges), base.matrix,
                            digits)


def assert_matches_oracle(base, level):
    got = power_graph(base, level)
    want = oracle_power_graph(base, level)
    assert (got.level, got.matrix, got.digits) == (
        want.level, want.matrix, want.digits)
    assert got.vertices == want.vertices
    assert all(got.has_vertex(v) for v in want.vertices)
    assert got.edges == want.edges
    for v in want.vertices:
        assert got.out_edges(v) == want.out_edges(v)


@pytest.mark.parametrize("abc,top", [
    ((1, 2, 4), 4), ((3, 4, 10), 4), ((1, 1, 4), 4), ((2, 2, 5), 4),
    ((5, 5, 6), 3)])
def test_level_graphs_match_oracle(abc, top):
    base = analysis_for(abc).boundary_graph
    for level in range(1, top + 1):
        assert_matches_oracle(base, level)


def test_level2_matches_oracle_on_182_neighbours():
    base = analysis_for((10, 10, 11)).boundary_graph
    assert len(base.vertices) == 182
    assert_matches_oracle(base, 2)


@st.composite
def shuffled_subgraphs(draw):
    """build_graph on a random subset of a 20-neighbour set, with the digits
    passed in a random order."""
    t = analysis_for(draw(st.sampled_from([(1, 1, 4), (2, 2, 5)])))
    subset = draw(st.sets(st.sampled_from(t.neighbors.points), min_size=1))
    digits = draw(st.permutations(t.digits))
    return build_graph(subset, t.matrix, digits), draw(st.integers(1, 4))


@given(shuffled_subgraphs())
def test_level_graphs_of_subsets_match_oracle(case):
    base, level = case
    assert_matches_oracle(base, level)


BOX = tuple(p for p in itertools.product(range(-2, 3), repeat=3) if any(p))


@st.composite
def systems_on_a_box(draw):
    """build_graph of a random expanding system on the nonzero points of
    [-2, 2]^3, a few of them drawn out, so that V - V reaches beyond V."""
    matrix, digits, _ = draw(expanding_systems())
    gone = draw(st.sets(st.sampled_from(BOX), max_size=8))
    return build_graph([p for p in BOX if p not in gone], matrix, digits)


@given(systems_on_a_box())
def test_level_graphs_of_expanding_systems_match_oracle(base):
    for level in (1, 2, 3):
        assert_matches_oracle(base, level)


def oracle_word_admissible(table, start, word: DigitWord) -> bool:
    """The subset construction along the word on the (alpha, d) table."""
    def step(states, d):
        return {dst for s in states for dst, _ in table.get((s, d), ())}

    states = {start}
    for d in word.preperiod:
        states = step(states, d)
    seen = []
    while states and states not in seen:
        seen.append(states)
        for d in word.period:
            states = step(states, d)
    return bool(states)


@st.composite
def words_from(draw, base: BoundaryGraph):
    """(start, word): a start among the vertices or off the graph, and an
    eventually periodic word: random digits, some outside D, or the labels
    of a walk from the start among the vertices that can walk forever, up
    to a repeated vertex, one label of which may be replaced."""
    live = walk_alive_oracle({v: {e.dst for e in base.out_edges(v)}
                              for v in base.vertices})
    outside = [(3, 3, 3), (0, 0, 0), (9, -9, 0)]
    if live and draw(st.booleans()):
        start = draw(st.sampled_from(sorted(live)))
    else:
        start = draw(st.sampled_from(base.vertices + tuple(outside)))
    digit = st.sampled_from(list(base.digits) + [(7, 7, 7), (0, 0)])
    if draw(st.booleans()):
        pre = draw(st.lists(digit, max_size=3))
        per = draw(st.lists(digit, min_size=1, max_size=3))
        return start, DigitWord(tuple(pre), tuple(per))
    labels, seen, v = [], {}, start
    while v not in seen and v in live:
        seen[v] = len(labels)
        e = draw(st.sampled_from([e for e in base.out_edges(v)
                                  if e.dst in live]))
        labels.append(e.d)
        v = e.dst
    if v not in seen:  # a start that cannot walk forever: end on one digit
        seen[v] = len(labels)
        labels.append(draw(digit))
    if draw(st.booleans()):
        labels[draw(st.integers(0, len(labels) - 1))] = draw(digit)
    i = seen[v]
    return start, DigitWord(tuple(labels[:i]), tuple(labels[i:]))


@given(systems_on_a_box(), st.data())
def test_word_admissibility_matches_the_subset_oracle(base, data):
    table = digit_table(base)
    for _ in range(8):
        start, word = data.draw(words_from(base))
        assert word_admissible_from(base, start, word) == \
            oracle_word_admissible(table, start, word), (start, word)


def test_level2_candidates_are_pairs_whose_difference_walks(monkeypatch):
    # Of the C(182, 2) = 16,471 pairs only 7,275 differ by a translation
    # that can walk forever, and 6,873 of those survive.  The level graph's
    # calls are level 1, then level 2; the difference relation is pruned
    # in between.
    sizes = []
    real = power.prune_sinks

    def recording(offsets, targets):
        sizes.append(len(offsets) - 1)
        return real(offsets, targets)

    monkeypatch.setattr(power, "prune_sinks", recording)
    g = power_graph(analysis_for((10, 10, 11)).boundary_graph, 2)
    assert sizes[0] == 182 and sizes[-1] == 7275
    assert len(g.vertices) == 6873


def test_level2_memory_rise_on_574_neighbours_stays_under_budget():
    # The companion system of x^3 + 3x^2 - 6x + 5 has 574 neighbours and
    # 52,512 level-2 vertices.  Level 2 on packed member keys and flat
    # successor arrays raises ru_maxrss by about 9 MB over the built base
    # graph; a bitmask per candidate and a tuple of successors each took
    # 24.7 MB.
    code = "\n".join([
        "import resource",
        "from tileforge.analysis import TileAnalysis",
        "from tileforge.lattice import companion_form",
        "from tileforge.power import power_graph",
        "base = TileAnalysis(*companion_form([1, 3, -6, 5])).boundary_graph",
        "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss",
        "g = power_graph(base, 2)",
        "rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss",
        "print(len(base.vertices), len(g.vertices), rise)"])
    n, v2, rise = map(int, run_fresh(code).split()[-3:])
    assert (n, v2) == (574, 52512)
    assert rise <= 15 * 1024


def k_images(base: BoundaryGraph, members: set[int]) -> tuple:
    """The images of the k-set with these member indices, as masks with
    their digit masks, from _images and from the per-digit oracle, and how
    often the oracle meets each (image, digit).

    Every key _images returns must pack k distinct members, w bits each,
    the smallest in the highest bits."""
    k, mask = len(members), sum(1 << i for i in members)
    verts, _, out = base.bit_tables
    w = len(verts).bit_length()
    got = {}
    for key, digit_mask in power._images(out, sorted(members), w).items():
        fields = [key >> (w * f) & (1 << w) - 1 for f in reversed(range(k))]
        assert key >> (w * k) == 0
        assert fields == sorted(set(fields)), (key, fields)
        got[sum(1 << i for i in fields)] = digit_mask
    _, succ, live = oracle_bit_tables(base)
    want, met = {}, collections.Counter()
    for j, sums in oracle_images(succ, live, mask):
        for image in sums:
            if image.bit_count() == k:
                want[image] = want.get(image, 0) | 1 << j
                met[image, j] += 1
    return got, want, met


@given(systems_on_a_box(), st.data())
def test_images_match_the_per_digit_oracle(base, data):
    # out lists each distinct successor index once, with the left digits of
    # the edges to it as a mask; _images reads the bijective images of a
    # k-set, and the digits that carry it there, as the per-digit products
    # did.
    verts, index, out = base.bit_tables
    assert [index[v] for v in verts] == list(range(len(verts)))
    table = digit_table(base)
    want_out = []
    for v in verts:
        row = {}
        for j, d in enumerate(base.digits):
            for dst, _ in table.get((v, d), ()):
                row[index[dst]] = row.get(index[dst], 0) | 1 << j
        want_out.append(row)
    assert [dict(row) for row in out] == want_out
    assert all(len(row) == len(dict(row)) for row in out)
    for _ in range(4):
        members = data.draw(st.sets(st.integers(0, len(verts) - 1),
                                    min_size=1, max_size=4))
        got, want, _ = k_images(base, members)
        assert got == want


def test_images_or_the_digits_of_two_bijections_onto_one_image():
    # Here both bijections from {(-2,-2,0), (0,-2,0)} onto one pair of
    # successors read the same left digit; that digit is set once.
    matrix, _ = companion_form([1, 3, 0, 4])
    base = build_graph(BOX, matrix, ((-1, 2, 1), (-1, 0, 1), (-1, -2, 1)))
    _, index, _ = base.bit_tables
    got, want, met = k_images(base, {index[(-2, -2, 0)], index[(0, -2, 0)]})
    assert max(met.values()) == 2
    assert got == want


class CountingMask(int):
    """A digit mask that counts the intersections taken with it."""

    ands = 0

    def __and__(self, other):
        CountingMask.ands += 1
        return int.__and__(self, other)

    __rand__ = __and__


def test_level2_meets_each_pair_of_successors_once(monkeypatch):
    # On (11,11,12) the 7,275 level-2 candidates have 30,153 pairs of
    # successors, one successor per member, and 121,920 (pair, common left
    # digit) combinations.  The product over the out-lists meets each pair
    # once and ANDs its two digit masks once; level 1 ANDs nothing.
    t = analysis_for((11, 11, 12))
    base = build_graph(t.neighbors.points, t.matrix, t.digits)
    verts, index, out = base.bit_tables
    # Preset the cached property with counting masks.
    base.__dict__["bit_tables"] = (verts, index, [
        tuple((b, CountingMask(m)) for b, m in row) for row in out])
    monkeypatch.setattr(CountingMask, "ands", 0)
    g = power_graph(base, 2)
    assert CountingMask.ands == 30153
    assert len(g.vertices) == 6873


def test_digit_differences_are_built_once_per_digit_set():
    # The contact, neighbor and level-2 stages of a context and the
    # boundary graph between them share one D - D.
    digit_differences.cache_clear()
    t = TileAnalysis(*AbcTriple(1, 2, 4).system())
    assert len(t.level(2).vertices) == 36
    info = digit_differences.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_level2_rejects_a_base_graph_that_holds_the_origin():
    t = analysis_for((1, 2, 4))
    base = build_graph(t.contact.points, t.matrix, t.digits)
    assert (0, 0, 0) in base.vertices
    assert len(power_graph(base, 1).vertices) > 1
    with pytest.raises(ValueError, match="origin"):
        power_graph(base, 2)
    # Here the origin is the first sorted vertex, so its member index, and
    # its level-1 key, is 0; it is refused all the same.
    matrix, _ = companion_form([1, 3, 0, 4])
    base = build_graph([p for p in BOX if p > (0, 0, 0)] + [(0, 0, 0)],
                       matrix, ((-1, 2, 1), (-1, 0, 1), (-1, -2, 1)))
    g1 = power_graph(base, 1)
    assert g1.vertices[0] == ((0, 0, 0),) and len(g1.vertices) > 1
    with pytest.raises(ValueError, match="origin"):
        power_graph(base, 2)


# ---------------------------------------------------------------------------
# Oracles: the level graph that restarted from level 1 on every call, with
# the three bitmask helpers it ran on, and the walk point solved in
# Fractions, kept verbatim apart from their names.  Resumed levels and
# integer walk points must reproduce them exactly.


def oracle_bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def oracle_images(succ, live, mask: int):
    """(j, sums) for each digit index j that every member of mask can read.

    A sum adds one successor bit per member.  A repeated successor carries
    and lowers the bit count, so a sum is the mask of a k-set, and the
    members' images are a bijection, exactly when it has k bits.
    """
    members = oracle_bit_indices(mask)
    common = -1
    for i in members:
        common &= live[i]
    for j in oracle_bit_indices(common):
        row = succ[j]
        yield j, map(sum, itertools.product(*[row[i] for i in members]))


def oracle_candidates(alive: set[int]) -> set[int]:
    """(k+1)-sets all of whose k-subsets are in alive.

    Two alive k-sets that differ only in their top bit join to one
    candidate, so each candidate is made once, from its two k-subsets that
    keep its lower k-1 members; its other k-1 subsets are looked up.
    """
    groups: dict[int, list[int]] = {}
    for v in alive:
        top = 1 << (v.bit_length() - 1)
        groups.setdefault(v ^ top, []).append(top)
    out = set()
    for prefix, tops in groups.items():
        rest = [1 << i for i in oracle_bit_indices(prefix)]
        for a, b in itertools.combinations(tops, 2):
            cand = prefix | a | b
            if all(cand ^ x in alive for x in rest):
                out.add(cand)
    return out


def oracle_bit_tables(base: BoundaryGraph):
    """The base graph's sorted vertices, as bit indices, and two tables.

    succ[j][i] lists the one-bit masks of the successors of vertex i under
    digits[j]; bit j of live[i] is set when that list is nonempty.
    """
    verts = tuple(sorted(base.vertices))
    bit = {v: 1 << i for i, v in enumerate(verts)}
    table = digit_table(base)
    succ = [[[bit[dst] for dst, _ in table.get((v, d), ())] for v in verts]
            for d in base.digits]
    live = [sum(1 << j for j, d in enumerate(base.digits) if (v, d) in table)
            for v in verts]
    return verts, succ, live


def oracle_restart_power_graph(base: BoundaryGraph, level: int) -> PowerGraph:
    """Level graph on size-`level` subsets of the base graph's vertex set.

    The fixpoint runs on int bitmasks over the sorted base vertices and
    keeps no labels; the returned graph labels its edges when they are read.
    """
    if level < 1:
        raise ValueError("level must be at least 1")
    verts, succ, live = oracle_bit_tables(base)
    zero = (0,) * base.matrix.size
    origin = 1 << verts.index(zero) if zero in verts else 0
    cand = {1 << i for i in range(len(verts))}
    for k in range(1, level + 1):
        if k > 1:
            if k == 2 and origin in alive and len(alive) > 1:
                raise ValueError("vertex set must not contain the origin")
            cand = oracle_candidates(alive)
        alive = walk_alive_oracle({
            m: cand.intersection(itertools.chain.from_iterable(
                sums for _, sums in oracle_images(succ, live, m)))
            for m in cand})

    vertices = tuple(tuple(verts[i] for i in ix)
                     for ix in sorted(map(oracle_bit_indices, alive)))
    return PowerGraph(level, vertices, base.matrix, base.digits, base)


def oracle_walk_point(word: DigitWord, matrix: IntMatrix) -> tuple[Fraction, ...]:
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


@pytest.mark.parametrize("abc,top", [
    ((1, 2, 4), 4), ((3, 4, 10), 4), ((1, 1, 4), 4), ((2, 2, 5), 4),
    ((5, 5, 6), 3)])
def test_resumed_levels_match_restarted_oracle_in_any_order(abc, top):
    base = analysis_for(abc).boundary_graph
    want = {k: oracle_restart_power_graph(base, k).vertices
            for k in range(1, top + 1)}
    for order in itertools.permutations(range(1, top + 1)):
        t = TileAnalysis(*AbcTriple(*abc).system())
        for k in order:
            assert t.level(k).vertices == want[k], (order, k)


def test_power_graph_resumes_only_from_a_lower_level_of_its_base():
    t = analysis_for((1, 2, 4))
    base, g2 = t.boundary_graph, t.level(2)
    assert power_graph(base, 3, g2).vertices == t.level(3).vertices
    with pytest.raises(ValueError, match="lower level graph"):
        power_graph(base, 2, g2)
    other = build_graph(base.vertices, base.matrix, base.digits)
    with pytest.raises(ValueError, match="lower level graph"):
        power_graph(other, 3, g2)


def test_walk_points_match_oracle_on_the_family():
    count = 0
    for abc in family_triples(12, 12, 12):
        if not predicts_14(abc):
            continue
        t = analysis_for(abc)
        for v in t.level(3).vertices:
            word = t.walk(v)
            x = walk_point(word, t.matrix)
            assert x.fractions() == oracle_walk_point(word, t.matrix), (abc, v)
            assert x.denominator > 0, (abc, v)
            assert math.gcd(x.denominator, *x.numerators) == 1, (abc, v)
            count += 1
    assert count == 111 * 24


@st.composite
def eventually_periodic_words(draw):
    """A random expanding system and a word over its digits."""
    matrix, digits, _ = draw(expanding_systems())
    word = st.lists(st.sampled_from(digits), max_size=4)
    period = draw(word.filter(bool))
    return matrix, DigitWord(tuple(draw(word)), tuple(period))


@given(eventually_periodic_words())
def test_walk_point_matches_oracle(case):
    # In lowest terms over a positive denominator, and equal to the oracle.
    matrix, word = case
    x = walk_point(word, matrix)
    assert x.denominator > 0
    assert math.gcd(x.denominator, *x.numerators) == 1
    want = oracle_walk_point(word, matrix)
    assert x.fractions() == want
    assert x.denominator == math.lcm(*(f.denominator for f in want))


def test_walk_point_resubstitutes_its_periodic_solution(monkeypatch):
    # A wrong adjugate must be caught by the check K num == det K c.
    real = power._period_system

    def skewed(rows, p):
        k, det, adj = real(rows, p)
        return k, det, ((adj[0][0] + 1,) + adj[0][1:],) + adj[1:]

    monkeypatch.setattr(power, "_period_system", skewed)
    t = analysis_for((1, 2, 4))
    with pytest.raises(AssertionError, match="fixed-point equation"):
        walk_point(DigitWord((), ((1, 0, 0),)), t.matrix)
