import itertools
from operator import add

import pytest
from hypothesis import assume, given, strategies as st

import tileforge.graphs
from tileforge.family import family_triples
from tileforge.graphs import (
    MAX_ROUNDS,
    BoundaryGraph,
    ContactSet,
    LabeledEdge,
    NeighborSet,
    RoundLimitError,
    build_graph,
    contact_set,
    default_contact_basis,
    digit_differences,
    minkowski_sum,
    neighbor_set,
    prune_sinks,
    successor_arrays,
    reduce,
    successor_map,
)
from tileforge.graphs import _walk_alive
from tileforge.lattice import (
    IntMatrix,
    companion_form,
    vec_add,
    vec_neg,
    vec_sub,
)

from strategies import expanding_systems, walk_alive_oracle


def setup_tile(a, b, c):
    return companion_form([1, a, b, c])


def triples(max_c=8):
    return st.tuples(st.integers(1, max_c), st.integers(1, max_c),
                     st.integers(2, max_c)).filter(lambda t: t[0] <= t[1] < t[2])


def test_labeled_edge_is_a_named_tuple_of_its_fields():
    # Edges sort, hash and compare as their (src, dst, d, d_prime) tuples.
    e = LabeledEdge((1, 0, 0), (1, 1, 0), (0, 0, 0), (1, 0, 0))
    assert e == ((1, 0, 0), (1, 1, 0), (0, 0, 0), (1, 0, 0))
    assert hash(e) == hash(tuple(e))
    assert repr(e) == ("LabeledEdge(src=(1, 0, 0), dst=(1, 1, 0), "
                       "d=(0, 0, 0), d_prime=(1, 0, 0))")
    assert e.mirrored() == LabeledEdge((-1, 0, 0), (-1, -1, 0), (1, 0, 0),
                                       (0, 0, 0))


def test_build_graph_origin_only_gives_digit_loops():
    m, digits = setup_tile(1, 2, 4)
    g = build_graph([(0, 0, 0)], m, digits)
    assert g.vertices == ((0, 0, 0),)
    assert len(g.edges) == len(digits)
    assert all(e.src == e.dst == (0, 0, 0) and e.d == e.d_prime for e in g.edges)


def test_build_graph_origin_and_unit():
    m, digits = setup_tile(1, 2, 4)
    g = build_graph([(0, 0, 0), (1, 0, 0)], m, digits)
    cross = [e for e in g.edges if e.dst == (1, 0, 0)]
    assert [(e.d, e.d_prime) for e in cross] == [
        ((0, 0, 0), (1, 0, 0)),
        ((1, 0, 0), (2, 0, 0)),
        ((2, 0, 0), (3, 0, 0)),
    ]
    assert all(e.src == (0, 0, 0) for e in cross)
    assert g.out_edges((1, 0, 0)) == ()


def test_build_graph_empty():
    m, digits = setup_tile(1, 2, 4)
    g = build_graph([], m, digits)
    assert g.vertices == () and g.edges == ()


def test_build_graph_reads_the_cached_digit_differences():
    m, digits = setup_tile(1, 2, 4)
    digit_differences.cache_clear()
    build_graph([(0, 0, 0), (1, 0, 0)], m, digits)
    build_graph([(1, 0, 0), (-1, 0, 0)], m, digits)
    info = digit_differences.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@given(expanding_systems())
def test_digit_differences_pair_every_digit_pair_in_sorted_order(system):
    _, digits, _ = system
    table = digit_differences(digits)
    assert list(table) == sorted({vec_sub(dp, d)
                                  for d in digits for dp in digits})
    assert sorted(pair for pairs in table.values() for pair in pairs) == \
        sorted((d, dp) for d in digits for dp in digits)
    assert all(vec_sub(dp, d) == delta
               for delta, pairs in table.items() for d, dp in pairs)
    with pytest.raises(TypeError):
        table[(0, 0, 0)] = ()


def test_out_edge_index_is_built_on_first_read():
    m, digits = setup_tile(1, 2, 4)
    g = build_graph([(0, 0, 0), (1, 0, 0)], m, digits)
    assert "_out" not in vars(g)
    assert len(g.out_edges((0, 0, 0))) == len(g.edges)
    assert "_out" in vars(g)


def test_reduce_cascades_to_empty():
    m, digits = setup_tile(1, 2, 4)
    # 0 -> P is the only edge once loops are stripped; removing the sink P
    # must cascade and empty the graph.
    g = build_graph([(0, 0, 0), (1, 0, 0)], m, digits)
    no_loops = BoundaryGraph(
        g.vertices,
        tuple(e for e in g.edges if e.src != e.dst),
        m,
        digits,
    )
    assert reduce(no_loops).vertices == ()


def test_reduce_is_idempotent_and_keeps_sink_free():
    m, digits = setup_tile(1, 1, 2)
    r = contact_set(m, digits)
    g = build_graph(minkowski_sum(r.points, r.points), m, digits)
    once = reduce(g)
    assert all(once.out_edges(v) for v in once.vertices)
    assert reduce(once) == once


def test_reduce_retains_cycle_witnesses_for_equal_ab():
    m, digits = setup_tile(1, 1, 2)
    r = contact_set(m, digits)
    g = reduce(build_graph(minkowski_sum(r.points, r.points), m, digits))
    kept = set(g.vertices)
    for w in [(1, 2, 1), (-1, 0, 1)]:
        assert w in kept and vec_neg(w) in kept


def test_default_basis_reads_char_poly():
    m, _ = setup_tile(2, 3, 5)
    assert default_contact_basis(m) == ((1, 0, 0), (2, 1, 0), (3, 2, 1))


def test_contact_set_124():
    m, digits = setup_tile(1, 2, 4)
    r = contact_set(m, digits)
    expected = {(0, 0, 0)}
    for p in [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 1),
              (2, 0, 1), (1, 1, 1), (2, 1, 1)]:
        expected.add(p)
        expected.add(vec_neg(p))
    assert set(r.points) == expected
    assert len(r.points) == 15


def test_contact_set_equal_ab_is_13():
    m, digits = setup_tile(2, 2, 5)
    r = contact_set(m, digits)
    assert len(r.points) == 13


@given(triples())
def test_contact_fixpoint_reaches_stability_quickly(abc):
    m, digits = setup_tile(*abc)
    r = contact_set(m, digits)
    assert r.rounds <= 2


@given(triples(6))
def test_contact_set_independent_of_basis_order(abc):
    m, digits = setup_tile(*abc)
    b = default_contact_basis(m)
    assert contact_set(m, digits).points == contact_set(m, digits, basis=b[::-1]).points


@given(triples(6))
def test_boundary_graph_symmetry_on_contact_set(abc):
    m, digits = setup_tile(*abc)
    r = contact_set(m, digits)
    g = build_graph(r.points, m, digits)
    assert {e.mirrored() for e in g.edges} == set(g.edges)


@given(triples(8).filter(lambda t: t[0] < t[1]))
def test_minkowski_double_contact_has_65_points(abc):
    m, digits = setup_tile(*abc)
    r = contact_set(m, digits)
    assert len(minkowski_sum(r.points, r.points)) == 65


def test_neighbor_set_124_is_the_14_set():
    m, digits = setup_tile(1, 2, 4)
    r = contact_set(m, digits)
    s = neighbor_set(r, m, digits)
    expected = set()
    for p in [(1, 0, 0), (1, 1, 0), (2, 1, 1), (0, 1, 0),
              (1, 0, 1), (1, 1, 1), (2, 0, 1)]:
        expected.add(p)
        expected.add(vec_neg(p))
    assert set(s.points) == expected


def test_neighbor_set_112_has_20_points():
    # size frozen from the independent brute-force oracle; >= 16 either way
    m, digits = setup_tile(1, 1, 2)
    s = neighbor_set(contact_set(m, digits), m, digits)
    assert len(s.points) == 20


def test_neighbor_set_123_has_24_points():
    # size frozen from the independent brute-force oracle (not 14)
    m, digits = setup_tile(1, 2, 3)
    s = neighbor_set(contact_set(m, digits), m, digits)
    assert len(s.points) == 24
    assert (4, 0, 2) in s.points and (-4, 0, -2) in s.points


def test_neighbor_set_rejects_asymmetric_points():
    with pytest.raises(ValueError):
        from tileforge.graphs import NeighborSet
        NeighborSet(((1, 0, 0),), 0)


# Reference path: full-recompute contact rounds and labeled pruning,
# kept only to cross-check the unlabeled, incremental fixpoints.

def labeled_contact_set(matrix, digits):
    zero = (0,) * matrix.size
    pts = {zero}
    for b in default_contact_basis(matrix):
        pts.update((b, vec_neg(b)))
    diffs = sorted({vec_sub(dp, d) for d in digits for dp in digits})
    rounds = 0
    for _ in range(MAX_ROUNDS):
        grown = set(pts)
        for l in pts:
            for delta in diffs:
                k = matrix.solve_int(vec_add(l, delta))
                if k is not None:
                    grown.add(k)
        if grown == pts:
            break
        pts = grown
        rounds += 1
    return set(reduce(build_graph(pts, matrix, digits)).vertices), rounds


def labeled_neighbor_set(contact_points, matrix, digits):
    zero = (0,) * matrix.size
    s0 = set(contact_points) | {zero}
    current = set(s0)
    rounds = 0
    for _ in range(MAX_ROUNDS):
        nxt = set(reduce(build_graph(minkowski_sum(current, s0), matrix,
                                     digits)).vertices)
        if nxt == current:
            break
        current = nxt
        rounds += 1
    return current - {zero}, rounds


@pytest.mark.parametrize("abc", [(1, 2, 4), (3, 4, 10), (2, 2, 5), (5, 5, 6)])
def test_unlabeled_fixpoints_match_labeled_reference(abc):
    m, digits = setup_tile(*abc)
    c = contact_set(m, digits)
    ref_points, ref_rounds = labeled_contact_set(m, digits)
    assert (set(c.points), c.rounds) == (ref_points, ref_rounds)
    s = neighbor_set(c, m, digits)
    assert (set(s.points), s.rounds) == labeled_neighbor_set(c.points, m, digits)


CLOUD_124 = sorted(minkowski_sum(*[contact_set(*setup_tile(1, 2, 4)).points] * 2))


@given(st.sets(st.sampled_from(CLOUD_124)))
def test_prune_sinks_keeps_the_vertices_of_reduce(subset):
    m, digits = setup_tile(1, 2, 4)
    succ = successor_map(subset, m, digit_differences(digits))
    verts = list(succ)
    index = {v: i for i, v in enumerate(verts)}
    alive = {verts[i] for i in prune_sinks(*successor_arrays(
        [index[w] for w in succ[v]] for v in verts))}
    assert alive == set(reduce(build_graph(subset, m, digits)).vertices)


@st.composite
def digraphs(draw):
    """Successor lists on 0..n-1, n <= 40: random successor sets, which
    give empty lists and self-loops, then a chain that ends in a sink, fed
    by a cycle whose vertices keep their other successors."""
    n = draw(st.integers(0, 40))
    if not n:
        return []
    succ = [draw(st.sets(st.integers(0, n - 1), max_size=3)) for _ in range(n)]
    order = draw(st.permutations(range(n)))
    split = draw(st.integers(1, n))
    chain, rest = order[:split], order[split:]
    succ[chain[0]] = set()
    for a, b in zip(chain[1:], chain):
        succ[a] = {b}
    cycle = rest[:draw(st.integers(0, len(rest)))]
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        succ[a] |= {b, chain[-1]}
    return [tuple(draw(st.permutations(sorted(out)))) for out in succ]


@given(digraphs())
def test_prune_sinks_matches_the_naive_fixpoint(succ):
    want = walk_alive_oracle({v: set(out) for v, out in enumerate(succ)})
    offsets, targets = successor_arrays(map(list, succ))
    assert list(offsets) == [0, *itertools.accumulate(map(len, succ))]
    assert prune_sinks(offsets, targets) == sorted(want)


def test_fixpoints_build_no_labeled_graph(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("labeled graph built inside a fixpoint")

    monkeypatch.setattr(tileforge.graphs, "build_graph", forbidden)
    m, digits = setup_tile(3, 4, 10)
    s = neighbor_set(contact_set(m, digits), m, digits)
    assert len(s.points) == 14


# ---------------------------------------------------------------------------
# Oracles: the trial-division contact iteration and the tuple successor map,
# kept verbatim apart from their names.  The residue-indexed search and the
# packed images must reproduce them exactly.


def oracle_successor_map(points, matrix, diffs) -> dict:
    """a -> {M a + delta : delta in diffs} within points; with diffs = D - D
    these are the edges of build_graph(points) without their labels."""
    pset = set(points)
    return {a: pset.intersection([tuple(map(add, ma, delta)) for delta in diffs])
            for a, ma in zip(pset, map(matrix.mul_vec, pset))}


def oracle_contact_set(matrix, digits, basis=None) -> ContactSet:
    """Close {0, +-basis} under predecessors, then trim walk-dead points."""
    digits = tuple(tuple(int(x) for x in d) for d in digits)
    if basis is None:
        basis = default_contact_basis(matrix)
    basis = tuple(tuple(int(x) for x in b) for b in basis)
    zero = (0,) * matrix.size
    pts: set = {zero}
    for b in basis:
        pts.add(b)
        pts.add(vec_neg(b))
    diffs = digit_differences(digits)
    # Predecessors of points already closed were found in earlier rounds,
    # so each round solves only for the points the previous round added.
    frontier = pts
    rounds = 0
    for _ in range(MAX_ROUNDS):
        found = set()
        for l in frontier:
            for delta in diffs:
                k = matrix.solve_int(vec_add(l, delta))
                if k is not None:
                    found.add(k)
        frontier = found - pts
        if not frontier:
            break
        pts = pts | frontier
        rounds += 1
    else:
        raise RuntimeError("contact iteration exceeded 64 rounds")
    alive = walk_alive_oracle(oracle_successor_map(pts, matrix, diffs))
    return ContactSet(tuple(sorted(alive)), rounds)


def test_contact_set_matches_oracle_on_the_family():
    for abc in family_triples(12, 12, 12):
        m, digits = setup_tile(*abc)
        got, want = contact_set(m, digits), oracle_contact_set(m, digits)
        assert (got.points, got.rounds) == (want.points, want.rounds), abc


@st.composite
def residue_systems(draw):
    """An expanding matrix, a complete residue system of short digits modulo
    it that need not be collinear, and the unit vectors as seed basis."""
    matrix, _, _ = draw(expanding_systems())
    modulus = abs(matrix.det)
    box = draw(st.permutations(list(itertools.product(range(-2, 3), repeat=3))))
    classes = {}
    for v in sorted(box, key=lambda v: sum(map(abs, v))):
        key = tuple(sum(a * b for a, b in zip(r, v)) % modulus
                    for r in matrix.adjugate)
        classes.setdefault(key, v)
    assume(len(classes) == modulus)
    return matrix, tuple(classes.values()), ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@given(residue_systems())
def test_contact_set_matches_oracle_on_other_systems(system):
    matrix, digits, basis = system
    try:
        want = oracle_contact_set(matrix, digits, basis)
    except RuntimeError as exc:
        assert "exceeded 64 rounds" in str(exc)
        with pytest.raises(RoundLimitError):
            contact_set(matrix, digits, basis)
        return
    got = contact_set(matrix, digits, basis)
    assert (got.points, got.rounds) == (want.points, want.rounds)


def predecessor_closure(matrix, digits, rounds):
    """{0, +-default basis} after some rounds of adding predecessors."""
    pts = {(0,) * matrix.size}
    for b in default_contact_basis(matrix):
        pts.update((b, vec_neg(b)))
    frontier = set(pts)
    for _ in range(rounds):
        frontier = {k for l in frontier for delta in digit_differences(digits)
                    if (k := matrix.solve_int(vec_add(l, delta))) is not None}
        frontier -= pts
        pts |= frontier
    return pts


def test_contact_round_cap_names_its_stage():
    m, digits = setup_tile(5, 2, 5)
    with pytest.raises(RoundLimitError, match="contact stage"):
        contact_set(m, digits)
    with pytest.raises(RuntimeError, match="contact iteration exceeded"):
        oracle_contact_set(m, digits)


def test_successor_map_matches_oracle_on_a_diverging_frontier():
    # (5,2,5) is not in the family; its contact points grow without bound.
    m, digits = setup_tile(5, 2, 5)
    pts = predecessor_closure(m, digits, MAX_ROUNDS)
    assert len(pts) > 800
    diffs = digit_differences(digits)
    assert successor_map(pts, m, diffs) == oracle_successor_map(pts, m, diffs)


def test_successor_map_packing_base_covers_the_images():
    # The images (10,0,0) and (30,0,0) leave the points' range [-3, 3].  A
    # base bounded by the points alone (9) would pack (10,0,0) like (1,1,0),
    # and one without the factor 2 (31) would pack (30,0,0) like (-1,1,0).
    m = IntMatrix(((10, 0, 0), (0, 2, 0), (0, 0, 2)))
    pts = {(1, 0, 0), (3, 0, 0), (1, 1, 0), (-1, 1, 0)}
    got = successor_map(pts, m, ((0, 0, 0),))
    assert got == oracle_successor_map(pts, m, ((0, 0, 0),))
    assert got == {p: set() for p in pts}


@st.composite
def point_sets(draw):
    """An expanding system, its D - D, and points: a dense subset of a small
    box or a sparse set of large coordinates, with some of their images."""
    matrix, digits, _ = draw(expanding_systems())
    diffs = digit_differences(digits)
    if draw(st.booleans()):
        h = draw(st.integers(1, 3))
        box = list(itertools.product(range(-h, h + 1), repeat=3))
        pts = draw(st.sets(st.sampled_from(box), min_size=1, max_size=80))
    else:
        big = st.integers(-2 ** 70, 2 ** 70)
        pts = draw(st.sets(st.tuples(big, big, big), min_size=1, max_size=12))
    images = [vec_add(matrix.mul_vec(a), delta) for a in pts for delta in diffs]
    pts |= set(draw(st.lists(st.sampled_from(images), max_size=20)))
    return matrix, diffs, pts


@given(point_sets())
def test_successor_map_matches_oracle(case):
    matrix, diffs, pts = case
    assert successor_map(pts, matrix, diffs) == oracle_successor_map(
        pts, matrix, diffs)


# ---------------------------------------------------------------------------
# Oracle: the neighbor iteration on tuple Minkowski sums, kept verbatim
# apart from its name.  The packed sums must reproduce it exactly.


def oracle_neighbor_set(contact, matrix, digits) -> NeighborSet:
    """Iterate S <- trim(S + S0) from S0 = contact set until stable."""
    base = tuple(contact.points) if isinstance(contact, ContactSet) else tuple(contact)
    digits = tuple(tuple(int(x) for x in d) for d in digits)
    zero = (0,) * matrix.size
    s0 = {tuple(int(x) for x in p) for p in base} | {zero}
    diffs = digit_differences(digits)
    current = set(s0)
    rounds = 0
    for _ in range(MAX_ROUNDS):
        nxt = _walk_alive(minkowski_sum(current, s0), matrix, diffs)
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


def neighbor_outcome(fn, seeds, matrix, digits):
    """(points, rounds), or the type and text of the error fn raised."""
    try:
        s = fn(seeds, matrix, digits)
    except (RoundLimitError, AssertionError, ValueError) as exc:
        return type(exc), str(exc)
    return s.points, s.rounds


def test_neighbor_set_matches_oracle_on_the_family():
    for abc in family_triples(12, 12, 12):
        m, digits = setup_tile(*abc)
        c = contact_set(m, digits)
        got, want = neighbor_set(c, m, digits), oracle_neighbor_set(c, m, digits)
        assert (got.points, got.rounds) == (want.points, want.rounds), abc


def test_neighbor_sums_packing_base_covers_the_seeds():
    # The seeds +-(0,0,12) are walk-dead, so they leave after the first
    # round while their sums with the current points stay.  A packing base
    # bounded by the current points alone, without max|S0|, packs those sums
    # and their images ambiguously, and the iteration no longer settles.
    m, digits = setup_tile(1, 2, 4)
    c = contact_set(m, digits)
    seeds = set(c.points) | {(0, 0, 12), (0, 0, -12)}
    got = neighbor_set(seeds, m, digits)
    want = oracle_neighbor_set(seeds, m, digits)
    assert (got.points, got.rounds) == (want.points, want.rounds)
    assert got.points == neighbor_set(c, m, digits).points


@given(residue_systems(), st.booleans())
def test_neighbor_set_matches_oracle_on_other_systems(system, from_contact):
    # Seeded with the contact set (kept small so an example stays fast), or
    # with the seed basis alone, which need not give a negation-closed set.
    matrix, digits, basis = system
    seeds = basis
    if from_contact:
        try:
            seeds = contact_set(matrix, digits, basis).points
        except RoundLimitError:
            assume(False)
        assume(len(seeds) <= 60)
    assert neighbor_outcome(neighbor_set, seeds, matrix, digits) == (
        neighbor_outcome(oracle_neighbor_set, seeds, matrix, digits))
