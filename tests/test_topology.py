from dataclasses import dataclass
from fractions import Fraction
import re

import pytest

from tileforge import analysis, power, topology
from tileforge.analysis import AbcTriple, TileAnalysis, analysis_for, predicts_14
from tileforge.family import family_triples
from tileforge.lattice import (
    Vec,
    companion_form,
    is_expanding,
    vec_add,
    vec_sub,
)
from tileforge.power import unique_walk, vertex_set
from tileforge.topology import (
    ChainReport,
    FourFold,
    HataGraph,
    Piece,
    bing_audit,
    boundary_loop_audit,
    boundary_loop_pieces,
    census,
    classify,
    four_fold_failure,
    four_fold_placement,
    hata_graph,
    loop_chains_failure,
    make_piece,
    path_order,
    successor_hata,
    successor_paths_failure,
    walk_points_failure,
    _face_order,
)


def triple_124():
    return analysis_for((1, 2, 4))


def test_make_piece_is_frame_independent():
    left = make_piece(((1, 0, 0),), (2, 0, 0))
    right = make_piece(((-1, 0, 0),), (3, 0, 0))
    assert left == right
    assert left.shift == (2, 0, 0)


def tile_family(piece) -> set[Vec]:
    """The tiles a piece lies in: its shift s and s + v for each v."""
    vertex, shift = piece
    return {shift, *(vec_add(b, shift) for b in vertex)}


def test_link_piece_lies_in_the_tiles_of_both_its_pieces_on_the_family():
    # The audits name the point where pieces i < j meet by the canonical
    # piece of their link at piece i's shift; its tiles are those of both.
    links = 0
    for abc in members_14():
        t = analysis_for(abc)
        graphs = [boundary_loop_audit(t, alpha, k)[0]
                  for alpha in t.neighbors.points for k in (1, 2)]
        graphs += [successor_hata(t, v)[0] for v in t.level(2).vertices]
        for h in graphs:
            for i, j, gamma in h.edges:
                assert tile_family(make_piece(gamma, h.nodes[i].shift)) == (
                    tile_family(h.nodes[i]) | tile_family(h.nodes[j])), (
                        abc, i, j)
                links += 1
    assert links == 68202


def _fake(nodes, edges):
    pieces = tuple(Piece(((i + 1, 0, 0),), (0, 0, 0)) for i in range(nodes))
    return HataGraph(pieces, tuple(edges))


def test_classify_square_of_points_is_circular_chain():
    g3 = ((1, 0, 0), (2, 0, 0), (3, 0, 0))
    h = _fake(4, [(0, 1, g3), (1, 2, g3), (2, 3, g3), (0, 3, g3)])
    assert classify(h).classification == "circular_chain"


def test_classify_triangle_is_cycle_not_circular():
    g3 = ((1, 0, 0), (2, 0, 0), (3, 0, 0))
    h = _fake(3, [(0, 1, g3), (1, 2, g3), (0, 2, g3)])
    assert classify(h).classification == "cycle"


def test_classify_arc_linked_path_is_not_regular():
    arc = ((1, 0, 0), (2, 0, 0))
    h = _fake(3, [(0, 1, arc), (1, 2, arc)])
    report = classify(h)
    assert report.classification == "path"
    assert report.is_path


def test_classify_point_linked_path_is_regular_chain():
    g3 = ((1, 0, 0), (2, 0, 0), (3, 0, 0))
    h = _fake(3, [(0, 1, g3), (1, 2, g3)])
    assert classify(h).classification == "regular_chain"


def test_loop_point_on_two_links_is_refused():
    # Every piece meets its two neighbors in two distinct points, but the
    # links 0-1 and 2-3 are one point, which then lies in four pieces.
    a = ((1, 0, 0), (2, 0, 0), (3, 0, 0))
    b = ((1, 0, 0), (2, 0, 0), (4, 0, 0))
    c = ((1, 0, 0), (2, 0, 0), (5, 0, 0))
    h = _fake(4, [(0, 1, a), (0, 3, c), (1, 2, b), (2, 3, a)])
    assert classify(h).is_circular_chain
    assert topology._loop_point_failure(h) == (
        "a point lies in more than two pieces")


def test_classify_disconnected():
    h = _fake(3, [(0, 1, ((1, 0, 0), (2, 0, 0), (3, 0, 0)))])
    assert classify(h).classification == "disconnected"


def test_classify_star_is_connected_only():
    g3 = ((1, 0, 0), (2, 0, 0), (3, 0, 0))
    h = _fake(4, [(0, 1, g3), (0, 2, g3), (0, 3, g3)])
    assert classify(h).classification == "connected"


def test_planar_boundary_is_a_circular_chain_iff_6_neighbors():
    # The level-1 pieces T ∩ (T + a) of a 6-neighbour planar tile are 6
    # arcs, each meeting the next in a point where 3 tiles of R^2 meet; an
    # 8-neighbour tile has 4 pieces that are points, and a tile that is no
    # disk has more than 8 pieces.  Every expanding x^2 + p x + q with
    # |p|, |q| <= 12 and collinear digits.
    chains = 0
    for p in range(-12, 13):
        for q in range(-12, 13):
            if q == 0:
                continue
            m, digits = companion_form([1, p, q])
            if not is_expanding(m):
                continue
            t = TileAnalysis(m, digits)
            h = hata_graph(t, [((a,), (0, 0)) for a in t.neighbors.points])
            six = len(t.neighbors.points) == 6
            assert classify(h).is_circular_chain == six, (p, q)
            if six:
                assert topology._loop_point_failure(h) is None, (p, q)
            chains += six
    assert chains == 144


def test_path_order_walks_end_to_end():
    arc = ((1, 0, 0), (2, 0, 0))
    h = _fake(4, [(2, 3, arc), (0, 2, arc), (1, 3, arc)])
    order = path_order(h)
    assert order in ([0, 2, 3, 1], [1, 3, 2, 0])


def test_successor_hata_example_is_seven_node_chain():
    # One child B_dst + d per out-edge (d, dst), each at its own shift.
    t = analysis_for((2, 3, 5))
    alpha = ((-1, 0, 0), (1, 1, 0))
    h, report = successor_hata(t, alpha)
    out = t.level(2).out_edges(alpha)
    assert report.node_count == len(out) == 7
    assert report.classification == "regular_chain"
    assert all(len(gamma) == 3 for _, _, gamma in h.edges)
    assert set(h.nodes) == {make_piece(dst, d) for d, dst in out}


def test_successor_hata_trivial_vertex_is_single_node():
    t = triple_124()
    alpha = ((-1, -1, 0), (1, 0, 1))
    _, report = successor_hata(t, alpha)
    assert report.node_count == 1
    assert report.is_path


def test_all_successor_hatas_are_paths():
    assert successor_paths_failure(triple_124()) is None
    assert successor_paths_failure(analysis_for((2, 3, 5))) is None


def test_loop_around_first_basis_vector_has_six_pieces():
    t = triple_124()
    h, report = boundary_loop_audit(t, (1, 0, 0), 1)
    assert report.node_count == 6
    assert report.classification == "circular_chain"


def test_loop_node_counts_match_arc_membership():
    t = triple_124()
    expected = {(1, 0, 0): 6, (1, 1, 0): 4, (2, 1, 1): 6, (0, 1, 0): 6,
                (1, 0, 1): 6, (1, 1, 1): 4, (2, 0, 1): 4}
    for alpha, count in expected.items():
        _, report = boundary_loop_audit(t, alpha, 1)
        assert report.node_count == count
        _, mirrored = boundary_loop_audit(t, tuple(-x for x in alpha), 1)
        assert mirrored.node_count == count


def test_deeper_loops_stay_circular():
    t = triple_124()
    for k in (2, 3):
        h, report = boundary_loop_audit(t, (1, 0, 0), k)
        assert report.classification == "circular_chain"
        assert report.node_count > 6


def test_loop_chain_audit_accepts_124():
    assert loop_chains_failure(triple_124(), 2) is None


def test_loop_rejects_unknown_direction():
    with pytest.raises(ValueError):
        boundary_loop_audit(triple_124(), (9, 9, 9), 1)


def test_four_fold_puts_two_triple_points_in_distinct_children():
    t = triple_124()
    alpha = ((-1, 0, 0), (0, 1, 0))
    ff = four_fold_placement(t, alpha)
    assert len(ff.pair) == 2
    assert ff.children == (((2, 0, 0), ((0, -1, 0), (1, 0, 1))),
                           ((0, 0, 0), ((0, -1, 0), (1, 0, 1))))
    assert set(ff.children) <= set(t.level(2).out_edges(alpha))


def test_four_fold_trivial_vertex_has_one_child():
    t = triple_124()
    alpha = ((-1, -1, 0), (1, 0, 1))
    ff = four_fold_placement(t, alpha)
    assert ff.children[0] == ff.children[1]
    assert t.level(2).out_edges(alpha) == (ff.children[0],)


def test_four_fold_refuses_a_triple_point_with_two_steps():
    # A triple point with two steps has no single step to place it by, even
    # when both steps read one digit and reach one vertex.
    t = TileAnalysis(*AbcTriple(1, 2, 4).system())
    alpha = ((-1, 0, 0), (0, 1, 0))
    g3 = t.level(3)
    w = four_fold_placement(t, alpha).pair[0]
    g3.__dict__["_out"] = {**g3._out, w: g3._out[w] * 2}
    with pytest.raises(ValueError, match=re.escape(f"{w} has 2 out-edges, not 1")):
        four_fold_placement(t, alpha)


def test_census_124():
    c = census((1, 2, 4))
    assert (c.faces, c.edges, c.points) == (14, 36, 24)
    assert c.euler == 2
    assert c.degree_sequence == (4,) * 6 + (6,) * 8


def test_census_3_4_10():
    c = census((3, 4, 10))
    assert (c.faces, c.edges, c.points, c.euler) == (14, 36, 24, 2)
    assert c.degree_sequence == (4,) * 6 + (6,) * 8


def test_census_rejects_outside_family():
    with pytest.raises(ValueError):
        census((1, 1, 2))


def test_walk_points_audit_accepts_124():
    assert walk_points_failure(triple_124()) is None


def test_walk_points_audit_reads_the_word_from_every_member(monkeypatch):
    # A triple point's word must label a walk from each of its members;
    # refusing it from the last member of one vertex alone is named.
    t = TileAnalysis(*AbcTriple(1, 2, 4).system())
    v = t.level(3).vertices[0]
    word = t.walk(v)
    real = power.word_admissible_from

    def refusing(base, start, w):
        return (start, w) != (v[-1], word) and real(base, start, w)

    monkeypatch.setattr(power, "word_admissible_from", refusing)
    assert walk_points_failure(t) == (
        f"walk word of {v} is not admissible from {v[-1]}")


def test_face_order_enumerates_neighbors():
    t = triple_124()
    order = _face_order(AbcTriple(1, 2, 4))
    assert len(order) == 14
    assert set(order) == set(t.neighbors.points)


def test_bing_audit_passes_on_124():
    report = bing_audit((1, 2, 4), k_max=2)
    assert report.ok
    assert report.messages == ()
    assert all(ok for _, _, _, ok in report.loop_checks)
    assert all(ok for *_rest, ok in report.partition_checks)


def test_bing_audit_fails_a_loop_that_is_a_chain_without_witness(monkeypatch):
    # A regular chain carries no witness; the audit must still fail it.
    real = topology.classify

    def broken(h):
        report = real(h)
        if report.is_circular_chain:
            return report._replace(classification="regular_chain")
        return report

    monkeypatch.setattr(topology, "classify", broken)
    report = bing_audit((1, 2, 4), k_max=1)
    failed = [c for c in report.loop_checks if not c[3]]
    assert len(failed) == 14
    assert not report.ok
    assert len(report.messages) == len(failed)
    assert report.messages[0] == loop_chains_failure((1, 2, 4))
    assert report.messages[0].endswith(" at depth 1 is regular_chain")


def test_bing_audit_takes_a_family_context():
    assert bing_audit(analysis_for((1, 2, 4)), k_max=1) == bing_audit(
        (1, 2, 4), k_max=1)


@pytest.mark.parametrize("basis", [None, ((1, 0, 0), (1, 1, 0), (2, 1, 1))])
def test_bing_audit_reads_the_family_member_off_any_spelling(basis):
    t = TileAnalysis(*companion_form([1, 1, 2, 4]), basis)
    assert bing_audit(t, k_max=1) == bing_audit((1, 2, 4), k_max=1)


def test_bing_audit_rejects_a_system_outside_the_family():
    # x^3 - 2x + 3 has 14 neighbours, but no family triple to order faces by.
    t = TileAnalysis(*companion_form([1, 0, -2, 3]))
    with pytest.raises(ValueError, match="audit needs a family member"):
        bing_audit(t, k_max=1)


def test_bing_second_attachment_set_is_single_arc():
    report = bing_audit((1, 2, 4), k_max=1)
    index, alpha, arc_count, ok = report.partition_checks[0]
    assert index == 2
    assert alpha == (2, 0, 1)
    assert arc_count == 1
    assert ok


def test_bing_face_equations_have_odd_sizes():
    report = bing_audit((1, 2, 4), k_max=1)
    sizes = {alpha: count for alpha, count, _, _ in report.equation_checks}
    assert sizes[(2, 1, 1)] == 1
    assert sizes[(1, 0, 0)] == 7
    assert all(count % 2 == 1 for count in sizes.values())


def test_hata_graph_dedupes_equal_pieces():
    t = triple_124()
    pieces = [(((1, 0, 0),), (0, 0, 0)), (((-1, 0, 0),), (1, 0, 0))]
    h = hata_graph(t, pieces)
    assert len(h.nodes) == 1


def test_hata_graph_canonicalises_a_piece_given_as_a_piece():
    # Piece(v, 0) is not canonical: it is the piece below, framed by another
    # member of its tile family, so it and the pair (v, 0) are one node.
    t = triple_124()
    v = ((-2, -1, -1), (-2, 0, -1))
    h = hata_graph(t, [Piece(v, (0, 0, 0)), (v, (0, 0, 0))])
    assert h.nodes == (Piece(((0, 1, 0), (2, 1, 1)), (-2, -1, -1)),)
    assert h.edges == ()


@pytest.mark.parametrize("abc", [(1, 2, 4), (3, 4, 10)])
def test_hata_graph_of_a_piece_equals_that_of_its_pair(abc):
    t = analysis_for(abc)
    for v in t.level(2).vertices:
        for s in ((0, 0, 0), t.neighbors.points[0]):
            assert hata_graph(t, [Piece(v, s)]) == hata_graph(t, [(v, s)]), (
                v, s)


def test_piece_is_its_pair():
    t = triple_124()
    pairs = [(v, s) for v in t.level(2).vertices
             for s in ((0, 0, 0), (0, 1, 0), (-1, 0, 0))]
    pieces = [Piece(v, s) for v, s in pairs]
    assert pieces == pairs
    assert [tuple(p) for p in sorted(pieces)] == sorted(pairs)
    v, s = pairs[0]
    assert repr(pieces[0]) == f"Piece(vertex={v!r}, shift={s!r})"


# ---------------------------------------------------------------------------
# Oracles: hata_graph's by-shift enumeration and the walk, kept verbatim
# apart from their names (the oracle Hata graph canonicalises every piece
# with make_piece), and a four-fold placement that reads each triple
# point's child off the full level-2 and level-3 edge lists.  The link memo
# and the out-edge index must reproduce them exactly.


def oracle_hata_graph(ctx, pieces) -> HataGraph:
    """Intersection graph of pieces given as (vertex, shift) pairs or Pieces."""
    t = analysis_for(ctx)
    canon = sorted({make_piece(*p) for p in pieces})
    by_shift: dict[Vec, list[int]] = {}
    for i, p in enumerate(canon):
        by_shift.setdefault(p.shift, []).append(i)
    zero = (0,) * t.matrix.size
    offsets = (zero,) + t.neighbors.points
    edges = []
    for i, p in enumerate(canon):
        for off in offsets:
            for j in by_shift.get(vec_add(p.shift, off), ()):
                if j <= i:
                    continue
                q = canon[j]
                gamma = t.intersection(p.vertex, p.shift, q.vertex, q.shift)
                if gamma is not None:
                    edges.append((i, j, gamma))
    return HataGraph(tuple(canon), tuple(sorted(edges)))


def oracle_walk(self, vertex):
    return unique_walk(self.level(len(vertex)), vertex)


def oracle_four_fold_placement(ctx, alpha_set) -> FourFold:
    """Exactly two triple-points bound each arc; returns them with the
    children of the arc that hold them: the child along the level-2 edge
    (vs, d, v') holds w when w's walk starts with d and its first step
    (w, d, w') has v' inside w'."""
    t = analysis_for(ctx)
    vs = vertex_set(alpha_set)
    supersets = [w for w in t.level(3).vertices if set(vs) <= set(w)]
    if len(supersets) != 2:
        raise ValueError(f"{vs} lies in {len(supersets)} level-3 vertices, not 2")
    children = []
    for w in supersets:
        word = oracle_walk(t, w)
        d = (word.preperiod + word.period)[0]
        steps = [dst for src, dw, dst in t.level(3).edges
                 if src == w and dw == d]
        held = [(d, v) for src, dv, v in t.level(2).edges
                if src == vs and dv == d
                and any(set(v) <= set(w2) for w2 in steps)]
        if len(held) != 1:
            raise ValueError(f"{w} lies in {len(held)} children of {vs}, not 1")
        children.append(held[0])
    return FourFold((supersets[0], supersets[1]), (children[0], children[1]))


def members_14():
    members = [abc for abc in family_triples(12, 12, 12) if predicts_14(abc)]
    assert len(members) == 111
    return members


# ---------------------------------------------------------------------------
# Oracle: word-addressed subdivision, which replayed each piece's digit word
# to find its shift, kept verbatim apart from its names.  Subdivision of
# (vertex, shift) pieces must give the same loop pieces in the same order.


@dataclass(frozen=True)
class OracleSubtileRef:
    """Piece of a boundary set after depth-1 subdivision steps.

    The piece denoted is M^-(depth-1) (B_vertex + shift(word)) where word
    lists the left digits of the walk from the root.
    """

    depth: int
    word: tuple[Vec, ...]
    vertex: tuple

    def __post_init__(self):
        if self.depth < 1 or len(self.word) != self.depth - 1:
            raise ValueError("word length must equal depth - 1")


def oracle_ref_shift(matrix, word) -> Vec:
    """Accumulated translation of a walk word in the piece's own scale."""
    c = (0,) * matrix.size
    for d in word:
        c = vec_add(matrix.mul_vec(c), d)
    return c


def oracle_subdivide(graph, ref: OracleSubtileRef, steps: int) -> tuple:
    """Expand a piece through `steps` rounds of one-step walk children."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    frontier = [ref]
    for _ in range(steps):
        nxt = []
        for r in frontier:
            for d, dst in sorted(graph.out_edges(r.vertex)):
                nxt.append(OracleSubtileRef(r.depth + 1, r.word + (d,), dst))
        frontier = nxt
    return tuple(frontier)


def oracle_boundary_loop_pieces(ctx, alpha: Vec, k: int = 1) -> tuple:
    """Depth-k pieces of the closed piece loop around one neighbor."""
    topology._check_loop_depth(k)
    t = analysis_for(ctx)
    alpha = tuple(int(x) for x in alpha)
    faces = [v for v in t.level(2).vertices if alpha in v]
    if not faces:
        raise ValueError(f"{alpha} appears in no level-2 vertex")
    g2 = t.level(2)
    pieces = []
    for f in faces:
        for ref in oracle_subdivide(g2, OracleSubtileRef(1, (), f), k - 1):
            pieces.append((ref.vertex, oracle_ref_shift(t.matrix, ref.word)))
    return tuple(pieces)


def test_loop_pieces_match_the_word_oracle_on_the_family():
    for abc in members_14():
        t = analysis_for(abc)
        for alpha in t.neighbors.points:
            for k in (1, 2, 3):
                assert boundary_loop_pieces(t, alpha, k) == \
                    oracle_boundary_loop_pieces(t, alpha, k), (abc, alpha, k)


def test_loop_pieces_match_the_word_oracle_at_depth_4():
    t = analysis_for((6, 8, 12))
    for alpha in t.neighbors.points:
        pieces = boundary_loop_pieces(t, alpha, 4)
        assert pieces == oracle_boundary_loop_pieces(t, alpha, 4), alpha
        assert len(pieces) > len(boundary_loop_pieces(t, alpha, 3))


def test_shift0_hata_graphs_match_oracle_on_the_family():
    # The successor graphs are built on the children of a vertex at shift
    # 0, which the word oracle gives with their own shifts.
    for abc in members_14():
        t = analysis_for(abc)
        g2 = t.level(2)
        for v in g2.vertices:
            children = [(ref.vertex, oracle_ref_shift(t.matrix, ref.word))
                        for ref in oracle_subdivide(
                            g2, OracleSubtileRef(1, (), v), 1)]
            assert len(children) == len(g2.out_edges(v))
            assert successor_hata(t, v)[0] == oracle_hata_graph(
                t, children), (abc, v)
        for alpha in t.neighbors.points:
            assert boundary_loop_audit(t, alpha, 1)[0] == oracle_hata_graph(
                t, boundary_loop_pieces(t, alpha, 1)), (abc, alpha)


def test_hata_graph_matches_oracle_on_mixed_and_duplicated_pieces():
    t = analysis_for((2, 3, 5))
    zero = (0, 0, 0)
    faces = t.level(2).vertices
    # faces[0] seen from the frame of its first member: a nonzero shift.
    base = faces[0][0]
    reframed = (vertex_set(vec_sub(x, base) for x in (zero,) + faces[0]
                           if x != base), base)
    cases = [
        [(v, zero) for v in faces[:6]] + [(faces[6], t.neighbors.points[0])],
        [(v, zero) for v in faces[:5]] * 2
        + [(tuple(reversed(faces[0])), zero)],
        [(v, zero) for v in faces[:5]] + [reframed],
        [make_piece(v, zero) for v in faces[:4]] + [(faces[4], zero)],
        boundary_loop_pieces(t, (1, 0, 0), 2),
        [],
    ]
    for pieces in cases:
        assert hata_graph(t, pieces) == oracle_hata_graph(t, pieces)
    assert len(hata_graph(t, cases[1]).nodes) == 5
    assert len(hata_graph(t, cases[2]).nodes) == 5


def test_links_are_decided_once_and_only_at_neighbor_offsets(monkeypatch):
    calls = []
    real = analysis.intersection_vertex

    def recording(beta1, a1, beta2, a2, is_vertex):
        calls.append((beta1, a1, beta2, a2))
        return real(beta1, a1, beta2, a2, is_vertex)

    monkeypatch.setattr(analysis, "intersection_vertex", recording)
    t = TileAnalysis(*AbcTriple(2, 3, 5).system())
    assert successor_paths_failure(t) is None
    assert loop_chains_failure(t) is None
    decided = len(calls)
    assert 0 < decided <= len(t.links)
    assert len(set(calls)) == decided
    offsets = {(0, 0, 0), *t.neighbors.points}
    assert all(vec_sub(a2, a1) in offsets for _, a1, _, a2 in calls)
    assert successor_paths_failure(t) is None
    assert loop_chains_failure(t) is None
    assert len(calls) == decided


def face_equation_pieces(t, alpha):
    return [make_piece((e.dst,), e.d) for e in t.boundary_graph.out_edges(alpha)]


@pytest.mark.parametrize("abc", [(1, 2, 4), (3, 4, 10), (6, 8, 12)])
def test_hata_graph_matches_oracle_on_loops_and_face_equations(abc):
    t = analysis_for(abc)
    for alpha in t.neighbors.points:
        for k in (1, 2, 3):
            pieces = boundary_loop_pieces(t, alpha, k)
            assert hata_graph(t, pieces) == oracle_hata_graph(t, pieces), (
                alpha, k)
        pieces = face_equation_pieces(t, alpha)
        assert hata_graph(t, pieces) == oracle_hata_graph(t, pieces), alpha


def test_translated_pieces_keep_their_links():
    t = analysis_for((3, 4, 10))
    pieces = boundary_loop_pieces(t, (1, 0, 0), 2)
    h = hata_graph(t, pieces)
    for off in t.neighbors.points[:4]:
        moved = [(v, vec_add(s, off)) for v, s in pieces]
        h_moved = hata_graph(t, moved)
        assert h_moved == oracle_hata_graph(t, moved)
        assert h_moved.edges == h.edges
        assert h_moved.nodes == tuple(
            Piece(p.vertex, vec_add(p.shift, off)) for p in h.nodes)


def test_bing_audit_equals_its_run_on_the_oracle(monkeypatch):
    report = bing_audit((6, 8, 12), k_max=4)
    monkeypatch.setattr(topology, "hata_graph", oracle_hata_graph)
    assert bing_audit((6, 8, 12), k_max=4) == report
    assert report.ok


@pytest.mark.parametrize("k, message", [(0, "k must be at least 1"),
                                        (7, "k must be at most 6")])
def test_loop_depth_out_of_range_builds_no_loop(k, message, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a loop was built")

    monkeypatch.setattr(topology, "subdivide", forbidden)
    monkeypatch.setattr(topology, "analysis_for", forbidden)
    for run in (lambda: boundary_loop_pieces((1, 2, 4), (1, 0, 0), k),
                lambda: loop_chains_failure((1, 2, 4), k),
                lambda: bing_audit((1, 2, 4), k_max=k)):
        with pytest.raises(ValueError, match=message):
            run()


def test_memoised_walks_and_four_fold_match_oracle_on_the_family():
    for abc in members_14():
        t = analysis_for(abc)
        for v in t.level(3).vertices:
            assert t.walk(v) == oracle_walk(t, v), (abc, v)
        for v in t.level(2).vertices:
            assert four_fold_placement(t, v) == oracle_four_fold_placement(
                t, v), (abc, v)


def test_triple_points_lie_in_the_end_children_on_the_family():
    # Both audits read an arc's children off its out-edges: the chain of
    # children runs from the child holding one triple point to the child
    # holding the other.
    for abc in members_14():
        t = analysis_for(abc)
        for v in t.level(2).vertices:
            h, _ = successor_hata(t, v)
            order = path_order(h)
            ff = four_fold_placement(t, v)
            assert {make_piece(dst, d) for d, dst in ff.children} == {
                h.nodes[order[0]], h.nodes[order[-1]]}, (abc, v)


def test_walk_is_found_once_per_vertex_and_failures_are_not_kept(
        monkeypatch):
    calls = []
    real = analysis.unique_walk

    def recording(graph, vertex):
        calls.append(vertex)
        return real(graph, vertex)

    monkeypatch.setattr(analysis, "unique_walk", recording)
    t = TileAnalysis(*AbcTriple(1, 2, 4).system())
    assert four_fold_failure(t) is None
    assert walk_points_failure(t) is None
    assert sorted(calls) == sorted(t.level(3).vertices)
    branching = vertex_set(((-1, 0, 0), (0, 1, 0)))
    for _ in range(2):
        with pytest.raises(ValueError, match="outgoing"):
            t.walk(branching)
    assert calls[-2:] == [branching, branching]
