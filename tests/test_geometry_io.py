import fractions
import hashlib
import json
import os
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tileforge import cli, geometry_io
from tileforge.analysis import analysis_for, check_system
from tileforge.family import sweep
from tileforge.graphs import BoundaryGraph, LabeledEdge
from tileforge.geometry_io import (
    PointCloud,
    approximate_boundary_piece,
    approximate_tile,
    attractor_radius,
    boundary_point_count,
    export,
    json_text,
    merge_clouds,
    render,
    to_dot,
)
from tileforge.lattice import Vec, companion_form

from strategies import expanding_systems, residue_systems, run_fresh


def system_124():
    return companion_form([1, 1, 2, 4])


# Oracle: the walks of one length from one start, counted forward from
# that start alone, kept verbatim apart from its name.  The boundary
# set-up counts them for every vertex in one backward pass.
def oracle_count_walks(graph: BoundaryGraph, start: Vec, depth: int) -> int:
    counts = {start: 1}
    for _ in range(depth):
        nxt: dict[Vec, int] = {}
        for v, c in counts.items():
            for e in graph.out_edges(v):
                nxt[e.dst] = nxt.get(e.dst, 0) + c
        counts = nxt
    return sum(counts.values())


def float_rows(points):
    """Every point of a cloud's rows as floats, in order: each block's
    distinct rows, repeated by its index."""
    for floats, index in points.float_blocks():
        rows = list(zip(*floats))
        yield from rows if index is None else map(rows.__getitem__, index)


def test_tile_depth_one_points_are_inverse_digit_images():
    M, digits = system_124()
    cloud = approximate_tile(M, digits, 1)
    col = (Fraction(-1, 2), Fraction(-1, 4), Fraction(-1, 4))
    expected = {tuple(i * x for x in col) for i in range(4)}
    assert set(cloud.points) == expected
    assert len(cloud.points) == 4


def test_tile_point_count_is_exponential():
    M, digits = system_124()
    assert len(approximate_tile(M, digits, 2).points) == 16
    assert len(approximate_tile(M, digits, 3).points) == 64


def test_tile_points_stay_inside_reported_radius():
    M, digits = system_124()
    cloud = approximate_tile(M, digits, 4)
    assert cloud.bound > 0
    for row in float_rows(cloud.points):
        assert max(abs(x) for x in row) <= cloud.bound + 1e-9


def test_tile_cap_rejects_large_enumerations(monkeypatch):
    M, digits = system_124()
    monkeypatch.setenv("TILEFORGE_CAP_POINTS", "100")
    with pytest.raises(ValueError):
        approximate_tile(M, digits, 4)


def test_cap_env_override(monkeypatch):
    M, digits = system_124()
    monkeypatch.setenv("TILEFORGE_CAP_POINTS", "10")
    with pytest.raises(ValueError):
        approximate_tile(M, digits, 2)
    monkeypatch.setenv("TILEFORGE_CAP_POINTS", "1000000")
    assert len(approximate_tile(M, digits, 2).points) == 16


def test_tile_rejects_non_expanding_matrix():
    from tileforge.lattice import IntMatrix, collinear_digit_set

    M = IntMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 2)))
    with pytest.raises(ValueError):
        approximate_tile(M, collinear_digit_set(M, (0, 0, 1)), 1)


@pytest.fixture
def no_points(monkeypatch):
    """Fail the test if approximate_tile makes a point."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a point was made")

    for name in ("check_cap", "_level_columns", "_walk_blocks"):
        monkeypatch.setattr(geometry_io, name, forbidden)


@pytest.mark.parametrize("digits", [
    [(0, 0), (1, 0), (2, 0), (3, 0)],
    [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0, 0)],
], ids=["planar-digits", "one-long-digit"])
def test_tile_refuses_digits_of_the_wrong_length(digits, no_points):
    # Each digit needs one coordinate per matrix row; 2-wide digits of a
    # 3x3 matrix used to give a cloud of 3-wide rows.
    M, _ = system_124()
    with pytest.raises(ValueError, match="every digit needs 3 coordinates"):
        approximate_tile(M, digits, 2)


@pytest.mark.parametrize("digits,depth,message", [
    ([(0, 0, 0)] * 4, 2, "digit set contains duplicates"),
    ([(i, 0, 0) for i in (0, 2, 4, 6)], 3, "not a complete residue system"),
], ids=["four-origins", "even-multiples"])
def test_tile_refuses_digit_sets_that_make_no_tile(digits, depth, message,
                                                    no_points):
    # These gave 16 and 64 points.
    M, _ = system_124()
    with pytest.raises(ValueError, match=message):
        approximate_tile(M, digits, depth)


@pytest.mark.parametrize("fmt", ["ply", "csv"])
def test_export_refuses_a_planar_cloud_under_an_xyz_header(fmt, tmp_path):
    # The PLY and CSV headers name x, y and z; a planar cloud is refused
    # before the path is opened, so no file is made and none is changed.
    cloud = approximate_tile(*companion_form([1, 1, 3]), 2)
    new, old = tmp_path / f"new.{fmt}", tmp_path / f"old.{fmt}"
    old.write_text("kept\n")
    for path in (new, old):
        with pytest.raises(ValueError, match="x, y and z columns, not 2"):
            export(cloud, fmt, path)
    assert not new.exists()
    assert old.read_text() == "kept\n"
    with pytest.raises(ValueError, match="not 2"):
        render(cloud, fmt)
    export(cloud, "json", new)
    assert {len(p) for p in json.loads(new.read_text())["points"]} == {2}


def test_boundary_piece_single_walk_from_far_corner():
    t = analysis_for((1, 2, 4))
    cloud = approximate_boundary_piece(t, (2, 1, 1), 1)
    assert list(cloud.points) == [(Fraction(0), Fraction(0), Fraction(0))]
    assert cloud.tags is not None and len(cloud.tags) == 1


def test_boundary_piece_counts_follow_walks():
    t = analysis_for((1, 2, 4))
    g = t.boundary_graph
    for alpha in ((1, 0, 0), (1, 1, 0)):
        for depth in (1, 2, 3):
            expected = oracle_count_walks(g, alpha, depth)
            cloud = approximate_boundary_piece(t, alpha, depth)
            assert len(cloud.points) == expected


def test_boundary_point_count_sums_the_walks_from_every_face():
    for abc in ((1, 2, 4), (2, 3, 5)):
        t = analysis_for(abc)
        for depth in (1, 2, 4):
            assert boundary_point_count(t, depth) == sum(
                oracle_count_walks(t.boundary_graph, a, depth)
                for a in t.neighbors.points)
    with pytest.raises(ValueError, match="depth must be at least 1"):
        boundary_point_count(t, 0)


def test_boundary_render_sets_up_once_for_all_faces(monkeypatch, tmp_path):
    # One radius, one column table and one pass over each vertex's edges
    # serve the cap check and all 14 faces of (1,2,4).
    t = analysis_for((1, 2, 4))
    assert len(t.neighbors.points) == 14
    calls = Counter()

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("attractor_radius", "_level_columns"):
        counted(geometry_io, name)
    counted(BoundaryGraph, "out_edges")
    geometry_io._boundary_walks.cache_clear()
    geometry_io._boundary_setup.cache_clear()
    out = tmp_path / "b.ply"
    assert cli.main(["render", "--abc", "1,2,4", "--boundary", "--depth", "3",
                     "--ply", str(out)]) == 0
    assert calls == {"attractor_radius": 1, "_level_columns": 1,
                     "out_edges": 14}


def test_boundary_piece_rejects_non_neighbor():
    t = analysis_for((1, 2, 4))
    with pytest.raises(ValueError):
        approximate_boundary_piece(t, (9, 9, 9), 2)


def test_boundary_tags_index_the_face():
    t = analysis_for((1, 2, 4))
    alpha = (1, 0, 0)
    cloud = approximate_boundary_piece(t, alpha, 2)
    assert set(cloud.tags) == {t.neighbors.points.index(alpha)}


def test_merge_concatenates_tagged_clouds():
    t = analysis_for((1, 2, 4))
    pieces = [approximate_boundary_piece(t, a, 2)
              for a in t.neighbors.points[:3]]
    merged = merge_clouds(pieces)
    assert len(merged.points) == sum(len(p.points) for p in pieces)
    assert len(set(merged.tags)) == 3


def test_merge_rejects_mixed_tagging():
    M, digits = system_124()
    plain = approximate_tile(M, digits, 1)
    t = analysis_for((1, 2, 4))
    tagged = approximate_boundary_piece(t, (1, 0, 0), 1)
    with pytest.raises(ValueError):
        merge_clouds([plain, tagged])


def test_radius_estimate_is_finite_and_positive():
    M, digits = system_124()
    r = attractor_radius(M, digits)
    assert 0 < r < 100


def dot_name(v):
    return ",".join(map(str, v))


def test_contact_graph_dot_round_trip():
    # Every vertex and every edge once, sorted, with digit-index labels.
    t = analysis_for((1, 2, 4))
    g = t.contact_graph
    assert len(g.vertices) == 14
    text = to_dot(g)
    assert '"2,1,1"' in text
    assert text.startswith("digraph {\n") and text.endswith("\n}\n")
    index = {d: i for i, d in enumerate(g.digits)}
    edges = sorted((e.src, e.dst, index[e.d], index[e.d_prime])
                   for e in g.edges)
    assert text.splitlines()[1:-1] == (
        [f'  "{dot_name(v)}";' for v in sorted(g.vertices)]
        + [f'  "{dot_name(a)}" -> "{dot_name(b)}" [label="{d}|{dp}"];'
           for a, b, d, dp in edges])


def test_dot_keeps_isolated_vertices():
    M, digits = system_124()
    loop = LabeledEdge((0, 0, 1), (0, 0, 1), digits[0], digits[0])
    g = BoundaryGraph(((0, 0, 1), (5, 5, 5)), (loop,), M, digits)
    assert to_dot(g) == ('digraph {\n  "0,0,1";\n  "5,5,5";\n'
                         '  "0,0,1" -> "0,0,1" [label="0|0"];\n}\n')


def test_ply_header_counts_vertices():
    M, digits = system_124()
    cloud = approximate_tile(M, digits, 2)
    text = render(cloud, "ply")
    assert "element vertex 16" in text
    assert "property uchar face" not in text
    assert text.endswith("\n")


def test_ply_tagged_cloud_declares_face_property():
    t = analysis_for((1, 2, 4))
    cloud = approximate_boundary_piece(t, (1, 0, 0), 2)
    text = render(cloud, "ply")
    assert "property uchar face" in text
    body = text.split("end_header\n")[1]
    assert all(len(line.split()) == 4 for line in body.strip().split("\n"))


def test_csv_cloud_golden():
    cloud = PointCloud(((Fraction(-1, 2), Fraction(0), Fraction(1, 4)),),
                       1, "test", 1.0)
    assert render(cloud, "csv") == "x,y,z\n-0.5,0,0.25\n"


def test_render_rejects_incompatible_pairs():
    M, digits = system_124()
    cloud = approximate_tile(M, digits, 1)
    with pytest.raises(ValueError):
        render(cloud, "dot")
    t = analysis_for((1, 2, 4))
    with pytest.raises(ValueError):
        render(t.contact_graph, "ply")


def test_render_is_deterministic():
    M, digits = system_124()
    one = render(approximate_tile(M, digits, 3), "ply")
    two = render(approximate_tile(M, digits, 3), "ply")
    assert one == two


def test_export_sweep_records_csv(tmp_path):
    records = sweep(2, 2, 3, parallelism=1)
    path = tmp_path / "records.csv"
    export(records, "csv", path)
    text = path.read_text()
    assert text.startswith("A,B,C,neighbor_count,")
    assert "\r" not in text


def test_export_json_report(tmp_path):
    path = tmp_path / "report.json"
    export({"b": 2, "a": 1}, "json", path)
    assert path.read_text() == '{\n  "a": 1,\n  "b": 2\n}\n'


# Digests of the parent implementation's output (exact Fraction sums, one
# float() per coordinate), recorded before the integer render path existed.
# Every family member has det = -C < 0, so odd depths cover the case where
# an unsigned denominator det^n is negative and a zero would print as -0.
GOLDEN = {
    ("1,2,4", "tile", 5): (
        "3c626537d16a77b21b2a22cda651863653e13571f787110f48694bbb1328e222",
        "165b12c61708ec989d6870a083d119e70d7cf29758d0ac984d6f7f75c9485916",
        "dea7906b698873fafe5d2373e943e5dfa28fd665f8de8f7e4064f0e46cb18e45"),
    ("1,1,4", "tile", 5): (
        "c999ab08d823f55fdd75971aed7866ea6b31270a3178dd5c95fae86622dec579",
        "db862d9674b733f855055435b5c0e51aeca34d530d6c27e8de267e1e352dff24",
        "4957f2d8961ed827bacf8734631506df740f84365314aa4863af9fb2ac397818"),
    ("1,2,4", "boundary", 4): (
        "56fe7bfb4907bd5327830e0449954d90086235e6c28cb3efb0cfab8dcfc4fc6f",
        "e45851a82459b26f3e8c94819a764190df295ffb338c89a666fdc7818416ead1",
        "70de0515917640bfb239bd4c47f4e4658afa053da392a35494f70b706235c061"),
    ("1,1,4", "boundary", 4): (
        "97b1d9d47f0b0ddf1dd74ed7862ef50f4747cdd59ae52c6bb9e8a41bea219720",
        "46be61349a3af64572906307283bd4dcd55dc104776b518b1bc2151a0c42bfb4",
        "15d5324a736ecea17ed4f0ee0acd6a285c9d275c048c236d0c1342bc9c209337"),
    ("1,1,4", "boundary", 3): (
        "7f244461adaebb7f265c97ad858d485468e72c22a62547735e13e9120c74b7d0",
        "134eb07cbf2f7ca9f6a848ea336edada1bdc5141e184b8643d44d9505faf2981",
        "b0eb3342e38960e2cef2af9ccd73724fa759669eae7c03edf95057480dfded45"),
}


@pytest.mark.parametrize("abc,kind,depth", sorted(GOLDEN))
def test_cloud_writers_match_golden_digests(abc, kind, depth, tmp_path):
    paths = {fmt: tmp_path / f"cloud.{fmt}" for fmt in ("csv", "json", "ply")}
    argv = ["render", "--abc", abc, "--depth", str(depth)]
    if kind == "boundary":
        argv.append("--boundary")
    for fmt, path in paths.items():
        argv += [f"--{fmt}", str(path)]
    assert cli.main(argv) == 0
    got = tuple(hashlib.sha256(paths[fmt].read_bytes()).hexdigest()
                for fmt in ("csv", "json", "ply"))
    assert got == GOLDEN[abc, kind, depth]


def fraction_tile(matrix, digits, depth):
    """Reference: every depth-n word point as an exact Fraction sum."""
    cols = []
    current = {d: tuple(Fraction(x) for x in d) for d in digits}
    for _ in range(depth):
        current = {d: matrix.solve_fraction(v) for d, v in current.items()}
        cols.append(current)
    points = [(Fraction(0),) * matrix.size]
    for col in cols:
        points = [tuple(a + b for a, b in zip(p, col[d]))
                  for p in points for d in digits]
    return points


def fraction_boundary_piece(t, alpha, depth):
    """Reference: the Fraction sum along every walk, depth first."""
    g = t.boundary_graph
    zero = (Fraction(0),) * t.matrix.size
    walks = [(zero, alpha)]
    image = {d: tuple(Fraction(x) for x in d) for d in t.digits}
    for _ in range(depth):
        image = {d: t.matrix.solve_fraction(v) for d, v in image.items()}
        walks = [(tuple(a + b for a, b in zip(p, image[e.d])), e.dst)
                 for p, v in walks for e in sorted(g.out_edges(v))]
    return [p for p, _ in walks]


@given(st.one_of(residue_systems(), expanding_systems()), st.integers(1, 3))
def test_integer_rows_equal_fraction_sums(system, depth):
    # A system that check_system refuses makes no tile, and no cloud.
    matrix, digits, _ = system
    try:
        check_system(matrix, digits)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            approximate_tile(matrix, digits, depth)
        return
    cloud = approximate_tile(matrix, digits, depth)
    expected = fraction_tile(matrix, digits, depth)
    assert cloud.points.denominator == abs(matrix.det) ** depth
    assert list(cloud.points) == expected
    assert list(float_rows(cloud.points)) == [
        tuple(map(float, p)) for p in expected]


@pytest.mark.parametrize("abc", [(1, 1, 4), (1, 2, 4), (2, 3, 5)])
def test_boundary_rows_equal_fraction_sums(abc):
    t = analysis_for(abc)
    for alpha in t.neighbors.points:
        for depth in (1, 3):
            cloud = approximate_boundary_piece(t, alpha, depth)
            expected = fraction_boundary_piece(t, alpha, depth)
            assert list(cloud.points) == expected


def test_points_view_is_sized_without_fractions(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    M, digits = system_124()
    monkeypatch.setattr(fractions, "Fraction", forbidden)
    cloud = approximate_tile(M, digits, 6)
    assert len(cloud.points) == 4 ** 6
    t = analysis_for((1, 2, 4))
    piece = approximate_boundary_piece(t, (1, 0, 0), 4)
    assert len(piece.points) == len(piece.tags) == oracle_count_walks(
        t.boundary_graph, (1, 0, 0), 4)
    text = render(merge_clouds([piece, piece]), "csv")
    assert len(text.splitlines()) == 1 + 2 * len(piece.points)


def test_merge_rescales_to_common_denominator():
    M, digits = system_124()
    shallow = approximate_tile(M, digits, 1)
    deep = approximate_tile(M, digits, 2)
    merged = merge_clouds([shallow, deep])
    assert merged.points.denominator == 16
    assert list(merged.points) == list(shallow.points) + list(deep.points)
    assert render(merged, "csv").splitlines()[1:] == (
        render(shallow, "csv").splitlines()[1:]
        + render(deep, "csv").splitlines()[1:])


def _peak_rss_kb(depth, fmt="csv"):
    code = ("import resource, sys; from tileforge.cli import main; "
            f"assert main(['render', '--abc', '1,2,4', '--depth', '{depth}', "
            f"'--{fmt}', {os.devnull!r}]) == 0; "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    return int(run_fresh(code).split()[-1])


def test_render_memory_stays_flat_with_depth():
    # 4^10 points against 4^8: the writer streams, so peak memory is the
    # interpreter plus square-root-sized tables.
    assert _peak_rss_kb(10) <= 1.2 * _peak_rss_kb(8)


def test_json_render_memory_stays_flat_with_depth():
    # The JSON writer streams too: a depth-10 cloud held as one float list
    # and one text peaked above 600 MB.
    assert _peak_rss_kb(10, "json") <= 1.2 * _peak_rss_kb(8, "json")


def test_streamed_cloud_json_equals_json_text_of_payload():
    M, digits = system_124()
    t = analysis_for((1, 2, 4))
    clouds = [
        approximate_tile(M, digits, 3),
        merge_clouds([approximate_boundary_piece(t, a, 2)
                      for a in t.neighbors.points]),
        PointCloud([], 0, "empty", 1.5),
        PointCloud([], 0, "empty, tagged", 1.5, []),
        PointCloud([(Fraction(1, 3), 2)], 1, 'quote " and \u00e9',
                   float("inf"), ["a"]),
        PointCloud([(1,), (2,)], 1, "nested tags", 0.5,
                   [{"b": [1, 2], "a": None}, (3, 4)]),
    ]
    for cloud in clouds:
        payload = {
            "source": cloud.source,
            "depth": cloud.depth,
            "bound": cloud.bound,
            "points": [list(p) for p in float_rows(cloud.points)],
        }
        if cloud.tags is not None:
            payload["tags"] = list(cloud.tags)
        assert render(cloud, "json") == json_text(payload)
