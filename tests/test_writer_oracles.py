"""The cloud writers against the writers they replaced.

The writers now format each distinct row of a block once and repeat its
text by the block's index.  The functions from `_row_chunks` to
`_json_chunks` below are the writers as they were before, kept verbatim:
they format every point's row, and they read float blocks that hold every
point's row in place.  `as_expanded` gives them such blocks.
"""

import json
from fractions import Fraction
from itertools import islice
from types import SimpleNamespace

import pytest

from tileforge.analysis import analysis_for
from tileforge.geometry_io import (
    PointCloud,
    TagRuns,
    approximate_boundary_piece,
    approximate_tile,
    merge_clouds,
    render,
)
from tileforge.lattice import companion_form


def _row_chunks(cloud: PointCloud, sep: str):
    """The cloud's rows as text, one chunk per block, in `%.9g` format."""
    tags = None if cloud.tags is None else iter(cloud.tags)
    for floats in cloud.points.float_blocks():
        fmt = sep.join(["%.9g"] * len(floats))
        rows = zip(*floats)
        if tags is not None:
            fmt += sep + "%s"
            rows = zip(*floats, islice(tags, len(floats[0])))
        yield "".join(map((fmt + "\n").__mod__, rows))


def _ply_chunks(cloud: PointCloud):
    lines = [
        "ply",
        "format ascii 1.0",
        f"comment {cloud.source}",
        f"element vertex {len(cloud.points)}",
        "property float x",
        "property float y",
        "property float z",
    ]
    if cloud.tags is not None:
        lines.append("property uchar face")
    lines.append("end_header")
    yield "\n".join(lines) + "\n"
    yield from _row_chunks(cloud, " ")


def _csv_chunks(cloud: PointCloud):
    yield "x,y,z\n" if cloud.tags is None else "x,y,z,face\n"
    yield from _row_chunks(cloud, ",")


_TAG_BLOCK = 4096


def _json_items(blocks):
    """A JSON array's items, given as blocks of item texts, in json_text's
    layout for an array at depth 1; the closing bracket included."""
    sep = "\n    "
    for items in blocks:
        if items:
            yield sep + ",\n    ".join(items)
            sep = ",\n    "
    yield "]" if sep == "\n    " else "\n  ]"


def _json_chunks(cloud: PointCloud):
    """json_text of the cloud's payload (bound, depth, points, source and
    tags), written block by block."""
    yield ('{\n  "bound": %s,\n  "depth": %s,\n  "points": ['
           % (json.dumps(cloud.bound), json.dumps(cloud.depth)))

    def point_blocks():
        # %r of a float is float.__repr__, which json.dumps writes.
        for floats in cloud.points.float_blocks():
            fmt = "[\n" + ",\n".join(["      %r"] * len(floats)) + "\n    ]"
            yield list(map(fmt.__mod__, zip(*floats)))

    yield from _json_items(point_blocks())
    yield ',\n  "source": ' + json.dumps(cloud.source)
    if cloud.tags is not None:
        def tag_blocks():
            for tag, n in cloud.tags.runs:
                text = json.dumps(tag, indent=2, sort_keys=True).replace(
                    "\n", "\n    ")
                for start in range(0, n, _TAG_BLOCK):
                    yield [text] * min(_TAG_BLOCK, n - start)

        yield ',\n  "tags": ['
        yield from _json_items(tag_blocks())
    yield "\n}\n"


class ExpandedRows:
    """A cloud's rows as the writers above read them: float blocks that
    hold every point's row in place."""

    def __init__(self, points):
        self.points = points

    def __len__(self):
        return len(self.points)

    def float_blocks(self):
        for floats, index in self.points.float_blocks():
            yield (floats if index is None
                   else [[col[i] for i in index] for col in floats])


def as_expanded(cloud):
    return SimpleNamespace(points=ExpandedRows(cloud.points), tags=cloud.tags,
                           bound=cloud.bound, depth=cloud.depth,
                           source=cloud.source)


ORACLES = {"ply": _ply_chunks, "csv": _csv_chunks, "json": _json_chunks}


def assert_writers_match(cloud):
    expanded = as_expanded(cloud)
    for fmt, chunks in ORACLES.items():
        assert render(cloud, fmt) == "".join(chunks(expanded)), fmt


def repeated_rows(cloud):
    """Whether some block of the cloud stores a row for several points."""
    return any(index is not None for _, index in cloud.points.float_blocks())


@pytest.mark.parametrize("abc", [(1, 1, 4), (2, 3, 4)])
@pytest.mark.parametrize("depth", range(1, 7))
def test_boundary_writers_match_the_per_point_writers(abc, depth):
    t = analysis_for(abc)
    pieces = [approximate_boundary_piece(t, a, depth)
              for a in t.neighbors.points]
    for piece in pieces:
        assert_writers_match(piece)
    merged = merge_clouds(pieces)
    assert_writers_match(merged)
    assert repeated_rows(merged)


def test_merged_denominators_match_the_per_point_writers():
    t = analysis_for((2, 3, 4))
    shallow = approximate_boundary_piece(t, t.neighbors.points[0], 3)
    deep = [approximate_boundary_piece(t, a, 4)
            for a in t.neighbors.points[1:4]]
    merged = merge_clouds([shallow] + deep)
    assert merged.points.denominator != shallow.points.denominator
    assert repeated_rows(merged)
    assert_writers_match(merged)
    matrix, digits = companion_form([1, 2, 3, 4])
    assert_writers_match(merge_clouds([approximate_tile(matrix, digits, 1),
                                       approximate_tile(matrix, digits, 3)]))


def test_tags_of_every_kind_match_the_per_point_writers():
    # Tags are written with %s and may be unhashable; a block holds one
    # run per point here.
    tags = [{"b": [1, 2], "a": None}, {"b": [1, 2], "a": None}, (3, 4),
            (3, 4), 5, "x", [6]]
    rows = [(Fraction(i, 3), Fraction(-i, 7), 2) for i in range(len(tags))]
    rows[3] = rows[2]
    assert_writers_match(PointCloud(rows, 1, "tags", 1.0, tags))


def test_tag_runs_across_blocks_match_the_per_point_writers():
    # Runs that start and end inside blocks with an index, and an empty run.
    t = analysis_for((1, 1, 4))
    piece = approximate_boundary_piece(t, t.neighbors.points[3], 5)
    assert repeated_rows(piece)
    n = len(piece.points)
    runs = TagRuns([((1, 2), 3), ({"a": 1}, 0), ([7], n // 2),
                    (9, n - 3 - n // 2)])
    assert_writers_match(PointCloud(piece.points, 5, "runs", 1.0, runs))
