"""Geometric approximation and file emission (DOT, JSON, CSV, PLY).

The depth-n point of a digit word is M^-n z for an integer vector z, so a
point cloud is a view over exact integer numerator rows and one positive
denominator, generated on demand.  Floats appear only when a cloud is
written, one int/int division per coordinate; the PLY, CSV and JSON writers
stream rows to the file block by block.  All writers are deterministic:
identical inputs give byte-identical files.
"""

from __future__ import annotations

import json
import math
import operator
import os
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, repeat

from .analysis import analysis_for
from .family import SweepRecord, sweep_csv
from .graphs import BoundaryGraph
from .lattice import IntMatrix, Vec, checked_record, is_expanding

DEFAULT_POINT_CAP = 10 ** 7
CAP_ENV_VAR = "TILEFORGE_CAP_POINTS"


def check_cap(totals, depth: int) -> int:
    """The point count of a depth-level cloud, given the counts of levels
    1, 2, ..., depth in order, which never decrease; raises ValueError at
    the first level whose count passes the cap, before the next is made.

    So a refusal costs no more levels than the cap allows, and its message
    names the exact count only when that level is the last; otherwise the
    count it names is a lower bound.  The cap is the TILEFORGE_CAP_POINTS
    environment variable, a nonnegative integer, or 10^7 when it is unset
    or empty.
    """
    env = os.environ.get(CAP_ENV_VAR)
    cap = DEFAULT_POINT_CAP
    if env:
        if not (env.isascii() and env.isdigit()):
            raise ValueError(f"{CAP_ENV_VAR} must be a nonnegative integer, "
                             f"got {env!r}")
        cap = int(env)
    count = 0
    for level, count in enumerate(totals, 1):
        if count > cap:
            bound = "" if level == depth else "at least "
            raise ValueError(f"{bound}{count} points exceed the cap of {cap}")
    return count


class PointRows:
    """The exact points of a cloud, generated on demand from integer rows.

    blocks is a function returning an iterator of (offset, columns, index)
    triples: an integer vector, one integer list per coordinate, and None
    or a list of row numbers.  Row i of a block is the point
    (offset + (c[i] for c in columns)) / denominator, and the denominator
    is positive.  The block's points are its rows in order when index is
    None, else row index[j] is its j-th point, so a point that many walks
    reach is one row.  Iterating yields exact Fraction rows, one per point.
    """

    def __init__(self, blocks, count: int, denominator: int):
        self.blocks = blocks
        self._count = count
        self.denominator = denominator

    @classmethod
    def exact(cls, points) -> "PointRows":
        """View over explicit rational rows, put over their least common
        denominator."""
        rows = [tuple(map(Fraction, p)) for p in points]
        den = math.lcm(*(x.denominator for p in rows for x in p))
        blocks = ()
        if rows:
            nums = [[x.numerator * (den // x.denominator) for x in p]
                    for p in rows]
            blocks = (((0,) * len(rows[0]), tuple(map(list, zip(*nums))),
                       None),)
        return cls(lambda: iter(blocks), len(rows), den)

    def __len__(self) -> int:
        return self._count

    def float_blocks(self):
        """Each block's rows as float columns, one exact int/int division
        (correctly rounded) per coordinate, with the block's index."""
        den = self.denominator
        for offset, columns, index in self.blocks():
            yield [[(o + x) / den for x in col]
                   for o, col in zip(offset, columns)], index

    def __iter__(self):
        den = self.denominator
        for offset, columns, index in self.blocks():
            rows = [tuple(Fraction(o + x, den) for o, x in zip(offset, row))
                    for row in zip(*columns)]
            yield from rows if index is None else map(rows.__getitem__, index)


class TagRuns:
    """Per-point tags stored as (tag, count) runs."""

    def __init__(self, runs):
        self.runs = tuple(runs)
        self._count = sum(n for _, n in self.runs)

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        return chain.from_iterable(repeat(tag, n) for tag, n in self.runs)


class PointCloud(checked_record("PointCloud", "points depth source bound tags",
                                defaults=(None,))):
    """Exact point cloud with provenance and a radius estimate.

    points is a PointRows view; explicit rational rows are put over their
    common denominator.  tags, when given, holds one tag per point (the face
    index for boundary clouds) and is kept as runs.  bound is a
    floating-point estimate of the attractor radius (sum of inverse-power
    operator norms times the largest digit); it is reported for sanity
    checks, never used in exact computations.
    """

    __slots__ = ()

    def __new__(cls, points: PointRows, depth: int, source: str, bound: float,
                tags: TagRuns | None = None):
        if not isinstance(points, PointRows):
            points = PointRows.exact(points)
        if tags is not None:
            if not isinstance(tags, TagRuns):
                tags = TagRuns((tag, 1) for tag in tags)
            if len(tags) != len(points):
                raise ValueError("one tag per point required")
        return super().__new__(cls, points, depth, source, bound, tags)


def merge_clouds(clouds) -> PointCloud:
    clouds = tuple(clouds)
    if not clouds:
        raise ValueError("nothing to merge")
    depth = clouds[0].depth
    tagged = [c.tags is not None for c in clouds]
    if any(tagged) != all(tagged):
        raise ValueError("cannot merge tagged with untagged clouds")
    den = math.lcm(*(c.points.denominator for c in clouds))

    def blocks():
        for c in clouds:
            f = den // c.points.denominator
            for offset, columns, index in c.points.blocks():
                if f != 1:
                    offset = tuple(f * x for x in offset)
                    columns = tuple([f * x for x in col] for col in columns)
                yield offset, columns, index

    points = PointRows(blocks, sum(len(c.points) for c in clouds), den)
    tags = (TagRuns(run for c in clouds for run in c.tags.runs)
            if all(tagged) else None)
    return PointCloud(points, depth,
                      " + ".join(dict.fromkeys(c.source for c in clouds)),
                      max(c.bound for c in clouds), tags)


def attractor_radius(matrix: IntMatrix, digits) -> float:
    """Floating estimate of sup-norm radius: sum of inverse-power norms."""
    m = matrix.size
    det = matrix.det
    inv = [[matrix.adjugate[i][j] / det for j in range(m)] for i in range(m)]
    dmax = max(max(abs(x) for x in d) for d in digits)
    cur = [[float(i == j) for j in range(m)] for i in range(m)]
    total = 0.0
    for _ in range(512):
        cur = [[sum(cur[i][k] * inv[k][j] for k in range(m)) for j in range(m)]
               for i in range(m)]
        norm = max(sum(abs(x) for x in row) for row in cur)
        total += norm * dmax
        if norm * dmax < 1e-13:
            break
    return total


def _level_columns(matrix: IntMatrix, digits, depth: int):
    """Integer columns and the denominator of depth-n word points.

    columns[j][d] = s * det^(n-1-j) * adj^(j+1) d and the denominator is
    s * det^n = |det|^n, with s the sign of det^n, so the point
    sum_j M^-(j+1) d_j of a word is sum_j columns[j][d_j] / denominator.
    Folding s into the numerators keeps the denominator positive: a zero
    coordinate divides to 0.0, never to -0.0.
    """
    det = matrix.det
    s = -1 if det < 0 and depth % 2 else 1
    images = {d: d for d in digits}
    columns = []
    for j in range(depth):
        images = {d: tuple(sum(map(operator.mul, r, v))
                           for r in matrix.adjugate)
                  for d, v in images.items()}
        scale = s * det ** (depth - 1 - j)
        columns.append({d: tuple(scale * x for x in v)
                        for d, v in images.items()})
    return columns, abs(det) ** depth


def _walk_blocks(step, start, columns, dim: int, tails: dict):
    """Blocks of the column sums along every length-n walk from start.

    step(v) lists the (digit, successor) pairs leaving v in walk order, and
    columns[j][d] is digit d's column at level j; walks come in depth-first
    order.  A walk is a head of n // 2 levels and a tail of the rest.  Each
    block is one head sum with the tail sums of the head's end vertex, which
    are computed once per vertex and kept in tails, so memory grows with the
    square root of the point count.  Blocks from other starts over the same
    steps and columns may share one tails dict.  Walks from one vertex that
    read one digit word end on one sum, so a tail keeps its distinct sums in
    first-seen order, with an index from walks to sums, or None when no sum
    repeats.
    """
    split = len(columns) // 2
    zero = (0,) * dim

    def sums(v, levels):
        rows = [(zero, v)]
        for col in levels:
            rows = [(tuple(map(operator.add, r, col[d])), w)
                    for r, u in rows for d, w in step(u)]
        return rows

    def tail(v):
        rows = [r for r, _ in sums(v, columns[split:])]
        number = {r: i for i, r in enumerate(dict.fromkeys(rows))}
        index = (None if len(number) == len(rows)
                 else list(map(number.__getitem__, rows)))
        return tuple(map(list, zip(*number))), index

    def blocks():
        for head, v in sums(start, columns[:split]):
            if v not in tails:
                tails[v] = tail(v)
            distinct, index = tails[v]
            if distinct:
                yield head, distinct, index
    return blocks


def approximate_tile(matrix: IntMatrix, digits, depth: int) -> PointCloud:
    """All digit-word points of the given depth, in word order."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if not is_expanding(matrix):
        raise ValueError("matrix is not expanding")
    digits = tuple(tuple(d) for d in digits)
    count = check_cap(accumulate(repeat(len(digits), depth), operator.mul),
                      depth)
    columns, den = _level_columns(matrix, digits, depth)
    step = {None: [(d, None) for d in digits]}.__getitem__
    blocks = _walk_blocks(step, None, columns, matrix.size, {})
    return PointCloud(PointRows(blocks, count, den), depth,
                      f"tile depth {depth}", attractor_radius(matrix, digits))


@lru_cache(maxsize=1)
def _boundary_walks(t):
    """Each boundary-graph vertex's (digit, successor) steps in sorted edge
    order, and a list whose entry k counts the length-k walks from each
    vertex, which _walk_counts grows on demand.  The entry is kept until
    another context is rendered."""
    g = t.boundary_graph
    step = {v: [(e.d, e.dst) for e in sorted(g.out_edges(v))]
            for v in g.vertices}
    return step, [dict.fromkeys(step, 1)]


def _walk_counts(t, depth: int):
    """The length-k walk counts from each vertex, for k = 1, ..., depth in
    turn; each level is counted once per context.  Every neighbor has a
    successor among the neighbors, so no count decreases with k."""
    step, levels = _boundary_walks(t)
    for k in range(1, depth + 1):
        if k == len(levels):
            counts = levels[-1]
            levels.append({v: sum(counts[w] for _, w in out)
                           for v, out in step.items()})
        yield levels[k]


@lru_cache(maxsize=1)
def _boundary_setup(t, depth: int):
    """What every face of one boundary render shares, built once its
    point count is known to be within the cap: the depth-n columns, their
    denominator, the attractor radius, and a memo of each vertex's walk
    tail that the faces fill as they are written."""
    columns, den = _level_columns(t.matrix, t.digits, depth)
    return columns, den, attractor_radius(t.matrix, t.digits), {}


def boundary_point_count(ctx, depth: int) -> int:
    """Points of a whole boundary render: the length-depth boundary-graph
    walks from every neighbor.  Raises ValueError when they exceed the
    point cap, counted level by level, so a deep request stops at the
    first level over the cap."""
    t = analysis_for(ctx)
    if depth < 1:
        raise ValueError("depth must be at least 1")
    return check_cap((sum(c.values()) for c in _walk_counts(t, depth)),
                     depth)


def approximate_boundary_piece(ctx, alpha, depth: int) -> PointCloud:
    """One point per length-depth boundary-graph walk from one neighbor."""
    t = analysis_for(ctx)
    if depth < 1:
        raise ValueError("depth must be at least 1")
    alpha = tuple(int(x) for x in alpha)
    if alpha not in t.boundary_graph.vertices:
        raise ValueError(f"{alpha} is not a neighbor")
    count = check_cap((c[alpha] for c in _walk_counts(t, depth)), depth)
    columns, den, radius, tails = _boundary_setup(t, depth)
    face = t.neighbors.points.index(alpha)
    step = _boundary_walks(t)[0].__getitem__
    blocks = _walk_blocks(step, alpha, columns, t.matrix.size, tails)
    return PointCloud(PointRows(blocks, count, den), depth,
                      f"boundary piece {alpha}", radius,
                      TagRuns(((face, count),)))


# ---------------------------------------------------------------------------
# DOT


def _node_name(v: Vec) -> str:
    return ",".join(str(x) for x in v)


def to_dot(g: BoundaryGraph) -> str:
    """The graph as DOT: sorted nodes, then sorted edges labeled by the
    indices of their digits."""
    index = {d: i for i, d in enumerate(g.digits)}
    edges = sorted((e.src, e.dst, index[e.d], index[e.d_prime])
                   for e in g.edges)
    lines = ["digraph {"]
    for v in sorted(g.vertices):
        lines.append(f'  "{_node_name(v)}";')
    for src, dst, d, dp in edges:
        lines.append(f'  "{_node_name(src)}" -> "{_node_name(dst)}" '
                     f'[label="{d}|{dp}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# writers


def _texts(floats, index, fmt: str) -> list[str]:
    """fmt of each point of a float block: each distinct row is formatted
    once, and its text repeated by the index."""
    texts = list(map(fmt.__mod__, zip(*floats)))
    return texts if index is None else list(map(texts.__getitem__, index))


def _run_slices(runs):
    """A function that takes the next n items of the (value, count) runs
    and returns them as (value, start, stop) slices, counted from the first
    item it takes."""
    runs = iter(runs)
    value, left = None, 0

    def take(n):
        nonlocal value, left
        slices, start = [], 0
        while start < n:
            while not left:
                value, left = next(runs)
            stop = start + min(left, n - start)
            slices.append((value, start, stop))
            left -= stop - start
            start = stop
        return slices
    return take


def _row_chunks(cloud: PointCloud, sep: str):
    """The cloud's rows as text, one chunk per block, in `%.9g` format.
    Each row ends with a newline, after the tag's text if the cloud is
    tagged; that ending is joined on once per run of one tag in a block."""
    if cloud.tags is None:
        ends = (("\n", len(cloud.points)),)
    else:
        ends = ((sep + str(tag) + "\n", n) for tag, n in cloud.tags.runs)
    take = _run_slices(ends)
    for floats, index in cloud.points.float_blocks():
        texts = _texts(floats, index, sep.join(["%.9g"] * len(floats)))
        yield "".join([end.join(texts[start:stop]) + end
                       for end, start, stop in take(len(texts))])


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
        for floats, index in cloud.points.float_blocks():
            yield _texts(floats, index, "[\n" + ",\n".join(
                ["      %r"] * len(floats)) + "\n    ]")

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


_CLOUD_CHUNKS = {"ply": _ply_chunks, "csv": _csv_chunks, "json": _json_chunks}


def json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render(doc, fmt: str) -> str:
    """Render a document to text; raises ValueError on incompatible pairs."""
    if isinstance(doc, BoundaryGraph):
        if fmt == "dot":
            return to_dot(doc)
        raise ValueError(f"graphs cannot be rendered as {fmt}")
    if isinstance(doc, PointCloud):
        if fmt in _CLOUD_CHUNKS:
            return "".join(_CLOUD_CHUNKS[fmt](doc))
        raise ValueError(f"point clouds cannot be rendered as {fmt}")
    if isinstance(doc, (list, tuple)) and doc and isinstance(doc[0], SweepRecord):
        if fmt == "csv":
            return sweep_csv(doc)
        raise ValueError(f"sweep records cannot be rendered as {fmt}")
    if isinstance(doc, dict):
        if fmt == "json":
            return json_text(doc)
        raise ValueError(f"reports cannot be rendered as {fmt}")
    raise ValueError(f"cannot render {type(doc).__name__} as {fmt}")


def export(doc, fmt: str, path) -> None:
    """Write doc to path as fmt; clouds stream block by block.

    A path that cannot be written raises ValueError("cannot write ...").
    """
    if isinstance(doc, PointCloud) and fmt in _CLOUD_CHUNKS:
        chunks = _CLOUD_CHUNKS[fmt](doc)
    else:
        chunks = (render(doc, fmt),)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ValueError(
            f"cannot write {path}: {exc.strerror or exc}") from exc
