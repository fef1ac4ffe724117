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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice, repeat

from .analysis import analysis_for
from .family import SweepRecord, sweep_csv
from .graphs import BoundaryGraph
from .lattice import IntMatrix, Vec, is_expanding

DEFAULT_POINT_CAP = 10 ** 7
CAP_ENV_VAR = "TILEFORGE_CAP_POINTS"


def check_cap(count: int) -> None:
    """Raise ValueError when count points exceed the cap.

    The cap is the TILEFORGE_CAP_POINTS environment variable, a nonnegative
    integer, or 10^7 when it is unset or empty.
    """
    env = os.environ.get(CAP_ENV_VAR)
    cap = DEFAULT_POINT_CAP
    if env:
        if not (env.isascii() and env.isdigit()):
            raise ValueError(f"{CAP_ENV_VAR} must be a nonnegative integer, "
                             f"got {env!r}")
        cap = int(env)
    if count > cap:
        raise ValueError(f"{count} points exceed the cap of {cap}")


class PointRows:
    """The exact points of a cloud, generated on demand from integer rows.

    blocks is a function returning an iterator of (offset, columns) pairs:
    an integer vector and one integer list per coordinate.  Row i of a block
    is the point (offset + (c[i] for c in columns)) / denominator, and the
    denominator is positive.  Iterating yields exact Fraction rows.
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
            blocks = (((0,) * len(rows[0]), tuple(map(list, zip(*nums)))),)
        return cls(lambda: iter(blocks), len(rows), den)

    def __len__(self) -> int:
        return self._count

    def float_blocks(self):
        """Each block's coordinate columns as floats, one exact int/int
        division (correctly rounded) per coordinate."""
        den = self.denominator
        for offset, columns in self.blocks():
            yield [[(o + x) / den for x in col]
                   for o, col in zip(offset, columns)]

    def __iter__(self):
        den = self.denominator
        for offset, columns in self.blocks():
            for row in zip(*columns):
                yield tuple(Fraction(o + x, den) for o, x in zip(offset, row))


class TagRuns:
    """Per-point tags stored as (tag, count) runs."""

    def __init__(self, runs):
        self.runs = tuple(runs)
        self._count = sum(n for _, n in self.runs)

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        return chain.from_iterable(repeat(tag, n) for tag, n in self.runs)


@dataclass(frozen=True)
class PointCloud:
    """Exact point cloud with provenance and a radius estimate.

    points is a PointRows view; explicit rational rows are put over their
    common denominator.  tags, when given, holds one tag per point (the face
    index for boundary clouds) and is kept as runs.  bound is a
    floating-point estimate of the attractor radius (sum of inverse-power
    operator norms times the largest digit); it is reported for sanity
    checks, never used in exact computations.
    """

    points: PointRows
    depth: int
    source: str
    bound: float
    tags: TagRuns | None = None

    def __post_init__(self):
        if not isinstance(self.points, PointRows):
            object.__setattr__(self, "points", PointRows.exact(self.points))
        if self.tags is not None:
            if not isinstance(self.tags, TagRuns):
                object.__setattr__(self, "tags", TagRuns(
                    (tag, 1) for tag in self.tags))
            if len(self.tags) != len(self.points):
                raise ValueError("one tag per point required")


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
            for offset, columns in c.points.blocks():
                if f != 1:
                    offset = tuple(f * x for x in offset)
                    columns = tuple([f * x for x in col] for col in columns)
                yield offset, columns

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


def _walk_blocks(step, start, columns, dim: int):
    """Blocks of the column sums along every length-n walk from start.

    step(v) lists the (digit, successor) pairs leaving v in walk order, and
    columns[j][d] is digit d's column at level j; walks come in depth-first
    order.  A walk is a head of n // 2 levels and a tail of the rest.  Each
    block is one head sum with the tail sums of the head's end vertex, which
    are computed once per vertex, so memory grows with the square root of
    the point count.
    """
    split = len(columns) // 2
    zero = (0,) * dim

    def sums(v, levels):
        rows = [(zero, v)]
        for col in levels:
            rows = [(tuple(map(operator.add, r, col[d])), w)
                    for r, u in rows for d, w in step(u)]
        return rows

    def blocks():
        tails = {}
        for head, v in sums(start, columns[:split]):
            if v not in tails:
                rows = [r for r, _ in sums(v, columns[split:])]
                tails[v] = tuple(map(list, zip(*rows)))
            if tails[v]:
                yield head, tails[v]
    return blocks


def approximate_tile(matrix: IntMatrix, digits, depth: int) -> PointCloud:
    """All digit-word points of the given depth, in word order."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if not is_expanding(matrix):
        raise ValueError("matrix is not expanding")
    digits = tuple(tuple(d) for d in digits)
    count = len(digits) ** depth
    check_cap(count)
    columns, den = _level_columns(matrix, digits, depth)
    step = {None: [(d, None) for d in digits]}.__getitem__
    blocks = _walk_blocks(step, None, columns, matrix.size)
    return PointCloud(PointRows(blocks, count, den), depth,
                      f"tile depth {depth}", attractor_radius(matrix, digits))


@lru_cache(maxsize=1)
def _boundary_setup(t, depth: int):
    """What every face of one boundary render shares: each vertex's
    (digit, successor) steps in sorted edge order, the number of depth-n
    walks from each vertex, the depth-n columns and their denominator, and
    the attractor radius.  One render's faces share one entry, which keeps
    that context alive until another context or depth is rendered."""
    g = t.boundary_graph
    step = {v: [(e.d, e.dst) for e in sorted(g.out_edges(v))]
            for v in g.vertices}
    counts = dict.fromkeys(step, 1)
    for _ in range(depth):
        counts = {v: sum(counts[w] for _, w in out) for v, out in step.items()}
    columns, den = _level_columns(t.matrix, t.digits, depth)
    return step, counts, columns, den, attractor_radius(t.matrix, t.digits)


def boundary_point_count(ctx, depth: int) -> int:
    """Points of a whole boundary render: the length-depth boundary-graph
    walks from every neighbor."""
    t = analysis_for(ctx)
    if depth < 1:
        raise ValueError("depth must be at least 1")
    return sum(_boundary_setup(t, depth)[1].values())


def approximate_boundary_piece(ctx, alpha, depth: int) -> PointCloud:
    """One point per length-depth boundary-graph walk from one neighbor."""
    t = analysis_for(ctx)
    if depth < 1:
        raise ValueError("depth must be at least 1")
    alpha = tuple(int(x) for x in alpha)
    if alpha not in t.boundary_graph.vertices:
        raise ValueError(f"{alpha} is not a neighbor")
    step, counts, columns, den, radius = _boundary_setup(t, depth)
    count = counts[alpha]
    check_cap(count)
    face = t.neighbors.points.index(alpha)
    blocks = _walk_blocks(step.__getitem__, alpha, columns, t.matrix.size)
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
