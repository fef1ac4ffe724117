"""Outside-in tracer: wraps tileforge functions where callers look them up.

Nothing under src/ knows about it.  install() replaces attributes such as
tileforge.analysis.neighbor_set (the name TileAnalysis calls) with wrappers
that time the call or count its results.  A span's self time is its duration
minus the time covered by spans opened inside it; time covered by no span at
all is reported by the caller as cli.self_s.  A name that no longer exists
raises at install time, so a moved call site cannot turn into a silent zero.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.covered_s = 0.0
        self._open: list[float] = []  # child time accumulated per open span

    def _wrap(self, owner, attr: str, make):
        try:
            orig = getattr(owner, attr)
        except AttributeError:
            raise RuntimeError(
                f"tracer: {getattr(owner, '__name__', owner)}.{attr} no longer "
                f"exists; update perfbench/tracer.py") from None
        if not callable(orig):
            raise RuntimeError(f"tracer: {owner.__name__}.{attr} is not callable")
        setattr(owner, attr, functools.wraps(orig)(make(orig)))

    def span(self, owner, attr: str, name, after=None):
        """Time every call; name is a string or a function of the arguments."""
        open_ = self._open

        def make(orig):
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                open_.append(0.0)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    dur = time.perf_counter() - start
                    child = open_.pop()
                    key = name if isinstance(name, str) else name(*args, **kwargs)
                    self.self_s[key] += dur - child
                    self.calls[key] += 1
                    if open_:
                        open_[-1] += dur
                    else:
                        self.covered_s += dur
                if after is not None:
                    after(self.counts, result, *args, **kwargs)
                return result
            return wrapper

        self._wrap(owner, attr, make)

    def count(self, owner, attr: str, name: str, after=None):
        """Count calls without a span, so their time stays with the caller."""

        def make(orig):
            def wrapper(*args, **kwargs):
                result = orig(*args, **kwargs)
                self.calls[name] += 1
                if after is not None:
                    after(self.counts, result, *args, **kwargs)
                return result
            return wrapper

        self._wrap(owner, attr, make)

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts), "covered_s": self.covered_s}


def _add(key, size):
    def after(counts, result, *args, **kwargs):
        counts[key] += size(result, *args, **kwargs)
    return after


def _level_name(base, level, *rest, **kwargs):
    return f"power.level{level}"


def _bytes_written(counts, result, doc, fmt, path):
    counts["geometry_io.bytes_written"] += os.path.getsize(path)


def install() -> Tracer:
    """Wrap every traced call site; returns the tracer that records them."""
    import tileforge.analysis as analysis
    import tileforge.cli as cli
    import tileforge.family as family
    import tileforge.geometry_io as geometry_io
    import tileforge.graphs as graphs
    import tileforge.lattice as lattice
    import tileforge.power as power
    import tileforge.topology as topology

    t = Tracer()

    # graphs: the two fixpoints as TileAnalysis calls them, and the sink
    # pruning and graph building they run inside.
    t.span(analysis, "contact_set", "graphs.contact",
           _add("graphs.contact_rounds", lambda r, *a: r.rounds))
    t.span(analysis, "neighbor_set", "graphs.neighbor",
           lambda c, r, *a: c.update({"graphs.neighbor_rounds": r.rounds,
                                      "graphs.neighbors_final": len(r.points)}))
    t.count(graphs, "minkowski_sum", "graphs.minkowski_sum",
            _add("graphs.minkowski_candidates", lambda r, *a: len(r)))
    t.span(graphs, "reduce", "graphs.reduce")
    for owner in (graphs, analysis):
        t.count(owner, "build_graph", "graphs.build_graph",
                _add("graphs.labeled_edges_built", lambda r, *a: len(r.edges)))

    # power: level graphs, walk points and word admissibility.
    t.span(analysis, "power_graph", _level_name,
           lambda c, r, *a: c.update({"power.level_vertices": len(r.vertices),
                                      "power.level_edges": len(r.edges)}))
    t.span(analysis, "walk_point", "power.walk_point")
    t.span(power, "word_admissible_from", "power.word_admissible")
    t.span(topology, "subdivide", "power.subdivide")

    # topology: Hata graphs, piece intersections and the audits.
    t.span(topology, "hata_graph", "topology.hata_graph",
           _add("topology.hata_pieces", lambda r, *a: len(r.nodes)))
    t.count(analysis, "intersection_vertex", "topology.intersection",
            _add("topology.intersection_hits", lambda r, *a: r is not None))
    t.span(topology, "classify", "topology.classify")
    for owner in (family, topology):
        t.span(owner, "successor_paths_failure", "topology.successor_paths")
        t.span(owner, "four_fold_failure", "topology.four_fold")
        t.span(owner, "loop_chains_failure", "topology.loop_chains")
        t.span(owner, "walk_points_failure", "topology.walk_points")

    # geometry_io: point generation as the CLI calls it, then text and files.
    points = _add("geometry_io.points", lambda r, *a: len(r.points))
    t.span(cli, "approximate_tile", "geometry_io.tile_points", points)
    t.span(cli, "approximate_boundary_piece", "geometry_io.boundary_points",
           points)
    t.span(geometry_io, "render", "geometry_io.render")
    t.span(cli, "export", "geometry_io.write", _bytes_written)

    # lattice, analysis and family.
    t.count(lattice.IntMatrix, "__post_init__", "lattice.matrix_builds")
    t.count(lattice.IntMatrix, "solve_int", "lattice.solve_int")
    t.count(analysis.TileAnalysis, "__init__", "analysis.contexts_built")
    t.span(family, "expected_graph", "family.expected_graph")
    t.span(cli, "sweep", "family.sweep")
    return t
