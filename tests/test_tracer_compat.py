"""The benchmark's tracer wraps tileforge names where callers look them up;
this runs it on small inputs so a refactor that drops a traced name fails
here, not only in a benchmark run."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, os, sys
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
import tracer
t = tracer.install()
import tileforge.cli as cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "trace": t.snapshot()}))
"""


# The audit registry's four checks, as the tracer names their spans.
AUDIT_SPANS = ("topology.successor_paths", "topology.four_fold",
               "topology.loop_chains", "topology.walk_points")


def traced(*argvs):
    """Run the CLI commands under the tracer in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", f"ROOT = {ROOT!r}\n" + SCRIPT,
         json.dumps(argvs)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(argvs)
    return result["trace"]


def test_tracer_installs_and_records_geometry(tmp_path):
    trace = traced(
        ["render", "--abc", "1,2,4", "--depth", "2",
         "--ply", str(tmp_path / "tile.ply")],
        ["render", "--abc", "1,2,4", "--boundary", "--depth", "2",
         "--ply", str(tmp_path / "boundary.ply")],
        ["analyze", "--abc", "1,2,4", "--json", str(tmp_path / "report.json")])
    counts = trace["counts"]
    assert counts["geometry_io.points"] == 16 + sum(
        1 for line in (tmp_path / "boundary.ply").read_text().split(
            "end_header\n")[1].splitlines())
    assert counts["geometry_io.bytes_written"] > 0
    calls = trace["calls"]
    for name in ("geometry_io.tile_points", "geometry_io.boundary_points",
                 "geometry_io.write", "graphs.contact", "graphs.neighbor",
                 *AUDIT_SPANS):
        assert calls.get(name, 0) > 0, name


def test_tracer_counts_level_graph_sizes(tmp_path):
    # The tracer reads len(r.edges) after the power_graph span, so the
    # lazily labelled edges are still counted.
    trace = traced(["analyze", "--abc", "10,10,11",
                    "--json", str(tmp_path / "report.json")])
    assert trace["calls"]["power.level2"] == 1
    assert trace["counts"]["power.level_vertices"] == 6873
    assert trace["counts"]["power.level_edges"] == 72903


def test_tracer_records_every_audit_of_the_sweep():
    # Resumed levels, integer walk points and the link table of shift-0
    # Hata graphs still pass through the traced names, so every level, the
    # walk points, both fixpoints, the Hata graphs, their intersections and
    # their classification are seen.
    calls = traced(["sweep", "--max", "4"])["calls"]
    for name in (*AUDIT_SPANS, "power.level2", "power.level3",
                 "power.level4", "power.walk_point", "graphs.contact",
                 "graphs.neighbor", "topology.hata_graph",
                 "topology.intersection", "topology.classify"):
        assert calls.get(name, 0) > 0, name


def test_tracer_records_level_graphs_of_an_explicit_system(tmp_path):
    m, d = tmp_path / "m.json", tmp_path / "d.json"
    m.write_text("[[0,0,-4],[1,0,-2],[0,1,-1]]")
    d.write_text(json.dumps([[i, 0, 0] for i in range(4)]))
    system = ["--matrix", str(m), "--digits", str(d)]
    trace = traced(["analyze"] + system,
                   ["render"] + system + ["--boundary", "--depth", "2"])
    calls = trace["calls"]
    for name in ("graphs.contact", "graphs.neighbor", "power.level2",
                 "geometry_io.boundary_points"):
        assert calls.get(name, 0) > 0, name
