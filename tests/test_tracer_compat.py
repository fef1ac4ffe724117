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
out = sys.argv[1]
codes = [
    cli.main(["render", "--abc", "1,2,4", "--depth", "2",
              "--ply", os.path.join(out, "tile.ply")]),
    cli.main(["render", "--abc", "1,2,4", "--boundary", "--depth", "2",
              "--ply", os.path.join(out, "boundary.ply")]),
    cli.main(["analyze", "--abc", "1,2,4",
              "--json", os.path.join(out, "report.json")]),
]
print(json.dumps({"codes": codes, "trace": t.snapshot()}))
"""


def test_tracer_installs_and_records_geometry(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", f"ROOT = {ROOT!r}\n" + SCRIPT, str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    counts = result["trace"]["counts"]
    assert counts["geometry_io.points"] == 16 + sum(
        1 for line in (tmp_path / "boundary.ply").read_text().split(
            "end_header\n")[1].splitlines())
    assert counts["geometry_io.bytes_written"] > 0
    calls = result["trace"]["calls"]
    for name in ("geometry_io.tile_points", "geometry_io.boundary_points",
                 "geometry_io.write", "graphs.contact", "graphs.neighbor"):
        assert calls.get(name, 0) > 0, name
