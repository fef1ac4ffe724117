"""Record perfbench/reference.json: python3 perfbench/record.py

Runs every operation any seed can draw, each in a fresh interpreter, and
stores the digest of each output.  Run it only on a commit whose outputs are
known to be right; the benchmark compares every later commit against it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run


def main() -> int:
    work = os.path.join(run.ROOT, ".perfbench-work", "record")
    os.makedirs(work, exist_ok=True)
    out = lambda name: os.path.join(work, name)
    tasks = [[run.sweep_op(1, out("sweep.csv"))]]
    tasks += [[run.analyze_op(m, out("analyze"))] for m in run.ANALYZE_MEMBERS]
    for m in run.RENDER_MEMBERS:
        tasks += [[run.render_op(m, out("tile.ply"))],
                  [run.boundary_op(m, out("boundary.ply"))]]

    result = run.run_pass(tasks, False, work, "record",
                          time.monotonic() + 3600)
    shutil.rmtree(os.path.dirname(work))
    digests = {}
    for ops, task in zip(tasks, result["tasks"]):
        for op, got in zip(ops, task.get("ops", [task])):
            if "error" in got or got["exit"] != 0:
                print(f"{op['argv']}: {got}", file=sys.stderr)
                return 1
            digests.update(got["digests"])
    path = os.path.join(run.HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"digests": dict(sorted(digests.items()))}, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
