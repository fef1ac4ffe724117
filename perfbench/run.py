"""tileforge benchmark: python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1, run from the root of a checkout.

Workloads (the reasons are in BENCHMARK.json):
  family-sweep  `sweep --max 12 --csv` over all 286 triples; the seed changes
                nothing.  One `--jobs J` pass, then serial (--jobs 1) passes.
                J is the number of usable cores, clamped to 2..4.
  single-tile   `analyze --json --dot` on (11,11,12) or (10,10,11), then
                `render --depth 9 --ply` and `render --boundary --depth 7
                --ply` on (1,1,4) or (2,3,4), each a CLI run of its own.

The load is a closed loop from one process: each task is a fresh
interpreter (task.py) running CLI commands through tileforge.cli.main, so no
pass inherits tileforge's process-wide caches, and the next task starts only
after the previous one ends.  A run repeats (two set-up probes, serial pass)
until --seconds have passed, at least once.  Every output is digested and
compared with reference.json, recorded from the seed commit; a mismatch, an
exception or a non-zero exit is a failed operation, and the run then exits 1.

End-to-end metrics (--trace 0):
  wall_s       serial pass, first call to last output summed over its tasks;
               median over the run's passes
  peak_rss_mb  largest peak memory of a task's process tree in the run: the
               sum of the peak resident sets (VmHWM) of the live processes
               in the tree, sweep's pool workers included
  setup_s      fresh interpreter to first timed call (imports and inputs);
               median over the probes and the serial tasks
The fail ratio is printed on the summary line and carried by `failed`.

With --trace 1 the run does the same and then one more serial pass with
tracer.py installed, and reports the per-layer metrics in BENCHMARK.json,
among them the `--jobs J` wall time and efficiency.  layer_map.json says
which end-to-end metric each should move, and on which workloads each layer
must record work; a layer that records none fails the run, as does a traced
name that no longer exists.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TASK = os.path.join(HERE, "task.py")
WORKLOADS = ("family-sweep", "single-tile")
PROBES = 2
RUN_LIMIT_S = 170.0


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# inputs


def cli_op(argv: list[str], outputs: dict[str, str]) -> dict:
    """A tileforge CLI call and its output files, each with a reference key."""
    return {"argv": argv, "outputs": outputs}


def sweep_op(jobs: int, out: str) -> dict:
    return cli_op(["sweep", "--max", "12", "--jobs", str(jobs), "--csv", out],
                  {out: "sweep --max 12 csv"})


def analyze_op(member: str, out: str) -> dict:
    return cli_op(["analyze", "--abc", member, "--json", out + ".json",
                   "--dot", out + ".dot"],
                  {out + ".json": f"analyze {member} json",
                   out + ".dot": f"analyze {member} dot"})


def render_op(member: str, out: str) -> dict:
    return cli_op(["render", "--abc", member, "--depth", "9", "--ply", out],
                  {out: f"render {member} depth 9 ply"})


def boundary_op(member: str, out: str) -> dict:
    return cli_op(["render", "--abc", member, "--boundary", "--depth", "7",
                   "--ply", out],
                  {out: f"render --boundary {member} depth 7 ply"})


ANALYZE_MEMBERS = ("11,11,12", "10,10,11")
RENDER_MEMBERS = ("1,1,4", "2,3,4")


def plan(workload: str, seed: int, jobs: int, work: str):
    """(serial tasks, jobs tasks or None); a task is a list of operations run
    in one fresh interpreter, and a pass runs its tasks one after another."""
    out = lambda name: os.path.join(work, name)
    if workload == "family-sweep":
        return ([[sweep_op(1, out("sweep-1.csv"))]],
                [[sweep_op(jobs, out(f"sweep-{jobs}.csv"))]])
    rng = random.Random(seed)
    a, c4 = rng.choice(ANALYZE_MEMBERS), rng.choice(RENDER_MEMBERS)
    return [[analyze_op(a, out("analyze"))],
            [render_op(c4, out("tile.ply"))],
            [boundary_op(c4, out("boundary.ply"))]], None


# ---------------------------------------------------------------------------
# processes


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _parents() -> dict[int, int]:
    """pid -> parent pid for every visible process."""
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", encoding="ascii",
                      errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        out[int(name)] = int(stat.rsplit(")", 1)[1].split()[1])
    return out


class TreePeak(threading.Thread):
    """Peak memory of a task's process tree: the largest sum, over the
    tree's live processes, of their peak resident sets (VmHWM).  The tree is
    the task process last passed to watch() and its descendants, pool
    workers too; tasks run one at a time."""

    INTERVAL_S = 0.02
    RESCAN_EVERY = 10

    def __init__(self):
        super().__init__(daemon=True)
        self.peak_kb = 0
        self._tree: set[int] = set()
        self._lock = threading.Lock()
        self._done = threading.Event()

    def watch(self, pid: int):
        with self._lock:
            self._tree = {pid}

    def _rescan(self):
        parents = _parents()
        with self._lock:
            grew = True
            while grew:
                kids = {p for p, pp in parents.items()
                        if pp in self._tree and p not in self._tree}
                self._tree |= kids
                grew = bool(kids)

    def run(self):
        tick = 0
        while not self._done.wait(self.INTERVAL_S):
            if tick % self.RESCAN_EVERY == 0:
                self._rescan()
            tick += 1
            with self._lock:
                pids = list(self._tree)
            self.peak_kb = max(self.peak_kb, sum(_vm_hwm_kb(p) for p in pids))

    def stop(self) -> int:
        """Largest tree peak seen, in KiB."""
        self._done.set()
        self.join()
        return self.peak_kb


def run_pass(tasks, trace: bool, work: str, tag: str, deadline: float) -> dict:
    """Run tasks one after another; returns their results and the largest
    task-tree peak memory, never below a task's exact peak from wait4.  A
    task that fails carries an `error`."""
    results = []
    peak = TreePeak()
    peak.start()
    exact_kb = 0
    proc = None
    try:
        for i, ops in enumerate(tasks):
            base = os.path.join(work, f"{tag}-{i}")
            with open(base + ".spec", "w", encoding="utf-8") as fh:
                json.dump({"src": SRC, "trace": trace, "ops": ops,
                           "launched": time.monotonic()}, fh)
            with open(base + ".err", "wb") as err:
                proc = subprocess.Popen(
                    [sys.executable, TASK, base + ".spec", base + ".result"],
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                    stderr=err, cwd=work, start_new_session=True)
            peak.watch(proc.pid)
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    raise TimeoutError("run exceeded its time limit")
                time.sleep(0.005)
            proc.returncode = os.waitstatus_to_exitcode(status)
            exact_kb = max(exact_kb, usage.ru_maxrss)
            results.append(_task_result(proc.returncode, base))
    finally:
        if proc is not None and proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)  # pool workers too
            proc.wait()
        peak_kb = peak.stop()
    return {"tasks": results, "peak_mb": max(peak_kb, exact_kb) / 1024.0}


def _task_result(code: int, base: str) -> dict:
    if code == 0 and os.path.exists(base + ".result"):
        return _load(base + ".result")
    with open(base + ".err", encoding="utf-8", errors="replace") as fh:
        tail = fh.read()[-2000:]
    return {"error": f"task exited with {code}: {tail}"}


# ---------------------------------------------------------------------------
# checks and metrics


def check(passes, digests: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every operation of every pass."""
    attempted = failed = 0
    messages = []
    for tasks, results in passes:
        for ops, result in zip(tasks, results):
            for k, op in enumerate(ops):
                attempted += 1
                problem = _op_problem(op, result, k, digests)
                if problem is not None:
                    failed += 1
                    messages.append(f"{' '.join(op['argv'])}: {problem}")
    return attempted, failed, messages


def _op_problem(op: dict, result: dict, k: int, digests: dict) -> str | None:
    if "error" in result:
        return result["error"]
    got = result["ops"][k]
    if "error" in got:
        return got["error"]
    if got["exit"] != 0:
        return f"exit code {got['exit']}"
    bad = [key for key in op["outputs"].values()
           if got["digests"].get(key) != digests.get(key)]
    if bad:
        return "output differs from the reference: " + ", ".join(bad)
    return None


def _crashed(passes) -> bool:
    return any("error" in t for _, results in passes for t in results)


def pass_wall(result: dict) -> float:
    """First call to last output, summed over the pass's tasks."""
    return sum(t["end"] - t["start"] for t in result["tasks"])


def layer_metrics(traced: dict, walls: list[float], jobs_walls: list[float],
                  jobs: int) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer values from the traced pass, and the calls per traced name."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    covered = 0.0
    for task in traced["tasks"]:
        tr = task["trace"]
        for src, dst in ((tr["self_s"], self_s), (tr["calls"], calls),
                         (tr["counts"], counts)):
            for key, value in src.items():
                dst[key] = dst.get(key, 0) + value
        covered += tr["covered_s"]
    traced_wall = pass_wall(traced)
    wall = statistics.median(walls)
    jobs_wall = statistics.median(jobs_walls) if jobs_walls else 0.0
    ratio = lambda a, b: a / b if b else 0.0
    s = lambda key: self_s.get(key, 0.0)
    n = lambda key: calls.get(key, 0)
    c = lambda key: counts.get(key, 0)
    return {
        "graphs.contact_s": s("graphs.contact"),
        "graphs.contact_rounds": c("graphs.contact_rounds"),
        "graphs.neighbor_s": s("graphs.neighbor"),
        "graphs.neighbor_rounds": c("graphs.neighbor_rounds"),
        "graphs.build_graph_calls": n("graphs.build_graph"),
        "graphs.labeled_edges_built": c("graphs.labeled_edges_built"),
        "graphs.reduce_s": s("graphs.reduce"),
        "graphs.neighbor_survival": ratio(c("graphs.neighbors_final"),
                                          c("graphs.minkowski_candidates")),
        "power.level2_s": s("power.level2"),
        "power.level3_s": s("power.level3"),
        "power.level4_s": s("power.level4"),
        "power.level_vertices": c("power.level_vertices"),
        "power.level_edges": c("power.level_edges"),
        "power.walk_point_calls": n("power.walk_point"),
        "power.walk_point_s": s("power.walk_point"),
        "power.word_admissible_calls": n("power.word_admissible"),
        "power.word_admissible_s": s("power.word_admissible"),
        "power.subdivide_s": s("power.subdivide"),
        "topology.hata_graph_calls": n("topology.hata_graph"),
        "topology.hata_pieces": c("topology.hata_pieces"),
        "topology.hata_graph_s": s("topology.hata_graph"),
        "topology.intersection_tests": n("topology.intersection"),
        "topology.intersection_hit_ratio": ratio(
            c("topology.intersection_hits"), n("topology.intersection")),
        "topology.classify_s": s("topology.classify"),
        "topology.successor_paths_s": s("topology.successor_paths"),
        "topology.four_fold_s": s("topology.four_fold"),
        "topology.loop_chains_s": s("topology.loop_chains"),
        "topology.walk_points_s": s("topology.walk_points"),
        "geometry_io.tile_points_s": s("geometry_io.tile_points"),
        "geometry_io.boundary_points_s": s("geometry_io.boundary_points"),
        "geometry_io.points": c("geometry_io.points"),
        "geometry_io.render_s": s("geometry_io.render"),
        "geometry_io.write_s": s("geometry_io.write"),
        "geometry_io.bytes_written": c("geometry_io.bytes_written"),
        "lattice.matrix_builds": n("lattice.matrix_builds"),
        "lattice.solve_int_calls": n("lattice.solve_int"),
        "analysis.contexts_built": n("analysis.contexts_built"),
        "family.expected_graph_s": s("family.expected_graph"),
        "family.sweep_self_s": s("family.sweep"),
        "family.jobs_wall_s": jobs_wall,
        "family.jobs_efficiency": ratio(wall, jobs * jobs_wall),
        "cli.self_s": traced_wall - covered,
        "trace.overhead_ratio": traced_wall / wall - 1.0,
    }, calls


def silent_layers(workload: str, calls: dict, layer_map: dict) -> list[str]:
    """Layers that layer_map.json says work on this workload but recorded
    no call in the traced pass."""
    return [layer for layer, spec in layer_map["layers"].items()
            if workload in spec["works_on"]
            and not any(k.startswith(layer + ".") and v for k, v in calls.items())]


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tileforge", "__init__.py")):
        print(f"error: no tileforge sources under {SRC}", file=sys.stderr)
        return 2
    bench = _load(os.path.join(ROOT, "BENCHMARK.json"))
    ref = _load(os.path.join(HERE, "reference.json"))
    layer_map = _load(os.path.join(HERE, "layer_map.json"))
    jobs = max(2, min(4, len(os.sched_getaffinity(0))))
    deadline = time.monotonic() + RUN_LIMIT_S

    work = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(work)
    checked = []  # (tasks, results) of every pass, probes included
    walls, jobs_walls, setups = [], [], []
    peak_mb = 0.0
    try:
        serial, jobs_tasks = plan(args.workload, args.seed, jobs, work)
        measuring = time.monotonic()
        if jobs_tasks:
            p = run_pass(jobs_tasks, False, work, "jobs", deadline)
            checked.append((jobs_tasks, p["tasks"]))
            jobs_walls.append(pass_wall(p))
            peak_mb = p["peak_mb"]
        while not _crashed(checked):
            probes = run_pass([[]] * PROBES, False, work, "probe", deadline)
            s = run_pass(serial, False, work, "serial", deadline)
            checked += [([[]] * PROBES, probes["tasks"]), (serial, s["tasks"])]
            if _crashed(checked):
                break
            walls.append(pass_wall(s))
            peak_mb = max(peak_mb, s["peak_mb"])
            setups += [t["setup_s"] for t in probes["tasks"] + s["tasks"]]
            if time.monotonic() - measuring >= args.seconds:
                break
        if args.trace and not _crashed(checked):
            traced = run_pass(serial, True, work, "traced", deadline)
            checked.append((serial, traced["tasks"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    attempted, failed, messages = check(checked, ref["digests"])
    for line in messages[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    if _crashed(checked):
        error = next(t["error"] for _, r in checked for t in r if "error" in t)
        print(f"error: a task process failed; no result\n{error}",
              file=sys.stderr)
        return 1

    if args.trace:
        values, calls = layer_metrics(traced, walls, jobs_walls, jobs)
        silent = silent_layers(args.workload, calls, layer_map)
        if silent:
            print(f"error: traced layers recorded no calls on "
                  f"{args.workload}: {', '.join(silent)}", file=sys.stderr)
            return 3
        wanted = bench["per_layer"]
    else:
        values = {"wall_s": statistics.median(walls), "peak_rss_mb": peak_mb,
                  "setup_s": statistics.median(setups)}
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    summary = ", ".join(f"{k} {v['value']:.6g} {v['unit']}"
                        for k, v in metrics.items())
    print(f"{args.workload} seed {args.seed} jobs {jobs} passes {len(walls)}: "
          f"{summary}; fail_ratio {failed / attempted:.6g} "
          f"({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
