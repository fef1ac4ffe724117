import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

import tileforge
from tileforge import analysis, cli, family, power
from tileforge.family import SweepRecord

from strategies import run_fresh


def forbid_fixpoints(monkeypatch, forbidden):
    """Make every fixpoint an analysis context can run raise when called."""
    for name in ("contact_set", "neighbor_set", "power_graph"):
        monkeypatch.setattr(analysis, name, forbidden)


def test_analyze_named_instance(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--abc", "1,2,4", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["neighbors"]["count"] == 14
    assert report["predicted_14"] is True
    assert report["audit_pass"] is True
    assert report["levels"] == {"g2": 36, "g3": 24, "g4": 0}
    assert report["census"]["euler"] == 2
    assert "14" in capsys.readouterr().out


def test_analyze_outside_family_reports_data_not_failure(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--abc", "1,1,2", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["neighbors"]["count"] == 20
    assert report["predicted_14"] is False
    assert report["audit_pass"] is None
    assert report["levels"]["g3"] is None


def test_analyze_builds_no_labelled_level_edges(tmp_path, monkeypatch):
    # analyze reads only the level sizes of a member outside the 14-neighbour
    # family, so its 72,903 level-2 edges are never labelled.
    def forbidden(*args, **kwargs):
        raise AssertionError("labelled level edges were built")

    monkeypatch.setattr(power, "_label_edges", forbidden)
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--abc", "10,10,11", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["neighbors"]["count"] == 182
    assert report["levels"] == {"g2": 6873, "g3": None, "g4": None}


def test_analyze_memory_rise_stays_under_budget():
    # The level-2 graph of (11,11,12) has 7,275 candidates and is the peak
    # of analyze.  Candidates keyed by their packed member indices, with
    # their successors in flat arrays, raise ru_maxrss by about 1.7 MB over
    # the imported CLI; a bitmask per candidate and a tuple of successor
    # indices each took 3.4 MB, and keyed pruning tables before that 6 MB.
    code = ("import os, resource; import tileforge.cli as cli; "
            "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
            "assert cli.main(['analyze', '--abc', '11,11,12', "
            "'--json', os.devnull]) == 0; "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base)")
    assert int(run_fresh(code).split()[-1]) <= 2.5 * 1024


def test_analyze_rejects_invalid_parameters(capsys):
    assert cli.main(["analyze", "--abc", "0,1,2"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["0", "-1"])
def test_analyze_rejects_loop_depth_below_one(k, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("fixpoint ran before --k was validated")

    forbid_fixpoints(monkeypatch, forbidden)
    assert cli.main(["analyze", "--abc", "1,2,4", "--k", k]) == 2
    assert capsys.readouterr().err == f"error: --k must be at least 1, got {k}\n"


@pytest.mark.parametrize("k", ["7", "100"])
def test_analyze_rejects_loop_depth_above_max(k, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("fixpoint ran before --k was validated")

    forbid_fixpoints(monkeypatch, forbidden)
    assert cli.main(["analyze", "--abc", "1,2,4", "--k", k]) == 2
    assert capsys.readouterr().err == "error: --k must be at most 6\n"


def test_cli_module_runs_without_runpy_warning():
    src = os.path.dirname(os.path.dirname(os.path.abspath(tileforge.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "tileforge.cli",
         "--help"], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "usage: tileforge" in proc.stdout


def test_runs_without_a_pool_do_not_import_one(tmp_path):
    # sweep --jobs forks its workers itself, so no run imports a pool module.
    src = os.path.dirname(os.path.dirname(os.path.abspath(tileforge.__file__)))
    code = "\n".join([
        "import os, sys",
        "from tileforge import cli",
        "json_out, csv_out = sys.argv[1:]",
        "os.sched_getaffinity = lambda pid: {0, 1}",
        "assert cli.main(['analyze', '--abc', '1,2,4', '--json', json_out]) == 0",
        "assert cli.main(['sweep', '--max', '3', '--jobs', '1',",
        "                 '--csv', csv_out]) == 0",
        "assert cli.main(['sweep', '--max', '4', '--jobs', '2',",
        "                 '--csv', csv_out]) == 0",
        "print(sorted(m for m in sys.modules",
        "             if m.startswith(('concurrent', 'multiprocessing'))))"])
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "a.json"),
         str(tmp_path / "s.csv")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_analyze_requires_exactly_one_input(tmp_path):
    m = tmp_path / "m.json"
    m.write_text("[[0,0,-4],[1,0,-2],[0,1,-1]]")
    assert cli.main(["analyze"]) == 2
    assert cli.main(["analyze", "--abc", "1,2,4", "--matrix", str(m)]) == 2
    assert cli.main(["analyze", "--matrix", str(m)]) == 2


def test_analyze_explicit_matrix_matches_abc(tmp_path):
    m = tmp_path / "m.json"
    d = tmp_path / "d.json"
    m.write_text("[[0,0,-4],[1,0,-2],[0,1,-1]]")
    d.write_text(json.dumps([[i, 0, 0] for i in range(4)]))
    out = tmp_path / "report.json"
    dot = tmp_path / "graph.dot"
    code = cli.main(["analyze", "--matrix", str(m), "--digits", str(d),
                     "--json", str(out), "--dot", str(dot)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["neighbors"]["count"] == 14
    assert report["predicted_14"] is True
    assert report["triple"] == [1, 2, 4]
    assert report["levels"]["g2"] == 36
    assert '"2,1,1"' in dot.read_text()


def test_analyze_basis_override_is_neutral(tmp_path):
    out = tmp_path / "report.json"
    basis = "[[1,0,0],[1,1,0],[2,1,1]]"
    code = cli.main(["analyze", "--abc", "1,2,4", "--basis", basis,
                     "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["neighbors"]["count"] == 14
    assert report["contact"]["size"] == 15


def test_analyze_system_outside_the_family_reports_no_audits(tmp_path):
    # x^3 - 2x + 3 has 14 neighbours and the honeycomb's level sizes, but no
    # family triple: its report carries data only, and audit_pass stays null.
    out = tmp_path / "report.json"
    system = _write_system(tmp_path, [[0, 0, -3], [1, 0, 2], [0, 1, 0]],
                           [[i, 0, 0] for i in range(3)])
    assert cli.main(["analyze"] + system + ["--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["neighbors"]["count"] == 14
    assert report["levels"] == {"g2": 36, "g3": 24, "g4": 0}
    assert report["predicted_14"] is None
    assert report["audit_pass"] is None
    assert not {"triple", "neighbor_count", "census", "audits"} & set(report)


# sha256 of analyze's JSON report and DOT contact graph for the four kinds
# of input: a 14-neighbour member, a member outside the 14-neighbour family,
# a member on an explicit basis, and that member's system given as files.
# The last two spell (1,2,4) again, so they share its report.
ANALYZE_GOLDEN = {
    "abc 1,2,4": (
        "38c86cd52d22cd7b36588143c30c832c9f6d63bc8637afad4673661ef6802a39",
        "b473fbba7ff766c7ca534b218082f704bb35bf7dae292670422e0dbc032873bb"),
    "abc 1,1,2": (
        "a5bd487bd6e884878d5c6e2a59e22da6a1e8b66053db25c8d104857b56d1a347",
        "adff131bbb0ca256e0521467eaf4cb8d59472ea11dd264b8b72fc41fbddfc968"),
    "abc 1,2,4 basis": (
        "38c86cd52d22cd7b36588143c30c832c9f6d63bc8637afad4673661ef6802a39",
        "b473fbba7ff766c7ca534b218082f704bb35bf7dae292670422e0dbc032873bb"),
    "matrix 1,2,4": (
        "38c86cd52d22cd7b36588143c30c832c9f6d63bc8637afad4673661ef6802a39",
        "b473fbba7ff766c7ca534b218082f704bb35bf7dae292670422e0dbc032873bb"),
}


def test_analyze_outputs_match_golden_digests(tmp_path):
    inputs = {
        "abc 1,2,4": ["--abc", "1,2,4"],
        "abc 1,1,2": ["--abc", "1,1,2"],
        "abc 1,2,4 basis": ["--abc", "1,2,4",
                            "--basis", "[[1,0,0],[1,1,0],[2,1,1]]"],
        "matrix 1,2,4": _write_system(tmp_path, FAMILY_124,
                                      [[i, 0, 0] for i in range(4)]),
    }
    for i, (name, args) in enumerate(inputs.items()):
        out, dot = tmp_path / f"{i}.json", tmp_path / f"{i}.dot"
        assert cli.main(["analyze"] + args + ["--json", str(out),
                                              "--dot", str(dot)]) == 0
        digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in (out, dot))
        assert digests == ANALYZE_GOLDEN[name], name


def test_sweep_smallest_box(tmp_path, capsys):
    out = tmp_path / "records.csv"
    assert cli.main(["sweep", "--max", "2", "--csv", str(out)]) == 0
    assert "1 triples checked, 0 disagreements" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("1,1,2,")


@pytest.mark.parametrize("bound", ["1", "-5"])
@pytest.mark.parametrize("with_csv", [False, True])
def test_sweep_rejects_an_empty_box(bound, with_csv, tmp_path, monkeypatch,
                                    capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("sweep ran on an empty box")

    monkeypatch.setattr(cli, "sweep", forbidden)
    forbid_fixpoints(monkeypatch, forbidden)
    out = tmp_path / "records.csv"
    argv = ["sweep", "--max", bound] + (["--csv", str(out)] if with_csv else [])
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: --max must be at least 2\n"
    assert not out.exists()


def test_sweep_csv_independent_of_jobs(tmp_path):
    one = tmp_path / "one.csv"
    two = tmp_path / "two.csv"
    assert cli.main(["sweep", "--max", "5", "--csv", str(one)]) == 0
    assert cli.main(["sweep", "--max", "5", "--jobs", "2",
                     "--csv", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="counts os.fork calls")
def test_sweep_jobs_counts_the_calling_process(tmp_path):
    # --jobs 2 is this process and one forked worker, on two usable cores.
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    out = run_fresh("\n".join([
        "import os",
        "from tileforge import cli",
        "os.sched_getaffinity = lambda pid: {0, 1}",
        f"assert cli.main(['sweep', '--max', '4', '--csv', {str(one)!r}]) == 0",
        "forks = []",
        "fork = os.fork",
        "def counting_fork():",
        "    forks.append(1)",
        "    return fork()",
        "os.fork = counting_fork",
        "assert cli.main(['sweep', '--max', '4', '--jobs', '2',",
        f"                 '--csv', {str(two)!r}]) == 0",
        "print('forks', len(forks))"]))
    assert out.splitlines()[-1] == "forks 1"
    assert one.read_bytes() == two.read_bytes()


def test_sweep_jobs_above_one_needs_fork(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("sweep ran without os.fork")

    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(cli, "sweep", forbidden)
    assert cli.main(["sweep", "--max", "2", "--jobs", "2"]) == 2
    assert capsys.readouterr().err == "error: --jobs above 1 needs os.fork\n"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forks a worker")
def test_a_dead_sweep_worker_is_one_error_line(monkeypatch, capsys):
    # The worker exits 3 on its first triple; this process holds each of its
    # own until the worker has exited, so the worker always takes one.
    caller, run = os.getpid(), family._sweep_worker

    def dying(abc):
        if os.getpid() != caller:
            os._exit(3)
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
        return run(abc)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(family, "_sweep_worker", dying)
    assert cli.main(["sweep", "--max", "5", "--jobs", "2"]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: sweep worker \d+ exited with code 3\n", err)


def test_sweep_memory_rise_stays_under_budget():
    # Each triple's context is built and dropped in _evaluate, so a serial
    # sweep keeps no level graphs and leaves the shared contexts alone.  It
    # raised ru_maxrss by about 2.4 MB while it filled the shared cache.
    code = ("import os, resource; import tileforge.cli as cli; "
            "from tileforge.analysis import _analysis_cached; "
            "size = _analysis_cached.cache_info().currsize; "
            "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
            "assert cli.main(['sweep', '--max', '12', '--jobs', '1', "
            "'--csv', os.devnull]) == 0; "
            "rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base; "
            "print(_analysis_cached.cache_info().currsize - size, rise)")
    cached, rise = map(int, run_fresh(code).split()[-2:])
    assert cached == 0
    assert rise <= 1.5 * 1024


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_jobs_below_one(jobs, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("sweep ran with an invalid --jobs")

    monkeypatch.setattr(cli, "sweep", forbidden)
    assert cli.main(["sweep", "--max", "2", "--jobs", jobs]) == 2
    assert capsys.readouterr().err == "error: --jobs must be at least 1\n"


def test_sweep_exit_code_flags_disagreement(monkeypatch, capsys):
    fake = SweepRecord(1, 2, 4, 15, True, False, 15, 36, 24, True, 2, True)
    monkeypatch.setattr(cli, "sweep", lambda *a, **k: (fake,))
    assert cli.main(["sweep", "--max", "2"]) == 1
    assert "1 disagreements" in capsys.readouterr().out


def test_sweep_exit_code_flags_audit_failure(monkeypatch):
    fake = SweepRecord(1, 2, 4, 14, True, True, 15, 36, 24, True, 2, False,
                       "loops: broken")
    monkeypatch.setattr(cli, "sweep", lambda *a, **k: (fake,))
    assert cli.main(["sweep", "--max", "2"]) == 1


def test_render_tile_depth_six(tmp_path, capsys):
    out = tmp_path / "tile.ply"
    assert cli.main(["render", "--abc", "1,2,4", "--depth", "6",
                     "--ply", str(out)]) == 0
    text = out.read_text()
    assert "element vertex 4096" in text
    assert "4096 points" in capsys.readouterr().out


def test_render_boundary_merges_all_faces(tmp_path):
    out = tmp_path / "boundary.ply"
    assert cli.main(["render", "--abc", "1,2,4", "--boundary", "--depth", "5",
                     "--ply", str(out)]) == 0
    text = out.read_text()
    assert "property uchar face" in text
    body = text.split("end_header\n")[1].strip().split("\n")
    faces = {line.split()[-1] for line in body}
    assert len(faces) == 14


def test_render_cap_exceeded_is_input_error(capsys):
    assert cli.main(["render", "--abc", "1,2,4", "--depth", "99"]) == 2
    assert "cap" in capsys.readouterr().err


def test_render_boundary_takes_an_explicit_system(tmp_path):
    files = tmp_path / "files.ply"
    abc = tmp_path / "abc.ply"
    system = _write_system(tmp_path, FAMILY_124, [[i, 0, 0] for i in range(4)])
    assert cli.main(["render"] + system + ["--boundary", "--depth", "5",
                                           "--ply", str(files)]) == 0
    assert cli.main(["render", "--abc", "1,2,4", "--boundary", "--depth", "5",
                     "--ply", str(abc)]) == 0
    assert files.read_bytes() == abc.read_bytes()


def test_render_explicit_matrix_tile(tmp_path):
    m = tmp_path / "m.json"
    d = tmp_path / "d.json"
    m.write_text("[[0,0,-4],[1,0,-2],[0,1,-1]]")
    d.write_text(json.dumps([[i, 0, 0] for i in range(4)]))
    out = tmp_path / "tile.csv"
    code = cli.main(["render", "--matrix", str(m), "--digits", str(d),
                     "--depth", "2", "--csv", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 17


def test_render_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.ply"
    b = tmp_path / "b.ply"
    cli.main(["render", "--abc", "1,2,4", "--depth", "4", "--ply", str(a)])
    cli.main(["render", "--abc", "1,2,4", "--depth", "4", "--ply", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_render_boundary_cap_counts_merged_cloud(monkeypatch, capsys):
    t = tileforge.analysis_for((1, 2, 4))
    sizes = [len(tileforge.geometry_io.approximate_boundary_piece(t, a, 3).points)
             for a in t.neighbors.points]
    assert max(sizes) < sum(sizes) - 1
    monkeypatch.setenv("TILEFORGE_CAP_POINTS", str(sum(sizes) - 1))
    monkeypatch.setattr(cli, "approximate_boundary_piece", None)
    assert cli.main(["render", "--abc", "1,2,4", "--boundary",
                     "--depth", "3"]) == 2
    assert f"{sum(sizes)} points exceed the cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["render", "--abc", "1,1,4", "--boundary", "--depth", "8000"],
    ["render", "--abc", "1,1,4", "--depth", str(10 ** 8)],
])
def test_deep_render_is_refused_within_the_cap(argv, monkeypatch):
    # The count passes the cap of 10^7 within a few levels, and the render
    # stops there: counting every level and building every column, or
    # |D|^depth, took seconds and about 100 MB.
    monkeypatch.delenv("TILEFORGE_CAP_POINTS", raising=False)
    out = run_fresh("\n".join([
        "import contextlib, io, resource, time",
        "from tileforge.cli import main",
        "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss",
        "err = io.StringIO()",
        "start = time.perf_counter()",
        "with contextlib.redirect_stderr(err):",
        f"    code = main({argv!r})",
        "print(code, time.perf_counter() - start,",
        "      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base)",
        "print(err.getvalue(), end='')",
    ]))
    head, message = out.split("\n", 1)
    code, seconds, rise = head.split()
    assert code == "2"
    assert float(seconds) < 1.0
    assert int(rise) <= 2 * 1024
    assert message.startswith("error: at least ")
    assert message.endswith(" points exceed the cap of 10000000\n")
    assert len(message) < 80


@pytest.mark.parametrize("argv,flag", [
    (["analyze", "--abc", "1,2,4"], "--json"),
    (["analyze", "--abc", "1,2,4"], "--dot"),
    (["sweep", "--max", "2"], "--csv"),
    (["render", "--abc", "1,2,4", "--depth", "2"], "--csv"),
    (["render", "--abc", "1,2,4", "--depth", "2"], "--json"),
    (["render", "--abc", "1,2,4", "--depth", "2"], "--ply"),
])
def test_unwritable_output_path_is_input_error(argv, flag, tmp_path,
                                               monkeypatch, capsys):
    # An output path in a missing directory, or one that is a directory, is
    # refused before any context is built, not after the whole analysis or
    # sweep has run.
    def forbidden(*args, **kwargs):
        raise AssertionError("work ran before the output path was checked")

    for name in ("TileAnalysis", "sweep"):
        monkeypatch.setattr(cli, name, forbidden)
    forbid_fixpoints(monkeypatch, forbidden)
    for path, reason in ((tmp_path / "missing" / "out", "No such directory"),
                         (tmp_path, "Is a directory")):
        assert cli.main(argv + [flag, str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {path}: {reason}\n")


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["analyze", "--nope"], ["analyze", "--k"],
    ["analyze", "--k", "two"], ["sweep", "--max", "x"],
    ["sweep", "--jobs", "1.5"], ["render", "--depth", "x"],
    ["render", "--boundary=1"], ["render", "--d", "3"],
], ids=lambda argv: " ".join(argv) or "no command")
def test_malformed_command_line_is_one_error_line(argv, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("work ran on a malformed command line")

    for name in ("TileAnalysis", "sweep"):
        monkeypatch.setattr(cli, name, forbidden)
    forbid_fixpoints(monkeypatch, forbidden)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == ""
    assert len(lines) == 2
    assert lines[0].startswith("usage: tileforge ")
    assert lines[1].startswith("error: ")


@pytest.mark.parametrize("spelled,equivalent", [
    (["analyze", "--abc", "1,2,4", "--k", "2", "--json"],
     ["analyze", "--abc=1,2,4", "--k", "5", "--k=2", "--json"]),
    (["render", "--abc", "1,2,4", "--depth", "3", "--ply"],
     ["render", "--abc=1,2,4", "--dep", "3", "--ply"]),
    (["render", "--abc", "1,2,4", "--boundary", "--depth", "3", "--ply"],
     ["render", "--ab", "1,2,4", "--bound", "--de=3", "--depth", "3",
      "--pl"]),
])
def test_equivalent_command_lines_write_the_same_files(spelled, equivalent,
                                                       tmp_path):
    # --name=value, a unique prefix and a repeated option (its last value
    # wins) parse to the spelled-out command.
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(spelled + [str(a)]) == 0
    assert cli.main(equivalent + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_negative_depth_is_a_value(capsys):
    assert cli.main(["render", "--abc", "1,2,4", "--depth", "-2"]) == 2
    assert capsys.readouterr().err == "error: --depth must be at least 1\n"


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_option_from_the_table(command, flag, capsys):
    assert cli.main([flag] if command is None else [command, flag]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: tileforge")
    if command is None:
        rows = {name: spec[0] for name, spec in cli.COMMANDS.items()}
    else:
        rows = {f"--{name}": spec[2]
                for name, spec in cli.COMMANDS[command][2].items()}
    for name, text in rows.items():
        assert re.search(rf"^  {re.escape(name)}\b.*  {re.escape(text)}$",
                         out, re.M), (name, text)


def _write_system(tmp_path, matrix, digits):
    m = tmp_path / "m.json"
    d = tmp_path / "d.json"
    m.write_text(json.dumps(matrix))
    d.write_text(json.dumps(digits))
    return ["--matrix", str(m), "--digits", str(d)]


IDENTITY = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
TWICE = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
FAMILY_124 = [[0, 0, -4], [1, 0, -2], [0, 1, -1]]
# Z^3 / diag(2,3,5) Z^3 is cyclic of order 30, so the digits i(1,1,1) are a
# complete residue system; but they generate a sublattice of index 6, whose
# tile's Z^3-translates do not tile.
DIAG_235 = [[2, 0, 0], [0, 3, 0], [0, 0, 5]]
DIGITS_111 = [[i, i, i] for i in range(30)]


# The companion of x^2 + x + 3 with digits (i, 0): a disk-like planar tile
# with 6 neighbours.
PLANAR = [[0, -3], [1, -1]]
PLANAR_DIGITS = [[i, 0] for i in range(3)]


@pytest.mark.parametrize("matrix,digits,count", [
    ([[3]], [[0], [1], [2]], 2),
    (PLANAR, PLANAR_DIGITS, 6),
    # PLANAR ⊕ PLANAR: by the product law, 7 * 7 - 1 neighbours.
    ([[0, -3, 0, 0], [1, -1, 0, 0], [0, 0, 0, -3], [0, 0, 1, -1]],
     [[i, 0, j, 0] for i in range(3) for j in range(3)], 48),
], ids=["1x1", "2x2", "4x4"])
def test_analyze_takes_a_system_of_any_dimension(matrix, digits, count,
                                                 tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["analyze"] + _write_system(tmp_path, matrix, digits)
                    + ["--json", str(out)]) == 0
    assert capsys.readouterr().out.startswith(f"neighbors: {count} ")
    report = json.loads(out.read_text())
    assert report["neighbors"]["count"] == count
    assert report["predicted_14"] is None and report["audit_pass"] is None


@pytest.mark.parametrize("boundary", [[], ["--boundary"]],
                         ids=["tile", "boundary"])
@pytest.mark.parametrize("flag", ["--ply", "--csv"])
def test_render_refuses_xyz_files_of_a_planar_system(flag, boundary, tmp_path,
                                                     monkeypatch, capsys):
    # PLY and CSV files have x y z columns, so a planar cloud is refused
    # before any point is made, not written two columns wide.
    def forbidden(*args, **kwargs):
        raise AssertionError("a point was made")

    for name in ("approximate_tile", "approximate_boundary_piece",
                 "boundary_point_count"):
        monkeypatch.setattr(cli, name, forbidden)
    forbid_fixpoints(monkeypatch, forbidden)
    out = tmp_path / "cloud"
    argv = ["render"] + _write_system(tmp_path, PLANAR, PLANAR_DIGITS)
    assert cli.main(argv + boundary + [flag, str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: --ply and --csv write x y z rows")
    assert not out.exists()


@pytest.mark.parametrize("boundary,count", [([], 27), (["--boundary"], 46)],
                         ids=["tile", "boundary"])
def test_render_writes_a_planar_cloud_as_json(boundary, count, tmp_path):
    out = tmp_path / "cloud.json"
    argv = ["render"] + _write_system(tmp_path, PLANAR, PLANAR_DIGITS)
    assert cli.main(argv + boundary + ["--depth", "3", "--json", str(out)]) == 0
    points = json.loads(out.read_text())["points"]
    assert len(points) == count
    assert {len(p) for p in points} == {2}


@pytest.mark.parametrize("command,matrix,digits,extra,message", [
    ("analyze", IDENTITY, [[0, 0, 0]], [], "not expanding"),
    ("analyze", TWICE, [[0, 0, 0], [1, 0, 0]], [], "complete residue"),
    ("analyze", FAMILY_124, [[0, 0, 0], [1, 0, 0], [2, 0, 0], [4, 0, 0]], [],
     "complete residue"),
    ("analyze", FAMILY_124, [[0, 0], [1, 0], [2, 0], [3, 0]], [],
     "3 coordinates"),
    ("render", TWICE, [[0, 0, 0], [1, 0, 0]], ["--depth", "2"],
     "complete residue"),
    ("render", IDENTITY, [[0, 0, 0]], ["--depth", "2"], "not expanding"),
    ("analyze", FAMILY_124, [1, 2], [], "digits file must be a JSON list"),
    ("render", 5, [[0, 0, 0]], [], "matrix file must be a JSON list"),
    ("analyze", DIAG_235, DIGITS_111, [],
     "error: digits generate a sublattice of index 6\n"),
    ("render", DIAG_235, DIGITS_111, ["--boundary"],
     "error: digits generate a sublattice of index 6\n"),
])
def test_system_outside_the_theory_is_rejected_first(
        command, matrix, digits, extra, message, tmp_path, monkeypatch,
        capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("work ran before the input was validated")

    monkeypatch.setattr(cli, "approximate_tile", forbidden)
    forbid_fixpoints(monkeypatch, forbidden)
    argv = [command] + _write_system(tmp_path, matrix, digits) + extra
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", [["analyze"], ["render"],
                                     ["render", "--boundary"]])
@pytest.mark.parametrize("keep,message", [
    ("--matrix", "provide exactly one of --abc or --matrix"),
    ("--digits", "--digits requires --matrix"),
])
def test_abc_with_a_system_file_is_rejected_first(
        command, keep, message, tmp_path, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("work ran before the input was validated")

    for name in ("approximate_tile", "approximate_boundary_piece"):
        monkeypatch.setattr(cli, name, forbidden)
    forbid_fixpoints(monkeypatch, forbidden)
    files = _write_system(tmp_path, FAMILY_124, [[i, 0, 0] for i in range(4)])
    flag = files.index(keep)
    assert cli.main(command + ["--abc", "1,2,4"] + files[flag:flag + 2]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("basis,message", [
    ("[[0,0,0]]", "3 vectors of length 3"),
    ("[[1,0,0],[0,1,0]]", "3 vectors of length 3"),
    ("[[1,0,0],[0,1,0],[0,0,1,0]]", "3 vectors of length 3"),
    ("[[1,0,0],[0,1,0],[1,1,0]]", "linearly dependent"),
    ("[[1,0,0],[0,1,0],[0,0,0]]", "linearly dependent"),
    ("[1,2,3]", "JSON list of integer vectors"),
])
def test_degenerate_basis_is_rejected_first(basis, message, monkeypatch,
                                            capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("a fixpoint ran before --basis was validated")

    forbid_fixpoints(monkeypatch, forbidden)
    assert cli.main(["analyze", "--abc", "1,2,4", "--basis", basis]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --basis ") and message in err


def test_system_error_is_reported_before_basis_error(tmp_path, capsys):
    system = _write_system(tmp_path, FAMILY_124, [[i, 0, 0] for i in range(3)])
    argv = ["analyze"] + system + ["--basis", "[[1,0,0],[0,1,0],[1,1,0]]"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "error: digits are not a complete residue system modulo the matrix\n")


def test_basis_run_checks_the_system_once(monkeypatch, tmp_path):
    # The context checks the system and the basis; the CLI checks neither
    # again, wherever it looks check_system up.
    calls = []
    real = analysis.check_system

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "check_system", counted)
    monkeypatch.setattr(cli, "check_system", counted, raising=False)
    argv = ["analyze", "--abc", "1,2,4",
            "--basis", "[[1,0,0],[1,1,0],[2,1,1]]",
            "--json", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    assert len(calls) == 1


DIGITS_124 = [[i, 0, 0] for i in range(4)]


def _with_entry(rows, i, j, value):
    rows = [list(r) for r in rows]
    rows[i][j] = value
    return rows


@pytest.mark.parametrize("entry", [1.7, -4.9, True, "1"])
@pytest.mark.parametrize("source", ["matrix file", "digits file", "--basis"])
def test_non_integer_json_entries_are_rejected_first(
        source, entry, tmp_path, monkeypatch, capsys):
    # int() would make 1.7, -4.9 and true into 1, -4 and 1, and answer for
    # another system; a string leaked int()'s own message.
    def forbidden(*args, **kwargs):
        raise AssertionError("a fixpoint ran before the input was validated")

    forbid_fixpoints(monkeypatch, forbidden)
    matrix, digits = FAMILY_124, DIGITS_124
    basis = [[1, 0, 0], [1, 1, 0], [2, 1, 1]]
    if source == "matrix file":
        matrix = _with_entry(matrix, 0, 2, entry)
    elif source == "digits file":
        digits = _with_entry(digits, 1, 0, entry)
    else:
        basis = _with_entry(basis, 2, 0, entry)
    argv = (["analyze"] + _write_system(tmp_path, matrix, digits)
            + ["--basis", json.dumps(basis)])
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {source} must be a JSON list of integer vectors\n")


def test_basis_that_is_not_json_names_the_flag(capsys):
    assert cli.main(["analyze", "--abc", "1,2,4", "--basis", "notjson"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: --basis is not valid JSON: Expecting value")


def test_abc_that_is_not_integers_names_the_flag(capsys):
    assert cli.main(["analyze", "--abc", "1,2.5,4"]) == 2
    assert capsys.readouterr().err == (
        "error: --abc expects integers A,B,C, got '1,2.5,4'\n")


@pytest.mark.parametrize("value", ["abc", "-1", "1.5", "1e6"])
def test_malformed_cap_variable_is_input_error(value, monkeypatch, capsys):
    monkeypatch.setenv("TILEFORGE_CAP_POINTS", value)
    assert cli.main(["render", "--abc", "1,2,4", "--depth", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: TILEFORGE_CAP_POINTS must be a nonnegative integer, "
        f"got {value!r}\n")


def test_non_expanding_matrix_exits_instead_of_hanging(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(tileforge.__file__)))
    argv = ["analyze"] + _write_system(tmp_path, IDENTITY, [[0, 0, 0]])
    proc = subprocess.run([sys.executable, "-m", "tileforge.cli"] + argv,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "error: matrix is not expanding" in proc.stderr


def test_round_cap_exits_2_and_names_the_stage(tmp_path):
    # x^3 + 5x^2 + 2x + 5 is expanding with a complete residue system, but
    # its contact iteration does not settle within the round cap.
    src = os.path.dirname(os.path.dirname(os.path.abspath(tileforge.__file__)))
    matrix = [[0, 0, -5], [1, 0, -2], [0, 1, -5]]
    argv = ["analyze"] + _write_system(tmp_path, matrix,
                                       [[i, 0, 0] for i in range(5)])
    proc = subprocess.run([sys.executable, "-m", "tileforge.cli"] + argv,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: contact stage: ")
    assert "Traceback" not in proc.stderr


def test_analyze_and_sweep_fail_a_census_alike(tmp_path, monkeypatch,
                                               capsys):
    census = family.census
    monkeypatch.setattr(family, "census",
                        lambda ctx: census(ctx)._replace(euler=0))
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--abc", "1,2,4", "--json", str(out)]) == 0
    assert "audit: FAIL" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["audit_pass"] is False
    assert set(report["audits"].values()) == {"ok"}
    message = "alternating census is 0, not 2"
    assert report["census"]["failures"] == [message]
    row = family.sweep(1, 2, 4)[-1]
    assert (row.A, row.B, row.C) == (1, 2, 4)
    assert (row.euler, row.audit_pass, row.message) == (0, False, message)


def test_sweep_lists_each_failing_triple_once(monkeypatch, capsys):
    def failing(triple):
        raise ZeroDivisionError("no inverse")

    monkeypatch.setattr(family, "_evaluate", failing)
    assert cli.main(["sweep", "--max", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "4 triples checked, 4 disagreements"
    assert [l.split(":")[0] for l in lines[1:]] == [
        "  (1,1,2)", "  (1,1,3)", "  (1,2,3)", "  (2,2,3)"]
