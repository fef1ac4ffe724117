import contextlib
import json
import os
import signal
import tempfile
import time

import pytest

from tileforge import family
from tileforge.analysis import TileAnalysis, analysis_for, as_triple, predicts_14
from tileforge.family import (
    CSV_HEADER,
    SweepRecord,
    _g2_rows,
    _sweep_worker,
    audit_failures,
    disagreements,
    expected_contact_set,
    expected_edges,
    expected_graph,
    family_triples,
    sweep,
    sweep_csv,
)
from tileforge.graphs import LabeledEdge, RoundLimitError
from tileforge.lattice import IntMatrix, companion_form, vec_neg
from tileforge.power import vertex_set

from strategies import signed_cubic_contexts


def test_expected_contact_set_sizes():
    assert len(expected_contact_set((1, 2, 4))) == 15
    assert len(expected_contact_set((2, 2, 5))) == 13


def test_expected_contact_set_names_the_extra_pair():
    pts = expected_contact_set((2, 3, 5))
    assert (2, 1, 1) in pts
    assert (-2, -1, -1) in pts


def test_expected_contact_set_matches_computed_124():
    t = analysis_for((1, 2, 4))
    assert tuple(sorted(t.contact.points)) == expected_contact_set((1, 2, 4))


def test_contact_row_expands_with_shifted_labels():
    edges = set(expected_graph((1, 2, 4), "contact"))
    for i in range(3):
        assert LabeledEdge((1, 0, 0), (1, 1, 0), (i, 0, 0), (i + 1, 0, 0)) in edges
    assert LabeledEdge((1, 0, 0), (1, 1, 0), (3, 0, 0), (4, 0, 0)) not in edges


def test_contact_table_skips_origin_rows():
    zero = (0, 0, 0)
    for e in expected_graph((1, 2, 4), "contact"):
        assert e.src != zero and e.dst != zero


def test_g2_guarded_rows_drop_at_a_equals_1():
    src = (((0, 1, 0), (1, 1, 1)))
    dsts = {e[2] for e in expected_graph((1, 2, 4), "g2") if e[0] == src}
    assert dsts == {((-1, -1, 0), (1, 0, 1))}
    wide = {e[2] for e in expected_graph((2, 3, 5), "g2")
            if e[0] == ((1, 1, 0), (2, 2, 1))}
    assert len(wide) == 3


def test_g3_table_has_one_edge_per_vertex():
    edges = expected_graph((1, 2, 4), "g3")
    assert len(edges) == 24
    assert len({e[0] for e in edges}) == 24
    assert {e[0] for e in edges} == {e[2] for e in edges}


def test_g2_table_requires_family_membership():
    with pytest.raises(ValueError):
        expected_graph((1, 1, 2), "g2")
    with pytest.raises(ValueError):
        expected_graph((1, 2, 3), "g3")


def test_expected_graph_rejects_unknown_table():
    with pytest.raises(ValueError):
        expected_graph((1, 2, 4), "g9")


@pytest.mark.parametrize("abc", [(1, 2, 4), (2, 3, 5)])
def test_tables_match_computed_graphs(abc):
    t = analysis_for(abc)
    assert expected_edges(abc, "contact") == set(t.contact_graph.edges)
    assert expected_edges(abc, "g2") == set(t.level(2).edges)
    assert expected_edges(abc, "g3") == set(t.level(3).edges)


def test_family_triples_smallest_box():
    assert family_triples(2, 2, 2) == ((1, 1, 2),)


def test_family_triples_are_ordered_and_valid():
    triples = family_triples(3, 3, 4)
    assert triples == tuple(sorted(triples))
    assert all(1 <= a <= b < c for a, b, c in triples)


def test_sweep_small_box_all_agree():
    records = sweep(4, 4, 5, parallelism=1)
    assert len(records) == 20
    assert disagreements(records) == ()
    assert all(r.audit_pass for r in records)


def test_sweep_14_member_row_carries_census():
    records = sweep(4, 4, 5, parallelism=1)
    by_abc = {(r.A, r.B, r.C): r for r in records}
    r = by_abc[(1, 2, 4)]
    assert (r.neighbor_count, r.g2_count, r.g3_count) == (14, 36, 24)
    assert r.g4_empty and r.euler == 2 and r.predicted_14


def test_sweep_skips_levels_outside_the_family():
    records = sweep(2, 2, 3, parallelism=1)
    r = next(rec for rec in records if (rec.A, rec.B, rec.C) == (1, 1, 2))
    assert r.neighbor_count == 20
    assert (r.g2_count, r.g3_count, r.euler) == (-1, -1, -1)
    assert not r.g4_empty
    assert r.audit_pass


def test_sweep_is_deterministic_across_parallelism():
    serial = sweep(4, 4, 5, parallelism=1)
    assert sweep(4, 4, 5, parallelism=2) == serial
    assert sweep(4, 4, 5, parallelism=3) == serial


def count_forks(monkeypatch, cores):
    """Make os.fork count its calls, and the usable cores read as cores;
    the list of calls."""
    forks, fork = [], os.fork

    def counting():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)
    return forks


def test_sweep_starts_no_more_workers_than_triples(monkeypatch):
    forks = count_forks(monkeypatch, cores=64)
    # One triple: no process beside this one.
    assert sweep(1, 1, 2, parallelism=10_000) == sweep(1, 1, 2)
    assert forks == []
    # Four triples: this process and three workers.
    assert len(family_triples(2, 2, 3)) == 4
    assert sweep(2, 2, 3, parallelism=10_000) == sweep(2, 2, 3)
    assert len(forks) == 3


def test_sweep_starts_no_more_processes_than_usable_cores(monkeypatch):
    forks = count_forks(monkeypatch, cores=2)
    assert sweep(2, 2, 3, parallelism=100_000) == sweep(2, 2, 3)
    assert len(forks) == 1
    assert sweep(4, 4, 5, parallelism=100_000) == sweep(4, 4, 5)
    assert len(forks) == 2


def test_a_serial_sweep_runs_the_dealt_path_here(monkeypatch):
    forks = count_forks(monkeypatch, cores=64)
    calls, run = [], family._run_dealt

    def counted(*args):
        calls.append(os.getpid())
        return run(*args)

    monkeypatch.setattr(family, "_run_dealt", counted)
    assert sweep(2, 2, 3) == tuple(map(_sweep_worker, family_triples(2, 2, 3)))
    assert calls == [os.getpid()]
    assert forks == []


def test_sweep_counts_cpus_without_an_affinity_mask(monkeypatch):
    forks = count_forks(monkeypatch, cores=64)
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert sweep(4, 4, 5, parallelism=100_000) == sweep(4, 4, 5)
    assert len(forks) == 2


def test_sweep_without_fork_refuses_more_than_one_process(monkeypatch):
    monkeypatch.delattr(os, "fork")
    with pytest.raises(ValueError, match="above 1 needs os.fork"):
        sweep(1, 1, 2, parallelism=2)
    assert sweep(1, 1, 2, parallelism=1) == sweep(1, 1, 2)


def log_triples(monkeypatch, log, held, others):
    """Wrap family._sweep_worker so that every triple appends the pid of the
    process that runs it and the triple to log.  A process on a held side,
    "caller" or "worker", holds its first triple until the other side has
    logged `others` triples.  Every process must have the usable cores read
    as 2 or more (count_forks)."""
    caller, run = os.getpid(), family._sweep_worker

    def side(pid):
        return "caller" if pid == caller else "worker"

    def logged(abc):
        me = os.getpid()
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{me} {abc}\n")
        lines = log.read_text().splitlines()
        if side(me) in held and sum(l.split()[0] == str(me)
                                    for l in lines) == 1:
            deadline = time.monotonic() + 60
            while sum(side(int(l.split()[0])) != side(me)
                      for l in log.read_text().splitlines()) < others:
                assert time.monotonic() < deadline, "the other side stalled"
                time.sleep(0.005)
        return run(abc)

    monkeypatch.setattr(family, "_sweep_worker", logged)


def triple_runs(log):
    """side -> number of triples run, and the triples in log order."""
    caller = str(os.getpid())
    lines = [l.split(" ", 1) for l in log.read_text().splitlines()]
    runs = {"caller": 0, "worker": 0}
    for pid, _ in lines:
        runs["caller" if pid == caller else "worker"] += 1
    return runs, [first for _, first in lines]


@pytest.mark.parametrize("slow", ["caller", "worker"])
def test_sweep_records_do_not_depend_on_who_runs_them(slow, tmp_path,
                                                      monkeypatch):
    # The slow side holds its first triple until the other side has run the
    # 19 others, so it runs at most one of the 20.
    serial = sweep(4, 4, 5, parallelism=1)
    count_forks(monkeypatch, cores=2)
    log = tmp_path / "triples.log"
    log_triples(monkeypatch, log, held={slow}, others=19)
    assert sweep(4, 4, 5, parallelism=2) == serial
    runs, triples = triple_runs(log)
    assert runs[slow] <= 1 and sum(runs.values()) == 20
    assert sorted(triples) == sorted(str(t) for t in family_triples(4, 4, 5))


def test_caller_records_a_failing_triple_as_a_worker_does(tmp_path,
                                                          monkeypatch):
    def failing(triple):
        raise ZeroDivisionError("no inverse")

    monkeypatch.setattr(family, "_evaluate", failing)
    expected = SweepRecord(4, 4, 5, -1, False, False, -1, -1, -1, False, -1,
                           False, "ZeroDivisionError: no inverse")
    assert _sweep_worker((4, 4, 5)) == expected
    serial = sweep(4, 4, 5, parallelism=1)
    assert serial[-1] == expected
    # Each side holds its first triple until the other has run one, so both
    # record failures, and the worker's come back through the out file.
    count_forks(monkeypatch, cores=2)
    log = tmp_path / "triples.log"
    log_triples(monkeypatch, log, held={"caller", "worker"}, others=1)
    assert sweep(4, 4, 5, parallelism=2) == serial
    runs, _ = triple_runs(log)
    assert runs["caller"] >= 1 and runs["worker"] >= 1


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_that_dies_fails_the_sweep(monkeypatch):
    caller, run = os.getpid(), family._sweep_worker

    def dying(abc):
        if os.getpid() != caller:
            os._exit(3)
        return run(abc)

    count_forks(monkeypatch, cores=2)
    monkeypatch.setattr(family, "_sweep_worker", dying)
    with pytest.raises(RuntimeError, match=r"sweep worker \d+ exited with "
                                           r"code 3"):
        sweep(4, 4, 5, parallelism=2)
    assert_no_child_left()


def test_a_caller_that_raises_leaves_no_worker(monkeypatch):
    caller, run = os.getpid(), family._sweep_worker

    def raising(abc):
        if os.getpid() == caller:
            raise KeyError("caller triple")
        return run(abc)

    count_forks(monkeypatch, cores=2)
    monkeypatch.setattr(family, "_sweep_worker", raising)
    with pytest.raises(KeyError, match="caller triple"):
        sweep(4, 4, 5, parallelism=2)
    assert_no_child_left()


@contextlib.contextmanager
def stalls_after(seconds):
    """Raise TimeoutError in this process if the block runs longer."""
    def stalled(signum, frame):
        raise TimeoutError("the sweep stalled")

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def in_a_worker(monkeypatch, action):
    """Make a forked worker call action before each triple it runs, while
    this process holds each of its triples until a worker has exited (and
    leaves it unreaped), so the worker takes a triple before this process
    has taken them all.  The usable cores read as 2."""
    caller, run = os.getpid(), family._sweep_worker

    def triple(abc):
        if os.getpid() != caller:
            action()
        else:
            os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
        return run(abc)

    count_forks(monkeypatch, cores=2)
    monkeypatch.setattr(family, "_sweep_worker", triple)


def test_worker_records_name_a_worker_whose_data_is_incomplete(monkeypatch):
    write = os.write
    cases = [
        # Each line loses its end, so the lines run together.
        (lambda: monkeypatch.setattr(
            os, "write", lambda fd, data: write(fd, data[:-2])),
         r"incomplete records: JSONDecodeError"),
        # The worker takes a triple number and exits 0 before writing; this
        # process or the worker took the first, the other the second.
        (lambda: os._exit(0), r"incomplete records: KeyError\([01]\)"),
        (lambda: os._exit(1), r"sweep worker \d+ exited with code 1$"),
    ]
    for action, message in cases:
        with monkeypatch.context() as m, stalls_after(60):
            in_a_worker(m, action)
            with pytest.raises(RuntimeError, match=message):
                sweep(4, 4, 5, parallelism=2)
        assert_no_child_left()


def test_a_worker_that_dies_writing_its_records_fails_the_sweep(monkeypatch):
    # With a pipe that each taker writes the next number back to, a worker
    # that dies on that write leaves this process blocked on the pipe.
    def exit_on_write(fd, data):
        os._exit(9)

    in_a_worker(monkeypatch,
                lambda: monkeypatch.setattr(os, "write", exit_on_write))
    with stalls_after(20):
        with pytest.raises(RuntimeError, match=r"sweep worker \d+ exited "
                                               r"with code 9$"):
            sweep(4, 4, 5, parallelism=2)
    assert_no_child_left()


def test_a_worker_killed_inside_a_triple_fails_the_sweep(monkeypatch):
    in_a_worker(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    with stalls_after(20):
        with pytest.raises(RuntimeError, match=r"sweep worker \d+ exited "
                                               r"with code -9$"):
            sweep(4, 4, 5, parallelism=2)
    assert_no_child_left()


def numbered(k):
    """A record whose A is k."""
    return SweepRecord(k, 0, 0, 0, False, False, 0, 0, 0, False, 0, False)


def test_deal_gives_every_number_once_in_box_order(monkeypatch):
    # More numbers than one 64 KiB pipe holds as 8-byte records.
    count = 20_000
    monkeypatch.setattr(family, "_sweep_worker", numbered)
    with stalls_after(60), family._deal(count) as deal, \
            tempfile.TemporaryFile() as out:
        family._run_dealt(deal.fileno(), out.fileno(), range(count))
        assert os.read(deal.fileno(), 8) == b""
        lines = os.pread(out.fileno(), os.fstat(out.fileno()).st_size, 0)
    assert lines.splitlines() == [
        json.dumps([k, tuple(numbered(k))]).encode()
        for k in range(count)]


def tagged(abc):
    """A record whose A is the pid of the process that ran the triple."""
    return numbered(os.getpid())


def test_deal_gives_each_number_to_one_of_more_processes_than_cores(
        monkeypatch):
    # Five takers share one deal file and one out file, as the sweep's
    # processes do: a number taken twice or lost, or two lines that overlap,
    # breaks the union.  A forked taker inherits the alarm's handler but not
    # the alarm, so it stops with this process, which kills it.
    count, takers = 5_000, []
    monkeypatch.setattr(family, "_sweep_worker", tagged)
    with stalls_after(60), family._deal(count) as deal, \
            tempfile.TemporaryFile() as out:
        fds = deal.fileno(), out.fileno()
        try:
            for _ in range(4):
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        family._run_dealt(*fds, range(count))
                        status = 0
                    finally:
                        os._exit(status)
                takers.append(pid)
            family._run_dealt(*fds, range(count))
            while takers:
                status = os.waitpid(takers[-1], 0)[1]
                takers.pop()
                assert status == 0
        finally:
            for pid in takers:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        lines = os.pread(fds[1], os.fstat(fds[1]).st_size, 0).splitlines()
    taken: dict[int, list[int]] = {}
    for k, row in map(json.loads, lines):
        taken.setdefault(row[0], []).append(k)
    assert sorted(sum(taken.values(), [])) == list(range(count))
    assert all(ks == sorted(ks) for ks in taken.values())
    assert os.getpid() in taken


@pytest.mark.parametrize("parallelism", [0, -1])
def test_sweep_rejects_parallelism_below_one(parallelism):
    with pytest.raises(ValueError, match="at least 1"):
        sweep(1, 1, 2, parallelism=parallelism)


def test_worker_captures_invalid_parameters():
    r = _sweep_worker((0, 1, 2))
    assert not r.audit_pass
    assert not r.agrees
    assert "ValueError" in r.message


def test_sweep_csv_header_and_booleans():
    records = (SweepRecord(1, 2, 4, 14, True, True, 15, 36, 24, True, 2, True),)
    text = sweep_csv(records)
    lines = text.split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[0] == ("A,B,C,neighbor_count,predicted_14,agrees,"
                        "contact_size,g2,g3,g4_empty,euler,audit_pass")
    assert lines[1] == "1,2,4,14,true,true,15,36,24,true,2,true"
    assert text.endswith("\n")


def test_csv_header_names_each_record_field_but_message_in_order():
    # sweep_csv writes tuple(record)[:-1], so the header's order must be
    # the field order, with message last and left out; g2 and g3 name
    # g2_count and g3_count.
    names = list(SweepRecord._fields)
    assert names[-1] == "message"
    assert len(CSV_HEADER) == len(names) - 1
    assert all(name.startswith(col) for col, name in zip(CSV_HEADER, names))


# ---------------------------------------------------------------------------
# Oracle: the arc-graph table that negated each endpoint once per label,
# kept verbatim apart from its name.


def oracle_g2_table(p):
    triple = as_triple(p)
    digit = lambda i: (i, 0, 0)
    edges = set()
    for src, dst, lo, hi in _g2_rows(triple):
        for i in range(lo, hi + 1):
            edges.add((src, digit(i), dst))
            edges.add((vertex_set(vec_neg(v) for v in src),
                       digit(triple.C - 1 - i),
                       vertex_set(vec_neg(v) for v in dst)))
    return tuple(sorted(edges))


def test_tables_match_oracle_and_their_sets_on_the_family():
    members = [abc for abc in family_triples(12, 12, 12) if predicts_14(abc)]
    assert len(members) == 111
    for abc in members:
        assert expected_graph(abc, "g2") == oracle_g2_table(abc), abc
        for which in ("contact", "g2", "g3"):
            assert expected_edges(abc, which) == set(
                expected_graph(abc, which)), (abc, which)


def test_registry_passes_on_every_signed_tile_with_14_neighbors():
    # x^3 + A x^2 + B x + C with |A|, |B|, |C| <= 6, companion digits and
    # the default basis: the tiles with 14 neighbors are the ones the
    # audits must pass on, family members or not.  A system whose neighbor
    # fixpoint hits the round cap is counted and left out.
    passed, capped = [], 0
    for abc, t in signed_cubic_contexts():
        try:
            if len(t.neighbors.points) != 14:
                continue
        except RoundLimitError:
            capped += 1
            continue
        failures = audit_failures(t)
        assert set(failures.values()) == {None}, (abc, failures)
        passed.append(abc)
    assert (len(passed), capped) == (82, 16)
    assert (0, -2, 3) in passed


# The signed cubics with |A|, |B|, |C| <= 6 and 18 neighbors, by their
# levels 2 to 4.  Those with levels (48, 32, 0) have the alternating sum 2
# of a sphere, but their boundary is not the bitruncated cubic
# honeycomb's; those with levels (54, 40, 0) have the sum 4.
IMPOSTORS = {
    (48, 32, 0): [(-3, -1, 6), (-2, -1, 4), (-2, -1, 5), (-2, -1, 6),
                  (-1, -1, 2), (-1, -1, 3), (-1, -1, 4), (-1, -1, 5),
                  (-1, -1, 6), (1, -1, -6), (1, -1, -5), (1, -1, -4),
                  (1, -1, -3), (1, -1, -2), (2, -1, -6), (2, -1, -5),
                  (2, -1, -4), (3, -1, -6)],
    (54, 40, 0): [(-2, -2, 6), (-2, 0, 6), (2, -2, -6), (2, 0, -6)],
}


def test_registry_answers_with_a_failure_on_every_impostor():
    # A walk that branches is the walk audit's witness, not an exception.
    failed = {levels: dict.fromkeys(("successor_paths", "four_fold", "loops",
                                     "walk_points"), 0)
              for levels in IMPOSTORS}
    for levels, members in IMPOSTORS.items():
        for abc in members:
            t = TileAnalysis(*companion_form([1, *abc]))
            assert len(t.neighbors.points) == 18, abc
            assert tuple(len(t.level(k).vertices)
                         for k in (2, 3, 4)) == levels, abc
            failures = audit_failures(t)
            assert any(failures.values()), abc
            for name, message in failures.items():
                failed[levels][name] += message is not None
            if abc == (-3, -1, 6):
                assert failures["walk_points"] == (
                    "walk is not unique: vertex ((-4, 1, 0), (-3, 1, 0), "
                    "(-1, 0, 0)) has 3 outgoing edges")
    assert failed == {
        (48, 32, 0): {"successor_paths": 16, "four_fold": 18, "loops": 18,
                      "walk_points": 16},
        (54, 40, 0): dict.fromkeys(failed[54, 40, 0], 4)}


def test_registry_names_an_empty_level_instead_of_passing():
    # A check of no arc or no triple point must not pass, and a neighbor
    # with no loop is the loop audit's witness, not an exception.  The
    # planar x^2 + x + 3 has points in 3 tiles but none in 4; the interval
    # tile of M = (-2), D = {0, 1}, has no point in 3 tiles.
    t = TileAnalysis(*companion_form([1, 1, 3]))
    assert tuple(len(t.level(k).vertices) for k in (1, 2, 3)) == (6, 6, 0)
    assert audit_failures(t) == {
        "successor_paths": None,
        "four_fold": "((-1, -1), (-1, 0)) lies in 0 level-3 vertices, not 2",
        "loops": "loop around (-1, -1) at depth 1 is disconnected: "
                 "nodes 0 and 1 are in different components",
        "walk_points": "level 3 is empty: no triple point to walk"}
    t = TileAnalysis(IntMatrix(((-2,),)), ((0,), (1,)))
    assert tuple(len(t.level(k).vertices) for k in (1, 2, 3)) == (2, 0, 0)
    assert audit_failures(t) == {
        "successor_paths": "level 2 is empty: no arc has successors to check",
        "four_fold": "level 2 is empty: no arc has triple points to place",
        "loops": "(-1,) appears in no level-2 vertex",
        "walk_points": "level 3 is empty: no triple point to walk"}
