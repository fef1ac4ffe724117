import concurrent.futures

import pytest

from tileforge import family
from tileforge.analysis import analysis_for, as_triple, predicts_14
from tileforge.family import (
    CSV_HEADER,
    SweepRecord,
    _g2_rows,
    _sweep_worker,
    disagreements,
    expected_contact_set,
    expected_edges,
    expected_graph,
    family_triples,
    sweep,
    sweep_csv,
)
from tileforge.graphs import LabeledEdge
from tileforge.lattice import vec_neg
from tileforge.power import vertex_set


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
    # Two workers beside this process: chunks run here and in the pool
    # interleave in the box order.
    assert sweep(4, 4, 5, parallelism=3) == serial


class RecordingPool:
    """A stand-in for ProcessPoolExecutor that starts no process: it records
    the worker count it is asked for and runs each submitted call at once,
    so every future it returns has already run."""

    asked: list = []

    def __init__(self, max_workers):
        RecordingPool.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


class IdlePool(RecordingPool):
    """Its futures never start, so the caller takes every one back."""

    def submit(self, fn, *args):
        return concurrent.futures.Future()


class StartedFuture(concurrent.futures.Future):
    """A future that is already running: cancel() fails, and result() runs
    the call then."""

    def __init__(self, fn, args):
        super().__init__()
        self.set_running_or_notify_cancel()
        self._call = (fn, args)

    def result(self, timeout=None):
        if not self.done():
            fn, args = self._call
            self.set_result(fn(*args))
        return super().result(timeout)


class BusyPool(RecordingPool):
    """Every future has started before the caller looks at it."""

    def submit(self, fn, *args):
        return StartedFuture(fn, args)


def test_sweep_starts_no_more_workers_than_triples(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "asked", [])
    assert len(family_triples(2, 2, 3)) == 4
    records = sweep(2, 2, 3, parallelism=10_000)
    # The calling process is the fourth.
    assert RecordingPool.asked == [3]
    assert records == sweep(2, 2, 3, parallelism=1)
    # One triple needs no pool at all.
    assert sweep(1, 1, 2, parallelism=10_000) == sweep(1, 1, 2)
    assert RecordingPool.asked == [3]


@pytest.mark.parametrize("pool", [IdlePool, BusyPool])
def test_sweep_records_do_not_depend_on_who_runs_them(pool, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(RecordingPool, "asked", [])
    assert sweep(4, 4, 5, parallelism=2) == sweep(4, 4, 5, parallelism=1)
    assert RecordingPool.asked == [1]


def test_caller_records_a_failing_triple_as_a_worker_does(monkeypatch):
    evaluate = family._evaluate

    def failing(triple):
        if (triple.A, triple.B, triple.C) == (4, 4, 5):
            raise ZeroDivisionError("no inverse")
        return evaluate(triple)

    monkeypatch.setattr(family, "_evaluate", failing)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", IdlePool)
    expected = SweepRecord(4, 4, 5, -1, False, False, -1, -1, -1, False, 0,
                           False, "ZeroDivisionError: no inverse")
    assert _sweep_worker((4, 4, 5)) == expected
    records = sweep(4, 4, 5, parallelism=2)
    assert records[-1] == expected
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", BusyPool)
    assert sweep(4, 4, 5, parallelism=2) == records


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
