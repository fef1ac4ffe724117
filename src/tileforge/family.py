"""Family-wide expected structures and the parameter sweep.

The contact graph, the arc graph, and the point graph of a 14-neighbor
family member follow closed-form edge tables in the parameters.  This module
instantiates those tables so computed graphs can be checked edge for edge,
keeps the one registry of structural audits, and runs them in the sweep and
in the report of a single context.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import tempfile
from typing import NamedTuple

from .analysis import (
    AbcTriple,
    TileAnalysis,
    analysis_for,
    as_triple,
    predicts_14,
)
from .graphs import LabeledEdge, minkowski_sum
from .lattice import Vec, vec_neg
from .power import negated, vertex_set
from .topology import (
    census,
    four_fold_failure,
    loop_chains_failure,
    successor_paths_failure,
    walk_points_failure,
)

ORIGIN = (0, 0, 0)


def expected_contact_set(p) -> tuple[Vec, ...]:
    """Closed-form contact set: 15 points when A < B, 13 when A = B."""
    triple = as_triple(p)
    pv, q, n, qp, nq, np_, nqp = triple.names()
    pts = {ORIGIN, pv, q, n, qp, nq, np_}
    if triple.A < triple.B:
        pts.add(nqp)
    return tuple(sorted(pts | {vec_neg(x) for x in pts}))


def _contact_rows(triple: AbcTriple):
    A, B, C = triple.A, triple.B, triple.C
    p, q, n, qp, nq, np_, nqp = triple.names()
    rows = [
        (ORIGIN, ORIGIN, 0, C - 1, 0),
        (ORIGIN, p, 0, C - 2, 1),
        (p, q, 0, C - A - 1, A),
        (p, qp, 0, C - A, A - 1),
        (n, vec_neg(p), 0, 0, C - 1),
        (q, n, 0, C - B - 1, B),
        (q, np_, 0, C - B, B - 1),
        (np_, vec_neg(q), 0, A - 1, C - A),
        (nq, vec_neg(n), 0, B - 1, C - B),
        (qp, nq, 0, C - B + A - 1, B - A),
    ]
    if A >= 2:
        rows.append((np_, vec_neg(qp), 0, A - 2, C - A + 1))
    if B >= 2:
        rows.append((nq, vec_neg(np_), 0, B - 2, C - B + 1))
    if A != B:
        rows += [
            (nqp, vec_neg(nq), 0, B - A - 1, C - B + A),
            (qp, nqp, 0, C - B + A - 2, B - A + 1),
            (nqp, vec_neg(nqp), 0, B - A, C - B + A - 1),
        ]
    return rows


def _contact_edges(triple: AbcTriple) -> set[LabeledEdge]:
    digit = lambda i: (i, 0, 0)
    edges: set[LabeledEdge] = set()
    for src, dst, lo, hi, off in _contact_rows(triple):
        if ORIGIN in (src, dst):
            continue
        for i in range(lo, hi + 1):
            e = LabeledEdge(src, dst, digit(i), digit(i + off))
            edges.add(e)
            edges.add(e.mirrored())
    return edges


def _g2_rows(triple: AbcTriple):
    """Arc-graph edge table: (src pair, dst pair, label range)."""
    A, B, C = triple.A, triple.B, triple.C
    p, q, n, qp, nq, np_, nqp = triple.names()
    neg = vec_neg
    rows = []

    def add(src, dst, lo, hi, guard=True):
        if guard and hi >= lo:
            rows.append((vertex_set(src), vertex_set(dst), lo, hi))

    add((qp, np_), (neg(q), nq), 0, A - 1)
    add((qp, np_), (neg(qp), nq), 0, A - 2, A >= 2)
    add((qp, np_), (neg(qp), nqp), 0, A - 2, A >= 2)
    add((neg(p), qp), (neg(q), nq), A, C - B + A - 1)
    add((neg(p), qp), (neg(qp), nq), A - 1, C - B + A - 1)
    add((neg(p), qp), (neg(qp), nqp), A - 1, C - B + A - 2)
    add((neg(nqp), neg(p)), (neg(q), nq), C - B + A, C - 1)
    add((neg(nqp), neg(p)), (neg(qp), nq), C - B + A, C - 1)
    add((neg(nqp), neg(p)), (neg(qp), nqp), C - B + A - 1, C - 1)
    add((p, q), (qp, np_), 0, C - B)
    add((p, q), (qp, n), 0, C - B - 1)
    add((p, q), (q, n), 0, C - B - 1)
    add((neg(nq), p), (qp, np_), C - B + 1, C - A)
    add((neg(nq), p), (qp, n), C - B, C - A)
    add((neg(nq), p), (q, n), C - B, C - A - 1)
    add((neg(np_), neg(nq)), (qp, np_), C - A + 1, C - 1, A >= 2)
    add((neg(np_), neg(nq)), (qp, n), C - A + 1, C - 1, A >= 2)
    add((neg(np_), neg(nq)), (q, n), C - A, C - 1)
    add((nq, nqp), (neg(nqp), neg(n)), 0, B - A)
    add((nq, nqp), (neg(nq), neg(n)), 0, B - A - 1)
    add((nq, nqp), (neg(nq), neg(np_)), 0, B - A - 1)
    add((neg(qp), nq), (neg(nqp), neg(n)), B - A + 1, B - 1, A >= 2)
    add((neg(qp), nq), (neg(nq), neg(n)), B - A, B - 1)
    add((neg(qp), nq), (neg(nq), neg(np_)), B - A, B - 2, A >= 2)
    add((neg(qp), neg(q)), (neg(nqp), neg(n)), B, C - 1)
    add((neg(qp), neg(q)), (neg(nq), neg(n)), B, C - 1)
    add((neg(qp), neg(q)), (neg(np_), neg(nq)), B - 1, C - 1)
    add((neg(qp), nqp), (neg(nqp), neg(nq)), B - A, B - A)
    add((neg(q), nq), (neg(n), neg(np_)), B - 1, B - 1)
    add((neg(n), neg(np_)), (p, q), C - 1, C - 1)
    add((qp, n), (neg(p), nq), 0, 0)
    add((q, n), (neg(p), np_), 0, 0)
    add((neg(p), np_), (neg(q), neg(qp)), A - 1, A - 1)
    add((neg(n), neg(nqp)), (p, nqp), C - 1, C - 1)
    add((neg(n), neg(nq)), (p, n), C - 1, C - 1)
    add((p, n), (neg(p), qp), 0, 0)
    return rows


def _g3_cycles(triple: AbcTriple):
    """Point-graph cycles: lists of (vertex members, digit label index)."""
    A, B, C = triple.A, triple.B, triple.C
    p, q, n, qp, nq, np_, nqp = triple.names()
    neg = vec_neg
    return (
        (((neg(qp), nqp, p), B - A),
         ((neg(nqp), neg(nq), qp), C - B + A - 1),
         ((nqp, n, nq), 0),
         ((neg(nqp), neg(p), neg(n)), C - 1)),
        (((neg(qp), nqp, nq), B - A),
         ((neg(nqp), neg(nq), neg(n)), C - 1),
         ((nqp, n, p), 0),
         ((neg(nqp), neg(p), qp), C - B + A - 1)),
        (((neg(qp), nq, neg(q)), B - 1),
         ((neg(n), neg(nq), neg(np_)), C - 1),
         ((p, n, q), 0),
         ((neg(p), qp, np_), A - 1)),
        (((neg(q), nq, neg(p)), B - 1),
         ((neg(n), neg(np_), neg(qp)), C - 1),
         ((p, q, neg(nq)), C - B),
         ((qp, np_, n), 0)),
        (((qp, n, q), 0),
         ((neg(p), nq, np_), A - 1),
         ((neg(n), neg(qp), neg(q)), C - 1),
         ((neg(nq), p, neg(np_)), C - A)),
        (((nq, n, np_), 0),
         ((neg(n), neg(p), neg(q)), C - 1),
         ((neg(qp), p, neg(np_)), C - A),
         ((neg(nq), qp, q), C - B)),
    )


def expected_edges(p, which: str) -> set:
    """Instantiated edge table as a set; which is contact, g2, or g3.

    contact edges are LabeledEdge objects over the origin-free contact set;
    g2 and g3 edges are (src, digit, dst) triples matching the level graphs.
    """
    triple = as_triple(p)
    if which == "contact":
        return _contact_edges(triple)
    if not predicts_14(triple):
        raise ValueError("edge tables for levels 2 and 3 require a "
                         "14-neighbor family member")
    digit = lambda i: (i, 0, 0)
    edges = set()
    if which == "g2":
        for src, dst, lo, hi in _g2_rows(triple):
            nsrc, ndst = negated(src), negated(dst)
            for i in range(lo, hi + 1):
                edges.add((src, digit(i), dst))
                edges.add((nsrc, digit(triple.C - 1 - i), ndst))
        return edges
    if which == "g3":
        for cycle in _g3_cycles(triple):
            for idx, (members, label) in enumerate(cycle):
                nxt = cycle[(idx + 1) % len(cycle)][0]
                edges.add((vertex_set(members), digit(label), vertex_set(nxt)))
        return edges
    raise ValueError(f"unknown table {which!r}")


def expected_graph(p, which: str):
    """expected_edges(p, which), sorted."""
    return tuple(sorted(expected_edges(p, which)))


# ---------------------------------------------------------------------------
# the audit registry and the report of one context


def audit_failures(ctx, k_max: int = 1) -> dict[str, str | None]:
    """The structural audits by name: None where an audit passed, else its
    failure.  The checks are looked up when called, so a wrapper installed on
    this module's names sees every call."""
    t = analysis_for(ctx)
    return {
        "successor_paths": successor_paths_failure(t),
        "four_fold": four_fold_failure(t),
        "loops": loop_chains_failure(t, k_max),
        "walk_points": walk_points_failure(t),
    }


def census_failures(c, g4_empty: bool) -> list[str]:
    """Where the census of a 14-neighbor tile, and whether its level 4 is
    empty, deviate from the boundary of a 2-sphere; empty if nowhere."""
    return [msg for ok, msg in (
        ((c.edges, c.points) == (36, 24), "level sizes are not 36 and 24"),
        (g4_empty, "level 4 is not empty"),
        (c.euler == 2, f"alternating census is {c.euler}, not 2"),
        (c.degree_sequence == (4,) * 6 + (6,) * 8,
         "arc membership degrees deviate")) if not ok]


def audit_report(ctx, k_max: int = 1) -> dict:
    """JSON-ready report of one context.  A family member adds its triple and
    neighbor_count and, with 14 neighbors, the census and the audits (loops
    to depth k_max); elsewhere audit_pass is None."""
    t = analysis_for(ctx)
    triple = t.triple
    s_count = len(t.neighbors.points)
    report: dict = {
        "matrix": [list(r) for r in t.matrix.rows],
        "digit_count": len(t.digits),
        "contact": {"size": len(t.contact.points), "rounds": t.contact.rounds,
                    "points": [list(p) for p in t.contact.points]},
        "neighbors": {"count": s_count,
                      "points": [list(p) for p in t.neighbors.points]},
        "predicted_14": None if triple is None else predicts_14(triple),
        "levels": {"g2": len(t.level(2).vertices), "g3": None, "g4": None},
        "audit_pass": None,
    }
    if s_count == 14:
        report["levels"]["g3"] = len(t.level(3).vertices)
        report["levels"]["g4"] = len(t.level(4).vertices)
    if triple is None:
        return report
    report["triple"] = [triple.A, triple.B, triple.C]
    report["neighbor_count"] = s_count
    if s_count == 14:
        c = census(t)
        report["census"] = {
            "faces": c.faces, "edges": c.edges, "points": c.points,
            "euler": c.euler, "degree_sequence": list(c.degree_sequence),
        }
        if deviations := census_failures(c, not report["levels"]["g4"]):
            report["census"]["failures"] = deviations
        failures = audit_failures(t, k_max)
        report["audits"] = {k: "ok" if v is None else v
                            for k, v in failures.items()}
        report["audit_pass"] = not deviations and all(
            v is None for v in failures.values())
    return report


# ---------------------------------------------------------------------------
# sweep


class SweepRecord(NamedTuple):
    A: int
    B: int
    C: int
    neighbor_count: int
    predicted_14: bool
    agrees: bool
    contact_size: int
    g2_count: int
    g3_count: int
    g4_empty: bool
    euler: int
    audit_pass: bool
    message: str = ""


# One column per SweepRecord field but the last, message, in field order:
# sweep_csv writes each record as tuple(record)[:-1].
CSV_HEADER = ("A", "B", "C", "neighbor_count", "predicted_14", "agrees",
              "contact_size", "g2", "g3", "g4_empty", "euler", "audit_pass")


def _evaluate(triple: AbcTriple) -> SweepRecord:
    """Audit one triple.

    Levels 3 and 4 are only enumerated when the tile actually has 14
    neighbors: outside that family the power graphs are unbounded in the
    parameters (they reach 6 digits of vertices inside the C <= 12 box) and
    nothing constrains them.  Skipped fields carry the -1 sentinel.  The
    context is built here and dropped on return: no sweep reads a triple
    twice, so the shared contexts of analysis_for are left as they were.
    """
    t = TileAnalysis(*triple.system())
    s_count = len(t.neighbors.points)
    predicted = predicts_14(triple)
    agrees = (s_count == 14) == predicted
    failures: list[str] = []

    if tuple(sorted(t.contact.points)) != expected_contact_set(triple):
        failures.append("contact set deviates from its closed form")
    if set(t.contact_graph.edges) != expected_edges(triple, "contact"):
        failures.append("contact edges deviate from the table")
    if triple.A < triple.B:
        if len(minkowski_sum(t.contact.points, t.contact.points)) != 65:
            failures.append("contact sumset does not have 65 points")
    elif s_count < 16:
        failures.append("A=B member with fewer than 16 neighbors")

    g2_count, g3_count, g4_empty, euler = -1, -1, False, -1
    if s_count == 14:
        c, g2, g3 = census(t), t.level(2), t.level(3)
        g2_count, g3_count, euler = c.edges, c.points, c.euler
        g4_empty = not t.level(4).vertices
        if predicted and set(g2.edges) != expected_edges(triple, "g2"):
            failures.append("arc-graph edges deviate from the table")
        if predicted and set(g3.edges) != expected_edges(triple, "g3"):
            failures.append("point-graph edges deviate from the table")
        failures += census_failures(c, g4_empty)
        failures += [f"{name}: {msg}"
                     for name, msg in audit_failures(t).items()
                     if msg is not None]

    return SweepRecord(
        triple.A, triple.B, triple.C, s_count, predicted, agrees,
        len(t.contact.points), g2_count, g3_count, g4_empty, euler,
        not failures, "; ".join(failures),
    )


def _sweep_worker(abc: tuple[int, int, int]) -> SweepRecord:
    a, b, c = abc
    try:
        return _evaluate(AbcTriple(a, b, c))
    except Exception as exc:
        return SweepRecord(a, b, c, -1, False, False, -1, -1, -1, False, -1,
                           False, f"{type(exc).__name__}: {exc}")


def family_triples(a_max: int, b_max: int, c_max: int):
    """All (A, B, C) with 1 <= A <= B < C inside the box, in order."""
    return tuple((a, b, c)
                 for a in range(1, a_max + 1)
                 for b in range(a, b_max + 1)
                 for c in range(b + 1, c_max + 1))


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _deal(count: int):
    """An unlinked file of the numbers 0, ..., count - 1 as 8-byte records,
    its offset at the first.  Forked processes share the offset, and the
    kernel locks it for each read, so each number goes to one of them."""
    deal = tempfile.TemporaryFile()
    deal.write(b"".join(k.to_bytes(8, "little") for k in range(count)))
    deal.seek(0)
    return deal


def _run_dealt(deal: int, out: int, triples):
    """Sweep triples by the numbers read from deal until it runs out, and
    write a JSON line [number, record] for each to out; the kernel locks
    out's shared offset for each write too, so the lines stay whole."""
    while number := os.read(deal, 8):
        k = int.from_bytes(number, "little")
        row = tuple(_sweep_worker(triples[k]))
        os.write(out, (json.dumps([k, row]) + "\n").encode())


def _fork_worker(deal: int, out: int, triples) -> int:
    """pid of a forked process that sweeps dealt triples and exits with
    status 0 only once all of their lines are written."""
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        _run_dealt(deal, out, triples)
        status = 0
    except Exception:
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(status)


def sweep(a_max: int = 12, b_max: int = 12, c_max: int = 12,
          parallelism: int = 1) -> tuple[SweepRecord, ...]:
    """Audit every family member in the box; order is deterministic.

    parallelism bounds the processes, this one among them, and so do the
    usable cores and the number of triples; the others are forked workers.
    Every process, this one too, reads the next triple number from the deal,
    in box order, only when it is free; no process waits on another.  A
    worker that fails raises RuntimeError, and no worker outlives the call,
    whether it returns or raises.  As with any fork, call it with
    parallelism above 1 only from a process that runs no other threads.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be at least 1")
    if parallelism > 1 and not hasattr(os, "fork"):
        raise ValueError("parallelism above 1 needs os.fork")
    triples = family_triples(a_max, b_max, c_max)
    processes = min(parallelism, len(triples), _usable_cores())
    workers: list[int] = []  # unreaped pids
    with _deal(len(triples)) as deal, tempfile.TemporaryFile() as out:
        fds = deal.fileno(), out.fileno()
        try:
            for _ in range(processes - 1):
                workers.append(_fork_worker(*fds, triples))
            _run_dealt(*fds, triples)
            while workers:
                status = os.waitpid(workers[-1], 0)[1]
                pid = workers.pop()
                if code := os.waitstatus_to_exitcode(status):
                    raise RuntimeError(
                        f"sweep worker {pid} exited with code {code}")
            data = os.pread(fds[1], os.fstat(fds[1]).st_size, 0)
        finally:
            for pid in workers:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    try:
        done = dict(map(json.loads, data.splitlines()))
        return tuple(SweepRecord(*done[k]) for k in range(len(triples)))
    except (ValueError, TypeError, KeyError) as exc:
        raise RuntimeError(
            f"sweep workers wrote incomplete records: {exc!r}") from None


def disagreements(records) -> tuple[SweepRecord, ...]:
    return tuple(r for r in records if not r.agrees)


def sweep_csv(records) -> str:
    """Render sweep records as CSV text with LF line endings."""
    lines = [",".join(CSV_HEADER)]
    for r in records:
        lines.append(",".join(str(x).lower() if isinstance(x, bool)
                              else str(x) for x in tuple(r)[:-1]))
    return "\n".join(lines) + "\n"
