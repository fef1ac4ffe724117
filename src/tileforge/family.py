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
from dataclasses import astuple, dataclass

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
        failures = audit_failures(t, k_max)
        report["audits"] = {k: "ok" if v is None else v
                            for k, v in failures.items()}
        report["audit_pass"] = all(v is None for v in failures.values())
    return report


# ---------------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class SweepRecord:
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
        if (g2_count, g3_count) != (36, 24):
            failures.append("level sizes are not 36 and 24")
        if not g4_empty:
            failures.append("level 4 is not empty")
        if euler != 2:
            failures.append(f"alternating census is {euler}, not 2")
        if c.degree_sequence != (4,) * 6 + (6,) * 8:
            failures.append("arc membership degrees deviate")
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
        return SweepRecord(a, b, c, -1, False, False, -1, -1, -1, False, 0,
                           False, f"{type(exc).__name__}: {exc}")


def _sweep_chunk(chunk) -> tuple[SweepRecord, ...]:
    return tuple(_sweep_worker(abc) for abc in chunk)


def family_triples(a_max: int, b_max: int, c_max: int):
    """All (A, B, C) with 1 <= A <= B < C inside the box, in order."""
    return tuple((a, b, c)
                 for a in range(1, a_max + 1)
                 for b in range(a, b_max + 1)
                 for c in range(b + 1, c_max + 1))


CHUNK_SIZE = 4


class _Deal:
    """The numbers count - 1, ..., 0, each taken once, by whichever forked
    process asks first.  One pipe holds the next number only: a taker reads
    it, which blocks every other taker, and writes back the one after it, or
    -1 once all are taken.  So the pipe never fills, however many numbers
    there are."""

    def __init__(self, count: int):
        self._read, self._write = os.pipe()
        self._put(count - 1)

    def _put(self, number: int):
        os.write(self._write, number.to_bytes(8, "little", signed=True))

    def take(self) -> int | None:
        """The next number, or None once all are taken."""
        number = int.from_bytes(os.read(self._read, 8), "little", signed=True)
        self._put(max(number - 1, -1))
        return None if number < 0 else number

    def close(self):
        os.close(self._read)
        os.close(self._write)


def _take_chunks(deal: _Deal, chunks) -> dict[int, tuple[SweepRecord, ...]]:
    """Run chunks by number, one at a time, until the deal runs out."""
    return {k: _sweep_chunk(chunks[k]) for k in iter(deal.take, None)}


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_worker(deal: _Deal, chunks) -> tuple[int, int]:
    """(pid, read end of its pipe) of a forked process that runs chunks from
    the deal, sends [[chunk number, records], ...] as JSON text, and exits
    with status 0 only once all of it is sent."""
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, read
    status = 1
    try:
        os.close(read)
        done = _take_chunks(deal, chunks)
        with open(write, "w", encoding="utf-8") as out:
            json.dump([[k, [astuple(r) for r in records]]
                       for k, records in done.items()], out)
        status = 0
    except Exception:
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(status)


def _worker_records(pid: int, status: int, data: bytes):
    """{chunk number: records} from what a reaped worker sent; RuntimeError
    naming it if it exited non-zero or its data is incomplete."""
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"sweep worker {pid} exited with code {code}")
    try:
        return {k: tuple(SweepRecord(*row) for row in rows)
                for k, rows in json.loads(data)}
    except (ValueError, TypeError) as exc:
        raise RuntimeError(
            f"sweep worker {pid} sent incomplete records: {exc}") from None


def sweep(a_max: int = 12, b_max: int = 12, c_max: int = 12,
          parallelism: int = 1) -> tuple[SweepRecord, ...]:
    """Audit every family member in the box; order is deterministic.

    parallelism bounds the processes, this one among them, and so do the
    usable cores and the number of chunks of CHUNK_SIZE triples.  With one
    process the sweep runs here.  Otherwise the others are forked workers,
    and every process, this one too, takes the next chunk number only when
    it is free; the numbers are dealt from the tail of the box, where the
    costliest members sit.  A worker that fails raises RuntimeError, and no
    worker outlives the call, whether it returns or raises.  As with any
    fork, call it with parallelism above 1 only from a process that runs
    no other threads.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be at least 1")
    if parallelism > 1 and not hasattr(os, "fork"):
        raise ValueError("parallelism above 1 needs os.fork")
    triples = family_triples(a_max, b_max, c_max)
    chunks = [triples[i:i + CHUNK_SIZE]
              for i in range(0, len(triples), CHUNK_SIZE)]
    processes = min(parallelism, len(chunks), _usable_cores())
    if processes < 2:
        return _sweep_chunk(triples)
    deal = _Deal(len(chunks))
    pipes: dict[int, int] = {}  # pid -> read end, for each unreaped worker
    try:
        for _ in range(processes - 1):
            pid, read = _fork_worker(deal, chunks)
            pipes[pid] = read
        done = _take_chunks(deal, chunks)
        for pid in list(pipes):
            with open(pipes[pid], "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            os.close(pipes.pop(pid))
            done.update(_worker_records(pid, status, data))
    finally:
        for pid, read in pipes.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)
        deal.close()
    return tuple(r for k in range(len(chunks)) for r in done[k])


def disagreements(records) -> tuple[SweepRecord, ...]:
    return tuple(r for r in records if not r.agrees)


def sweep_csv(records) -> str:
    """Render sweep records as CSV text with LF line endings."""
    lines = [",".join(CSV_HEADER)]
    for r in records:
        row = (r.A, r.B, r.C, r.neighbor_count, r.predicted_14, r.agrees,
               r.contact_size, r.g2_count, r.g3_count, r.g4_empty, r.euler,
               r.audit_pass)
        lines.append(",".join(str(x).lower() if isinstance(x, bool)
                              else str(x) for x in row))
    return "\n".join(lines) + "\n"
