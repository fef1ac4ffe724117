"""Command-line interface: analyze one tile, sweep a box, render geometry."""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import (
    AbcTriple,
    TileAnalysis,
    check_basis,
    check_system,
)
from .family import audit_report, disagreements, sweep
from .geometry_io import (
    approximate_boundary_piece,
    approximate_tile,
    boundary_point_count,
    export,
    merge_clouds,
)
from .graphs import RoundLimitError
from .lattice import IntMatrix
from .topology import MAX_LOOP_DEPTH


def _parse_abc(text: str) -> AbcTriple:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--abc expects A,B,C, got {text!r}")
    try:
        values = [int(x) for x in parts]
    except ValueError:
        raise ValueError(
            f"--abc expects integers A,B,C, got {text!r}") from None
    return AbcTriple(*values)


def _load_json(path, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {what} file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} file is not valid JSON: {exc}") from exc


def _load_context(args, basis_text=None) -> TileAnalysis:
    """Analysis context of --abc or of explicit --matrix/--digits files, with
    the contact seed basis parsed from basis_text if given.  The context
    rejects a system or basis outside the theory before any fixpoint runs."""
    if bool(args.abc) == bool(args.matrix):
        raise ValueError("provide exactly one of --abc or --matrix")
    if args.abc and args.digits:
        raise ValueError("--digits requires --matrix")
    if args.abc:
        matrix, digits = _parse_abc(args.abc).system()
    elif not args.digits:
        raise ValueError("--matrix requires --digits")
    else:
        matrix = IntMatrix(_int_vectors(_load_json(args.matrix, "matrix"),
                                        "matrix file"))
        digits = _int_vectors(_load_json(args.digits, "digits"),
                              "digits file")
    if not basis_text:
        return TileAnalysis(matrix, digits)
    try:
        basis = _int_vectors(json.loads(basis_text), "--basis")
    except json.JSONDecodeError as exc:
        raise ValueError(f"--basis is not valid JSON: {exc}") from exc
    check_system(matrix, digits)
    try:
        check_basis(basis, matrix.size)
    except ValueError as exc:
        raise ValueError(f"--{exc}") from None
    return TileAnalysis(matrix, digits, basis)


def _int_vectors(value, what: str):
    """A parsed JSON list of integer vectors, as tuples.  Only JSON integers
    are entries: a float, a bool or a string is rejected, not converted."""
    if not (isinstance(value, list) and all(
            isinstance(v, list) and all(type(x) is int for x in v)
            for v in value)):
        raise ValueError(f"{what} must be a JSON list of integer vectors")
    return tuple(map(tuple, value))


def run_analyze(args) -> int:
    if args.k < 1:
        raise ValueError(f"--k must be at least 1, got {args.k}")
    if args.k > MAX_LOOP_DEPTH:
        raise ValueError(f"--k must be at most {MAX_LOOP_DEPTH}")
    t = _load_context(args, args.basis)
    report = audit_report(t, k_max=args.k)
    if args.json:
        export(report, "json", args.json)
    if args.dot:
        export(t.contact_graph, "dot", args.dot)
    audit = report["audit_pass"]
    audit_text = "n/a" if audit is None else ("pass" if audit else "FAIL")
    print(f"neighbors: {report['neighbors']['count']}  "
          f"predicted_14: {report['predicted_14']}  audit: {audit_text}")
    return 0


def run_sweep(args) -> int:
    if args.max < 2:
        raise ValueError("--max must be at least 2")
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    records = sweep(args.max, args.max, args.max, parallelism=args.jobs)
    bad = disagreements(records)
    failed = tuple(r for r in records if not r.audit_pass)
    if args.csv:
        export(records, "csv", args.csv)
    print(f"{len(records)} triples checked, {len(bad)} disagreements")
    for r in (bad + failed)[:10]:
        print(f"  ({r.A},{r.B},{r.C}): neighbors={r.neighbor_count} "
              f"predicted={r.predicted_14} {r.message}")
    return 0 if not bad and not failed else 1


def run_render(args) -> int:
    depth = args.depth if args.depth is not None else (6 if args.boundary else 8)
    t = _load_context(args)
    if args.boundary:
        boundary_point_count(t, depth)  # raises over the point cap
        pieces = [approximate_boundary_piece(t, a, depth)
                  for a in t.neighbors.points]
        cloud = merge_clouds(pieces)
    else:
        cloud = approximate_tile(t.matrix, t.digits, depth)
    for path, fmt in ((args.ply, "ply"), (args.csv, "csv"),
                      (args.json, "json")):
        if path:
            export(cloud, fmt, path)
    print(f"{len(cloud.points)} points at depth {depth}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tileforge",
        description="Exact neighbor, boundary, and topology analysis of "
                    "integer self-affine tiles with collinear digits.")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="full report for one tile")
    analyze.add_argument("--abc", help="family parameters A,B,C")
    analyze.add_argument("--matrix", help="JSON file with matrix rows")
    analyze.add_argument("--digits", help="JSON file with digit vectors")
    analyze.add_argument("--basis", help="JSON list of contact seed vectors")
    analyze.add_argument("--k", type=int, default=1,
                         help=f"loop audit depth, 1 to {MAX_LOOP_DEPTH} "
                              "(default 1)")
    analyze.add_argument("--json", help="write the JSON report here")
    analyze.add_argument("--dot", help="write the contact graph as DOT here")
    analyze.set_defaults(func=run_analyze)

    sweep_cmd = sub.add_parser("sweep", help="audit a whole parameter box")
    sweep_cmd.add_argument("--max", type=int, default=12,
                           help="bound on A, B, and C, at least 2 "
                                "(default 12)")
    sweep_cmd.add_argument("--jobs", type=int, default=1,
                           help="processes to run on, this one among "
                                "them, at least 1 (default 1)")
    sweep_cmd.add_argument("--csv", help="write sweep records here")
    sweep_cmd.set_defaults(func=run_sweep)

    render = sub.add_parser("render", help="emit point-cloud geometry")
    render.add_argument("--abc", help="family parameters A,B,C")
    render.add_argument("--matrix", help="JSON file with matrix rows")
    render.add_argument("--digits", help="JSON file with digit vectors")
    render.add_argument("--depth", type=int,
                        help="word length (default 8, or 6 with --boundary)")
    render.add_argument("--boundary", action="store_true",
                        help="per-face boundary clouds instead of the tile")
    render.add_argument("--ply", help="write an ascii PLY here")
    render.add_argument("--csv", help="write x,y,z CSV here")
    render.add_argument("--json", help="write a JSON cloud here")
    render.set_defaults(func=run_render)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RoundLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
