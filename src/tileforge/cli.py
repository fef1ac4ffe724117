"""Command-line interface: analyze one tile, sweep a box, render geometry."""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from .analysis import AbcTriple, TileAnalysis
from .family import _check_parallelism, audit_report, disagreements, sweep
from .geometry_io import (
    approximate_boundary_piece,
    approximate_tile,
    boundary_point_count,
    export,
    merge_clouds,
)
from .lattice import IntMatrix
from .topology import MAX_LOOP_DEPTH, _check_loop_depth


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
    basis = None
    if basis_text:
        try:
            basis = _int_vectors(json.loads(basis_text), "--basis")
        except json.JSONDecodeError as exc:
            raise ValueError(f"--basis is not valid JSON: {exc}") from exc
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
    _check_loop_depth(args.k)
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
    _check_parallelism(args.jobs)
    records = sweep(args.max, args.max, args.max, parallelism=args.jobs)
    flagged = [r for r in records if not (r.agrees and r.audit_pass)]
    if args.csv:
        export(records, "csv", args.csv)
    print(f"{len(records)} triples checked, "
          f"{len(disagreements(records))} disagreements")
    for r in flagged[:10]:
        print(f"  ({r.A},{r.B},{r.C}): neighbors={r.neighbor_count} "
              f"predicted={r.predicted_14} {r.message}")
    return 1 if flagged else 0


def run_render(args) -> int:
    depth = args.depth if args.depth is not None else (6 if args.boundary else 8)
    t = _load_context(args)
    if t.matrix.size != 3 and (args.ply or args.csv):
        raise ValueError("--ply and --csv write x y z rows; a system of "
                         f"dimension {t.matrix.size} renders with --json")
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


# Each command's help, run function and options, name: (kind, default, help);
# a FLAG takes no value; an OUTPUT path names a file in an existing directory.
FLAG, OUTPUT = "flag", "output"
# A library refusal whose message starts with one of these names is about
# the option it maps to, and names that option.
_FLAG_OF = {"basis": "--basis", "depth": "--depth", "k": "--k",
            "parallelism": "--jobs"}
_HELP = {"help": (FLAG, False, "show this help and exit")}
_SYSTEM = {**_HELP, "abc": (str, None, "family parameters A,B,C"),
           "matrix": (str, None, "JSON file with matrix rows"),
           "digits": (str, None, "JSON file with digit vectors")}
COMMANDS = {
    "analyze": ("full report for one tile", run_analyze, {**_SYSTEM,
        "basis": (str, None, "JSON list of contact seed vectors"),
        "k": (int, 1, f"loop audit depth, 1 to {MAX_LOOP_DEPTH} (default 1)"),
        "json": (OUTPUT, None, "write the JSON report here"),
        "dot": (OUTPUT, None, "write the contact graph as DOT here")}),
    "sweep": ("audit a whole parameter box", run_sweep, {**_HELP,
        "max": (int, 12, "bound on A, B, and C, at least 2 (default 12)"),
        "jobs": (int, 1, "processes to run on, this one among them, at least "
                         "1 and at most the usable cores (default 1)"),
        "csv": (OUTPUT, None, "write sweep records here")}),
    "render": ("emit point-cloud geometry", run_render, {**_SYSTEM,
        "depth": (int, None, "word length (default 8, or 6 with --boundary)"),
        "boundary": (FLAG, False, "per-face boundary clouds, not the tile"),
        "ply": (OUTPUT, None, "write an ascii PLY here (3x3 systems)"),
        "csv": (OUTPUT, None, "write x,y,z CSV here (3x3 systems)"),
        "json": (OUTPUT, None, "write a JSON cloud here")}),
}


def _help(command) -> str:
    """The usage line, then a row for each command or each of its options."""
    rows = [(name, spec[0]) for name, spec in COMMANDS.items()]
    if command:
        rows = [(f"--{name}" + ("" if kind == FLAG else f" {name.upper()}"),
                 doc) for name, (kind, _, doc) in COMMANDS[command][2].items()]
    usage = f"usage: tileforge {command or 'COMMAND'} [--OPTION [VALUE] ...]"
    return "\n".join([usage, ""]
                     + [f"  {left:<20}  {doc}" for left, doc in rows])


def _parse(command, argv):
    """The options of command given in argv as attributes, or None once help
    is printed.  A malformed command line raises ValueError."""
    if command is None and argv[:1] not in (["-h"], ["--help"]):
        raise ValueError("expected a command: " + ", ".join(COMMANDS))
    options = COMMANDS[command][2] if command else _HELP
    args = SimpleNamespace(**{name: spec[1] for name, spec in options.items()})
    rest = iter(argv)
    for arg in rest:
        given, eq, value = ("--help" if arg == "-h" else arg).partition("=")
        key = given[2:] if given.startswith("--") else ""
        found = [key] if key in options else [
            name for name in options if key and name.startswith(key)]
        if len(found) != 1:
            raise ValueError(f"unrecognized argument {arg}" if not found else
                             f"ambiguous option {given}: " + ", ".join(found))
        name, kind = found[0], options[found[0]][0]
        if kind == FLAG and eq:
            raise ValueError(f"--{name} takes no value")
        if name == "help":
            return print(_help(command))
        if kind != FLAG and not eq:
            value = next(rest, "-")
            if value.startswith("-") and not value[1:].isdigit():
                raise ValueError(f"--{name} expects a value")
        try:
            setattr(args, name, kind == FLAG or (
                int(value) if kind is int else value))
        except ValueError:
            raise ValueError(f"--{name} {value!r} is not an integer") from None
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv[:1] and argv[0] in COMMANDS else None
    try:
        args = _parse(command, argv[1:] if command else argv)
    except ValueError as exc:
        usage = _help(command).partition("\n")[0]
        print(usage, f"error: {exc}", sep="\n", file=sys.stderr)
        return 2
    if args is None:
        return 0
    _, run, options = COMMANDS[command]
    try:
        for name in (n for n in options if options[n][0] == OUTPUT):
            path = getattr(args, name)
            if path and not os.path.isdir(os.path.dirname(path) or "."):
                raise ValueError(f"cannot write {path}: No such directory")
            if path and os.path.isdir(path):
                raise ValueError(f"cannot write {path}: Is a directory")
        return run(args)
    except (ValueError, RuntimeError) as exc:
        name, space, rest = str(exc).partition(" ")
        print(f"error: {_FLAG_OF.get(name, name)}{space}{rest}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
