"""Mutant battery: each row breaks the program in one place and names the
tests that must then fail.

    python tools/mutants.py [--workdir DIR] [NAME ...]

Each mutant (all of them, or the NAMEs given) runs in its own copy of
src/, tests/ and pyproject.toml, made in a fresh directory under DIR (the
system's temporary directory by default) and removed afterwards.  The row's
old text, which must occur exactly once in its file, is replaced by its new
text, and the row's tests run there with ``pytest -x``.  A mutant is killed
when a test fails, survives when every test passes, and is an error
otherwise: a test id that pytest cannot find, or a run past TIMEOUT
seconds.
The exit status is 0 only if every mutant run was killed.

tests/test_mutants.py checks the table (each old text occurs once, each
test id exists) but runs no mutant.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT = 600.0


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    reason: str


MUTANTS = (
    Mutant(
        "successor-children-at-shift-0",
        "src/tileforge/topology.py",
        "    h = hata_graph(t, subdivide(g, [(vs, zero)], 1))\n",
        "    h = hata_graph(t, [(dst, zero) for dst in sorted(\n"
        "        {dst for _, dst in g.out_edges(vs)})])\n",
        ("tests/test_family.py::"
         "test_registry_passes_on_every_signed_tile_with_14_neighbors",
         "tests/test_topology.py::"
         "test_successor_hata_example_is_seven_node_chain",
         "tests/test_topology.py::"
         "test_shift0_hata_graphs_match_oracle_on_the_family"),
        "the distinct successors, all at shift 0, are not the children of "
        "a piece; they split into components on 40 of the 82 signed tiles",
    ),
    Mutant(
        "four-fold-first-digits",
        "src/tileforge/topology.py",
        "ff.children[0] == ff.children[1]",
        "ff.children[0][0] == ff.children[1][0]",
        ("tests/test_family.py::"
         "test_registry_passes_on_every_signed_tile_with_14_neighbors",),
        "two children with one digit are still two children; comparing "
        "first digits alone fails 40 of the 82 signed tiles",
    ),
    Mutant(
        "loop-point-framed-by-higher-piece",
        "src/tileforge/topology.py",
        "        point = make_piece(gamma, h.nodes[i].shift)\n",
        "        point = make_piece(gamma, h.nodes[j].shift)\n",
        ("tests/test_topology.py::test_loop_chain_audit_accepts_124",
         "tests/test_topology.py::"
         "test_planar_boundary_is_a_circular_chain_iff_6_neighbors"),
        "hata_graph decides a link in its lower piece's frame; read from "
        "the higher piece, the links of real loops stop being distinct "
        "points",
    ),
    Mutant(
        "loop-point-on-two-links-allowed",
        "src/tileforge/topology.py",
        "    if len(set(points)) != len(points):\n"
        "        return \"a point lies in more than two pieces\"\n",
        "",
        ("tests/test_topology.py::"
         "test_loop_point_on_two_links_is_refused",),
        "two links that are one point put it in more than two pieces, "
        "even when each piece meets its neighbors in two points",
    ),
    Mutant(
        "walk-word-from-first-member-only",
        "src/tileforge/topology.py",
        "        for member in v:\n",
        "        for member in v[:1]:\n",
        ("tests/test_topology.py::"
         "test_walk_points_audit_reads_the_word_from_every_member",),
        "a triple point's word must label a walk from each member, not "
        "only from the first",
    ),
    Mutant(
        "edge-digits-unchecked",
        "src/tileforge/graphs.py",
        "        if any(e.d not in dset or e.d_prime not in dset for e in edges):\n"
        "            raise ValueError(\"edge digits must be in the digit set\")\n",
        "",
        ("tests/test_graphs.py::"
         "test_boundary_graph_refuses_edges_it_cannot_index[left-digit]",
         "tests/test_graphs.py::"
         "test_boundary_graph_refuses_edges_it_cannot_index[right-digit]"),
        "a boundary graph with a digit outside D fails late, in bit_tables, "
        "or not at all",
    ),
    Mutant(
        "schur-cohn-non-strict",
        "src/tileforge/lattice.py",
        "        if abs(a_0) >= abs(a_n):\n",
        "        if abs(a_0) > abs(a_n):\n",
        ("tests/test_lattice.py::"
         "test_identity_is_not_expanding_in_any_dimension",),
        "an eigenvalue on the unit circle is not expanding",
    ),
    Mutant(
        "solve-int-without-divisibility",
        "src/tileforge/lattice.py",
        "        if any(x % det for x in t):\n"
        "            return None\n",
        "",
        ("tests/test_lattice.py::"
         "test_solve_int_agrees_with_multiplication",),
        "floor division answers a system that has no integer solution",
    ),
)


def apply(root: Path, mutant: Mutant) -> None:
    """Write the mutant into the tree at root."""
    path = root / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs "
                         f"{text.count(mutant.old)} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant, workdir: str | None) -> str:
    """killed, survived, or error with the reason, for one mutant."""
    scratch = Path(tempfile.mkdtemp(prefix=f"{mutant.name}-", dir=workdir))
    try:
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, scratch / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(src, scratch / name)
        apply(scratch, mutant)
        env = dict(os.environ, PYTHONPATH=str(scratch / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q",
                 "-p", "no:cacheprovider", *mutant.tests],
                cwd=scratch, env=env, capture_output=True, text=True,
                timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return f"error: no result within {TIMEOUT:g} s"
    finally:
        shutil.rmtree(scratch)
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "survived"
    return f"error: pytest exit status {proc.returncode}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--workdir", help="directory for the tree copies")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[n] for n in args.names] if args.names else list(MUTANTS)
    results = []
    for mutant in chosen:
        outcome = run(mutant, args.workdir)
        results.append(outcome)
        print(f"{mutant.name}: {outcome}", flush=True)
    killed = results.count("killed")
    print(f"{killed} of {len(results)} mutants killed")
    return 0 if killed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
