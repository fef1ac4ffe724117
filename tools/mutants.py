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
        "orbit-keeps-greatest",
        "src/tileforge/topology.py",
        "            if all(v < _reframed(v, a) for a in v)]\n",
        "            if all(v > _reframed(v, a) for a in v)]\n",
        ("tests/test_topology.py::"
         "test_audits_of_one_framing_answer_as_every_framing_on_signed_tiles",),
        "every framing gives one verdict, but the first failure an audit "
        "names is that of the least framing, which comes first in sorted "
        "order",
    ),
    Mutant(
        "orbit-keeps-none",
        "src/tileforge/topology.py",
        "    return [v for v in vertices\n",
        "    return [v for v in ()\n",
        ("tests/test_family.py::"
         "test_registry_answers_with_a_failure_on_every_impostor",
         "tests/test_topology.py::"
         "test_audits_of_one_framing_answer_as_every_framing_on_signed_tiles"),
        "an audit that checks no arc and no loop passes on anything",
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
        "face-equations-any-digit-order",
        "src/tileforge/topology.py",
        "        if seq != sorted(seq) and seq != sorted(seq, reverse=True):\n"
        "            return f\"path does not follow the digit order: {seq}\"\n",
        "",
        ("tests/test_topology.py::"
         "test_face_audit_refuses_children_out_of_digit_order",),
        "a face's children must meet in the order of their digits, not "
        "only as some path",
    ),
    Mutant(
        "attachment-order-unchecked",
        "src/tileforge/topology.py",
        "    if sorted(faces) != sorted(t.neighbors.points):\n"
        "        raise ValueError(\"a face order lists every neighbor exactly "
        "once\")\n",
        "",
        ("tests/test_topology.py::"
         "test_attachment_audit_refuses_an_order_that_is_not_the_faces"
         "[one-face]",
         "tests/test_topology.py::"
         "test_attachment_audit_refuses_an_order_that_is_not_the_faces"
         "[missing]"),
        "only an order of every face makes the last face meet the faces "
        "before it along its whole loop; one face checks nothing",
    ),
    Mutant(
        "attachment-ignores-order",
        "src/tileforge/topology.py",
        "        alpha = faces[i]\n"
        "        arcs = [arc for prev in faces[:i]\n",
        "        alpha = t.neighbors.points[i]\n"
        "        arcs = [arc for prev in t.neighbors.points[:i]\n",
        ("tests/test_topology.py::"
         "test_attachment_audit_names_the_first_set_that_fails[empty]",
         "tests/test_topology.py::"
         "test_attachment_audit_names_the_first_set_that_fails"
         "[disconnected]"),
        "the attachment check reads the order it is handed, not the "
        "neighbors in sorted order",
    ),
    Mutant(
        "successor-paths-pass-on-empty-level",
        "src/tileforge/topology.py",
        "    if not (arcs := least_framings(t.level(2).vertices)):\n"
        "        return \"level 2 is empty: no arc has successors to check\"\n",
        "    arcs = least_framings(t.level(2).vertices)\n",
        ("tests/test_family.py::"
         "test_registry_names_an_empty_level_instead_of_passing",),
        "an audit that checked no arc passes on anything",
    ),
    Mutant(
        "four-fold-passes-on-empty-level",
        "src/tileforge/topology.py",
        "    if not (arcs := least_framings(t.level(2).vertices)):\n"
        "        return \"level 2 is empty: no arc has triple points to "
        "place\"\n",
        "    arcs = least_framings(t.level(2).vertices)\n",
        ("tests/test_family.py::"
         "test_registry_names_an_empty_level_instead_of_passing",),
        "an audit that checked no arc passes on anything",
    ),
    Mutant(
        "walk-points-pass-on-empty-level",
        "src/tileforge/topology.py",
        "    if not (triples := t.level(3).vertices):\n"
        "        return \"level 3 is empty: no triple point to walk\"\n",
        "    triples = t.level(3).vertices\n",
        ("tests/test_family.py::"
         "test_registry_names_an_empty_level_instead_of_passing",),
        "an audit that walked no triple point passes on anything",
    ),
    Mutant(
        "loop-refusal-raises",
        "src/tileforge/topology.py",
        "            try:\n"
        "                h, report = boundary_loop_audit(t, alpha, k)\n"
        "            except ValueError as exc:\n"
        "                return str(exc)\n",
        "            h, report = boundary_loop_audit(t, alpha, k)\n",
        ("tests/test_family.py::"
         "test_registry_names_an_empty_level_instead_of_passing",),
        "a neighbor with no loop is the loop audit's witness; raised, it "
        "stops the registry from answering",
    ),
    Mutant(
        "walk-closes-one-step-late",
        "src/tileforge/power.py",
        "            i = seen[v]\n",
        "            i = seen[v] + 1\n",
        ("tests/test_topology.py::"
         "test_walks_and_four_fold_match_oracles_on_the_family",),
        "the period of a walk starts at the first vertex seen twice, not "
        "one step after it",
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
        "boundary-steps-reversed",
        "src/tileforge/geometry_io.py",
        "    for e in g.edges:\n",
        "    for e in reversed(g.edges):\n",
        ("tests/test_geometry_io.py::"
         "test_cloud_writers_match_golden_digests",),
        "a boundary render walks each vertex's steps in sorted edge order; "
        "reversed, every boundary cloud lists its points in another order",
    ),
    Mutant(
        "four-fold-takes-any-pair",
        "src/tileforge/topology.py",
        "    if not g2.has_vertex(vs):\n"
        "        raise ValueError(f\"{vs} is not a level-2 vertex\")\n",
        "",
        ("tests/test_topology.py::"
         "test_four_fold_refuses_a_vertex_that_is_not_an_arc[non-arc-pair]",
         "tests/test_topology.py::"
         "test_four_fold_refuses_a_vertex_that_is_not_an_arc[level-3-vertex]"),
        "only an arc has two triple points to place; a pair off level 2 "
        "is refused for what it is, not for the level-3 count it yields",
    ),
    Mutant(
        "sweep-parallelism-unchecked",
        "src/tileforge/family.py",
        "    _check_parallelism(parallelism)\n"
        "    triples = family_triples(a_max, b_max, c_max)\n",
        "    triples = family_triples(a_max, b_max, c_max)\n",
        ("tests/test_cli.py::test_sweep_rejects_jobs_below_one",
         "tests/test_cli.py::test_sweep_jobs_above_one_needs_fork"),
        "the library is the one place --jobs is checked; unchecked, a sweep "
        "runs triples with no valid process count",
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
    if args.workdir is not None and not os.path.isdir(args.workdir):
        parser.error(f"--workdir {args.workdir} is not a directory")
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
