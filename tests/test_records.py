"""The record types: immutable, compared and hashed by their fields, printed
as Name(field=value, ...), and refusing the inputs they cannot hold."""

import copy
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import tileforge
from tileforge.analysis import (
    AbcTriple,
    TileAnalysis,
    analysis_for,
    predicts_14,
)
from tileforge.family import SweepRecord, audit_report, bing_audit
from tileforge.geometry_io import (
    PointCloud,
    PointRows,
    TagRuns,
    approximate_boundary_piece,
    approximate_tile,
)
from tileforge.graphs import (
    BoundaryGraph,
    ContactSet,
    NeighborSet,
    build_graph,
    contact_set,
    neighbor_set,
)
from tileforge.lattice import (
    ExactPoint,
    IntMatrix,
    RadixExpansion,
    collinear_digit_set,
    companion_form,
    is_complete_residue_system,
    radix_expand,
)
from tileforge.power import (
    DigitWord,
    PowerGraph,
    vertex_set,
    word_admissible_from,
)
from tileforge.topology import (
    ChainReport,
    ComplexCensus,
    FourFold,
    HataGraph,
    Piece,
    boundary_loop_pieces,
    census,
)

M124, D124 = AbcTriple(1, 2, 4).system()


def _level2():
    g = analysis_for((1, 2, 4)).level(2)
    return PowerGraph, (*g, g._base)


# Each type's constructor arguments, built once per test so that equal
# inputs share the parts that compare by identity (a cloud's PointRows and
# TagRuns).
CASES = {
    "AbcTriple": lambda: (AbcTriple, (1, 2, 4)),
    "IntMatrix": lambda: (IntMatrix, (((2, 1), (1, 1)),)),
    "RadixExpansion": lambda: (
        RadixExpansion, tuple(radix_expand(M124, D124, (5, 1, 0)))),
    "DigitWord": lambda: (DigitWord, (((1, 0, 0),), ((0, 0, 0), (1, 0, 0)))),
    "ExactPoint": lambda: (ExactPoint, ((-4, -2, -1), 8)),
    "ContactSet": lambda: (ContactSet, tuple(analysis_for((1, 2, 4)).contact)),
    "NeighborSet": lambda: (
        NeighborSet, tuple(analysis_for((1, 2, 4)).neighbors)),
    "BoundaryGraph": lambda: (
        BoundaryGraph, tuple(analysis_for((1, 2, 4)).boundary_graph)),
    "PowerGraph": _level2,
    "PointCloud": lambda: (PointCloud, (
        PointRows.exact([(0, 0, 0), (Fraction(1, 2), 0, 1)]), 1, "tile",
        1.5, TagRuns([(0, 1), (1, 1)]))),
    "SweepRecord": lambda: (SweepRecord, (
        1, 2, 4, 14, True, True, 15, 36, 24, True, 2, True, "")),
    "HataGraph": lambda: (HataGraph, (
        (Piece(((1, 0, 0),), (0, 0, 0)), Piece(((1, 0, 0),), (1, 0, 0))),
        ((0, 1, ((1, 0, 0),)),))),
    "ChainReport": lambda: (ChainReport, ("path", 2, 1, None)),
    "FourFold": lambda: (FourFold, (
        (((1, 0, 0), (2, 0, 0)), ((1, 0, 0), (3, 0, 0))),
        ((0, 0, 0), (1, 0, 0)))),
    "ComplexCensus": lambda: (ComplexCensus, (14, 36, 24, 2, (4, 6))),
}

# The fields each type compares, hashes and prints, where they are not
# its namedtuple fields, and attributes besides them that are read-only.
FIELDS = {"IntMatrix": ("rows",)}
READ_ONLY = {"IntMatrix": ("det", "adjugate"), "PowerGraph": ("_base",)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_is_frozen_and_compared_hashed_and_printed_by_fields(name):
    cls, args = CASES[name]()
    a, b = cls(*args), cls(*args)
    assert type(a).__name__ == name
    fields = FIELDS.get(name) or cls._fields
    for attr in fields + READ_ONLY.get(name, ()):
        with pytest.raises(AttributeError):
            setattr(a, attr, getattr(a, attr))
    assert a == b and a is not b
    assert copy.copy(a) == a
    values = tuple(getattr(a, f) for f in fields)
    # The hash of the field tuple, as before, so set and dict orders stay.
    assert hash(a) == hash(b) == hash(values)
    assert repr(a) == f"{name}(" + ", ".join(
        f"{f}={v!r}" for f, v in zip(fields, values)) + ")"


def test_reprs_name_the_fields():
    assert repr(AbcTriple(1, 2, 4)) == "AbcTriple(A=1, B=2, C=4)"
    assert repr(IntMatrix([[2, 1], [1, 1]])) == "IntMatrix(rows=((2, 1), (1, 1)))"
    assert repr(ChainReport("path", 2, 1)) == (
        "ChainReport(classification='path', node_count=2, edge_count=1, "
        "witness=None)")


def test_replace_builds_through_the_checks():
    assert AbcTriple(1, 2, 4)._replace(C=5) == AbcTriple(1, 2, 5)
    with pytest.raises(ValueError, match="1 <= A <= B < C"):
        AbcTriple(1, 2, 4)._replace(C=2)
    word = DigitWord((), ((1, 0, 0), (1, 0, 0)))
    assert word.period == ((1, 0, 0),)
    assert word._replace(preperiod=((1, 0, 0),)) == word
    point = ExactPoint((-4, -2, -1), 8)
    assert point._replace(denominator=-16) == ((4, 2, 1), 16)
    with pytest.raises(ValueError, match="denominator must be nonzero"):
        point._replace(denominator=0)


def test_each_matrix_construction_runs_post_init_once(monkeypatch):
    # A tracer counts matrix builds by wrapping __post_init__ on the class.
    calls = []
    post_init = IntMatrix.__post_init__
    monkeypatch.setattr(IntMatrix, "__post_init__",
                        lambda self: calls.append(post_init(self)))
    m = IntMatrix(((2, 1), (1, 1)))
    assert m.det == 1 and m.adjugate == ((1, -1), (-1, 2))
    m @ m
    M124.solve_int((1, 0, 0))
    assert len(calls) == 2


class Three:
    """An integer type that is not int: it has __index__."""

    def __index__(self):
        return 3


def test_integer_types_with_index_are_taken_as_ints():
    assert AbcTriple(True, 2, Three()) == (1, 2, 3)
    assert IntMatrix([[Three(), 0], [0, True]]).rows == ((3, 0), (0, 1))
    digits = [(Three(), 0, 0), (False, 0, 0), (1, 0, 0), (2, 0, 0)]
    t = TileAnalysis(M124, digits, [(1, 0, 0), (1, 1, 0), (2, 1, Three())])
    assert t.digits == ((3, 0, 0), (0, 0, 0), (1, 0, 0), (2, 0, 0))
    assert t.basis == ((1, 0, 0), (1, 1, 0), (2, 1, 3))
    assert {type(x) for v in t.digits + t.basis for x in v} == {int}
    assert t.triple == AbcTriple(1, 2, 4)
    assert (list(approximate_tile(M124, digits, 2).points)
            == list(approximate_tile(M124, t.digits, 2).points))


@pytest.mark.parametrize("build, entry", [
    (lambda: AbcTriple(1.9, 2, 4.7), "1.9"),
    (lambda: AbcTriple(1, 2, 4.0), "4.0"),
    (lambda: AbcTriple("1", 2, 4), "'1'"),
    (lambda: IntMatrix([[2.7, 0], [0, 2]]), "2.7"),
    (lambda: IntMatrix([[2, 0], [0, Fraction(2)]]), "Fraction(2, 1)"),
    (lambda: companion_form([1, 1.9, 2, 4.5]), "1.9"),
    (lambda: collinear_digit_set(M124, (1.5, 0, 0)), "1.5"),
    (lambda: TileAnalysis(M124, [(i + 0.25, 0, 0) for i in range(4)]),
     "0.25"),
    (lambda: TileAnalysis(M124, D124[:3] + ((Fraction(3), 0, 0),)),
     "Fraction(3, 1)"),
    (lambda: TileAnalysis(M124, D124, [(1, 0, 0), (1, 1.5, 0), (2, 1, 1)]),
     "1.5"),
    (lambda: vertex_set([(1.2, 0, 0)]), "1.2"),
    (lambda: DigitWord(((0.5, 0, 0),), ((1, 0, 0),)), "0.5"),
    (lambda: DigitWord((), ((1.7, 0, 0),)), "1.7"),
    (lambda: word_admissible_from(analysis_for((1, 2, 4)).boundary_graph,
                                  (1.0, 0, 0), DigitWord((), ((1, 0, 0),))),
     "1.0"),
    (lambda: build_graph([(1, 0.5, 0)], M124, D124), "0.5"),
    (lambda: build_graph([(1, 0, 0)], M124, D124[:3] + ((3.0, 0, 0),)),
     "3.0"),
    (lambda: contact_set(M124, D124, [(1, 0, 0), (1, 1, 0), (2, 1, 1.5)]),
     "1.5"),
    (lambda: neighbor_set([(0, 0, 0), (1, 0, 0.5)], M124, D124), "0.5"),
    (lambda: is_complete_residue_system(
        M124, [(i + 0.5, 0, 0) for i in range(4)]), "0.5"),
    (lambda: radix_expand(M124, D124, (5.5, 1, 0)), "5.5"),
    (lambda: boundary_loop_pieces((1, 2, 4), (1.0, 0, 0)), "1.0"),
    (lambda: approximate_boundary_piece((1, 2, 4), (1.0, 0, 0), 2), "1.0"),
    (lambda: ExactPoint((0.5, 0, 0), 2), "0.5"),
    (lambda: ExactPoint((1, 0, 0), 2.0), "2.0"),
    (lambda: approximate_tile(M124, [(0.5, 0, 0)] + list(D124[1:]), 2),
     "0.5"),
    (lambda: analysis_for((1, 2, 4.5)), "4.5"),
    (lambda: predicts_14((1.5, 2, 4)), "1.5"),
    (lambda: audit_report((1, 2.0, 4)), "2.0"),
    (lambda: census((1, 2, 4.0)), "4.0"),
    (lambda: bing_audit((1.0, 2, 4)), "1.0"),
    (lambda: ContactSet(((0, 0, 0), (0.5, 0, 0)), 1), "0.5"),
    (lambda: NeighborSet(((0.5, 0, 0), (-0.5, 0, 0)), 1), "0.5"),
], ids=["triple", "triple-float-int", "triple-str", "matrix",
        "matrix-fraction", "polynomial", "direction", "digits",
        "digit-fraction", "basis", "vertex-set", "word-preperiod",
        "word-period", "admissible-start", "graph-vertex", "graph-digit",
        "contact-basis", "neighbor-contact", "residue-digits", "radix-input",
        "loop-neighbor", "piece-neighbor", "point-numerator",
        "point-denominator", "tile-digit", "context-triple",
        "predicate-triple", "report-triple", "census-triple",
        "bing-triple", "contact-point", "neighbor-point"])
def test_non_integer_entries_are_refused_not_truncated(build, entry):
    # int() would truncate each of these to another, valid input: the
    # quarter-shifted digits of (1,2,4) would be analysed as {i e1} and
    # report 14 neighbours, and x^3 + 1.9x^2 + 2x + 4.5 would be the
    # companion of (1,2,4).  TileAnalysis validates in its constructor and
    # runs no fixpoint there; a stage refuses before it computes.
    with pytest.raises(ValueError, match="non-integer entry") as info:
        build()
    assert str(info.value).endswith(entry)


def test_empty_contact_set_is_refused():
    # An empty set lacks the origin; it once raised IndexError instead.
    with pytest.raises(ValueError, match="must contain the origin"):
        ContactSet((), 0)


def test_importing_tileforge_loads_no_dataclasses_or_inspect():
    # -S: no site module, so no .pth file can import either first.
    src = os.path.dirname(os.path.dirname(os.path.abspath(tileforge.__file__)))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "before = {'dataclasses', 'inspect'} & set(sys.modules); "
            "import tileforge, tileforge.cli; "
            "print(sorted(before), sorted({'dataclasses', 'inspect'} "
            "& set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]


def test_tileforge_loads_no_fractions_and_its_work_imports_nothing(tmp_path):
    # Every process pays for each module it loads, and a module first
    # imported in a forked sweep worker costs that worker file-backed RSS
    # too; fractions would also load decimal and numbers, and argparse
    # gettext, whose first parser loads locale.  So tileforge loads none of
    # them, and a sweep, an audit report, both PLY renders and a CLI run of
    # each command import no module at all.
    src = os.path.dirname(os.path.dirname(os.path.abspath(tileforge.__file__)))
    code = "\n".join([
        "import sys",
        "sys.path.insert(0, sys.argv[1])",
        "heavy = {'fractions', 'decimal', 'numbers',",
        "         'argparse', 'gettext', 'locale', '_locale'}",
        "print(sorted(heavy & set(sys.modules)))",
        "import tileforge, tileforge.cli",
        "print(sorted(heavy & set(sys.modules)))",
        "from tileforge import *",
        "before = set(sys.modules)",
        "sweep(5, 5, 5)",
        "audit_report((1, 2, 4), k_max=2)",
        "t = analysis_for((1, 2, 4))",
        "export(approximate_tile(t.matrix, t.digits, 3), 'ply', sys.argv[2])",
        "export(merge_clouds([approximate_boundary_piece(t, a, 3)",
        "                     for a in t.neighbors.points]), 'ply', sys.argv[2])",
        "for argv in (['sweep', '--max', '5', '--csv'],",
        "             ['analyze', '--abc', '1,2,4', '--json'],",
        "             ['render', '--abc', '1,2,4', '--depth', '3', '--ply']):",
        "    assert tileforge.cli.main(argv + [sys.argv[2]]) == 0",
        "print(sorted(heavy & set(sys.modules)))",
        "print(sorted(set(sys.modules) - before))",
    ])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, src, str(tmp_path / "out.ply")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [lines[0], lines[1], lines[-2], lines[-1]] == ["[]"] * 4
