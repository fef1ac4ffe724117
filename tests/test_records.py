"""The record types: immutable, compared and hashed by their fields, printed
as Name(field=value, ...), and refusing the inputs they cannot hold."""

import copy
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import tileforge
from tileforge.analysis import AbcTriple, TileAnalysis, analysis_for
from tileforge.family import SweepRecord
from tileforge.geometry_io import PointCloud, PointRows, TagRuns
from tileforge.graphs import BoundaryGraph, ContactSet, NeighborSet
from tileforge.lattice import (
    IntMatrix,
    RadixExpansion,
    collinear_digit_set,
    companion_form,
    radix_expand,
)
from tileforge.power import DigitWord, PowerGraph
from tileforge.topology import (
    BingReport,
    ChainReport,
    ComplexCensus,
    FourFold,
    HataGraph,
    Piece,
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
    "BingReport": lambda: (BingReport, (True, (1,), (2,), (3,), ("ok",))),
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
    t = TileAnalysis(M124, [(Three(), 0, 0), (0, 0, 0), (1, 0, 0), (2, 0, 0)],
                     [(1, 0, 0), (1, 1, 0), (2, 1, Three())])
    assert t.digits == ((3, 0, 0), (0, 0, 0), (1, 0, 0), (2, 0, 0))
    assert t.basis == ((1, 0, 0), (1, 1, 0), (2, 1, 3))
    assert t.triple == AbcTriple(1, 2, 4)


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
], ids=["triple", "triple-float-int", "triple-str", "matrix",
        "matrix-fraction", "polynomial", "direction", "digits",
        "digit-fraction", "basis"])
def test_non_integer_entries_are_refused_not_truncated(build, entry):
    # int() would truncate each of these to another, valid input: the
    # quarter-shifted digits of (1,2,4) would be analysed as {i e1} and
    # report 14 neighbours, and x^3 + 1.9x^2 + 2x + 4.5 would be the
    # companion of (1,2,4).  TileAnalysis validates in its constructor and
    # runs no fixpoint there.
    with pytest.raises(ValueError, match="non-integer entry") as info:
        build()
    assert str(info.value).endswith(entry)


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
