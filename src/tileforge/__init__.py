"""tileforge: exact-arithmetic analysis of lattice self-affine tiles.

A tile here is the attractor T of M*T = T + D for an expanding integer
matrix M and a digit set D that is a complete residue system modulo M.
Everything that decides a property (neighbor sets, boundary graphs,
piece intersections, chain audits) runs in integer or rational
arithmetic; floating point appears only in exported point clouds.

The package exports the context built from (M, D) and what is read off
it: reports, sweeps, censuses, renders and the records they return.  The
stages inside a context (fixpoints, level graphs, subdivision, Hata
graphs) stay in their submodules.
"""

from tileforge.analysis import AbcTriple, TileAnalysis, analysis_for, predicts_14
from tileforge.family import (
    SweepRecord,
    audit_report,
    bing_audit,
    disagreements,
    sweep,
    sweep_csv,
)
from tileforge.geometry_io import (
    PointCloud,
    approximate_boundary_piece,
    approximate_tile,
    export,
    merge_clouds,
)
from tileforge.graphs import (
    BoundaryGraph,
    ContactSet,
    LabeledEdge,
    NeighborSet,
    RoundLimitError,
)
from tileforge.lattice import ExactPoint, IntMatrix, companion_form
from tileforge.power import DigitWord, PowerGraph
from tileforge.topology import ComplexCensus, census

__version__ = "0.1.0"

__all__ = [
    "AbcTriple",
    "BoundaryGraph",
    "ComplexCensus",
    "ContactSet",
    "DigitWord",
    "ExactPoint",
    "IntMatrix",
    "LabeledEdge",
    "NeighborSet",
    "PointCloud",
    "PowerGraph",
    "RoundLimitError",
    "SweepRecord",
    "TileAnalysis",
    "analysis_for",
    "approximate_boundary_piece",
    "approximate_tile",
    "audit_report",
    "bing_audit",
    "census",
    "companion_form",
    "disagreements",
    "export",
    "merge_clouds",
    "predicts_14",
    "sweep",
    "sweep_csv",
]
