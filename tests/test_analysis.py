import gc

import pytest

import tileforge
from tileforge import analysis
from tileforge.analysis import CONTEXT_CACHE_SIZE, TileAnalysis, analysis_for
from tileforge.family import sweep
from tileforge.lattice import IntMatrix, companion_form


def test_general_context_matches_family_context():
    general = TileAnalysis(*companion_form([1, 1, 2, 4]))
    family = analysis_for((1, 2, 4))
    assert general.triple is None and general.basis is None
    assert general.contact.points == family.contact.points
    assert general.contact.rounds == family.contact.rounds
    assert general.neighbors.points == family.neighbors.points
    for k in (2, 3, 4):
        assert general.level(k).vertices == family.level(k).vertices
    assert general.contact_graph.edges == family.contact_graph.edges


def test_explicit_basis_context_keeps_its_triple():
    family = analysis_for((1, 2, 4))
    t = TileAnalysis(family.matrix, family.digits,
                     ((1, 0, 0), (1, 1, 0), (2, 1, 1)), family.triple)
    assert analysis_for(t) is t
    assert t.triple == family.triple
    assert t.neighbors.points == family.neighbors.points


M_124, D_124 = companion_form([1, 1, 2, 4])
TWICE = IntMatrix(((2, 0, 0), (0, 2, 0), (0, 0, 2)))
IDENTITY = IntMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


@pytest.mark.parametrize("matrix,digits,basis,message", [
    (IDENTITY, ((0, 0, 0),), None, "not expanding"),
    (TWICE, ((0, 0, 0), (1, 0, 0)), None, "complete residue"),
    (M_124, tuple(d[:2] for d in D_124), None, "3 coordinates"),
    (M_124, D_124, ((1, 0, 0), (0, 1, 0), (1, 1, 0)), "linearly dependent"),
])
def test_constructor_rejects_system_before_any_fixpoint(
        matrix, digits, basis, message, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a fixpoint ran before the system was checked")

    monkeypatch.setattr(analysis, "contact_set", forbidden)
    monkeypatch.setattr(analysis, "neighbor_set", forbidden)
    with pytest.raises(ValueError, match=message):
        TileAnalysis(matrix, digits, basis)


def test_library_basis_errors_name_no_flag():
    m, d = companion_form([1, 1, 2, 4])
    with pytest.raises(ValueError) as exc:
        TileAnalysis(m, d, basis=((1, 0, 0), (2, 0, 0), (0, 0, 1)))
    assert str(exc.value) == "basis vectors are linearly dependent"
    with pytest.raises(ValueError) as exc:
        TileAnalysis(m, d, basis=((1, 0, 0), (0, 1, 0)))
    assert str(exc.value) == "basis needs 3 vectors of length 3"


def test_family_contexts_stay_bounded_after_a_sweep():
    records = sweep(12, 12, 12)
    assert len(records) == 286
    gc.collect()
    alive = [o for o in gc.get_objects()
             if isinstance(o, TileAnalysis) and o.triple is not None]
    assert len(alive) <= CONTEXT_CACHE_SIZE


def test_every_exported_name_resolves_once():
    missing = [name for name in tileforge.__all__
               if not hasattr(tileforge, name)]
    assert missing == []
    assert len(set(tileforge.__all__)) == len(tileforge.__all__)
