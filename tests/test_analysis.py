import gc

import pytest

import tileforge
from tileforge import analysis
from tileforge.analysis import (
    CONTEXT_CACHE_SIZE,
    AbcTriple,
    TileAnalysis,
    analysis_for,
)
from tileforge.family import audit_report, family_triples, sweep
from tileforge.geometry_io import approximate_boundary_piece
from tileforge.lattice import IntMatrix, companion_form


def test_general_context_matches_family_context():
    general = TileAnalysis(*companion_form([1, 1, 2, 4]))
    family = analysis_for((1, 2, 4))
    assert general.triple == AbcTriple(1, 2, 4) and general.basis is None
    assert general.contact.points == family.contact.points
    assert general.contact.rounds == family.contact.rounds
    assert general.neighbors.points == family.neighbors.points
    for k in (2, 3, 4):
        assert general.level(k).vertices == family.level(k).vertices
    assert general.contact_graph.edges == family.contact_graph.edges


def test_explicit_basis_context_keeps_its_triple():
    family = analysis_for((1, 2, 4))
    t = TileAnalysis(family.matrix, family.digits,
                     ((1, 0, 0), (1, 1, 0), (2, 1, 1)))
    assert analysis_for(t) is t
    assert t.triple == family.triple
    assert t.neighbors.points == family.neighbors.points


def test_list_digits_and_basis_give_the_tuple_context():
    m, d = companion_form([1, 1, 2, 4])
    basis = ((1, 0, 0), (1, 1, 0), (2, 1, 1))
    listed = TileAnalysis(m, [list(v) for v in d], [list(b) for b in basis])
    tupled = TileAnalysis(m, d, basis)
    assert listed.triple == tupled.triple == AbcTriple(1, 2, 4)
    assert audit_report(listed) == audit_report(tupled)
    for alpha in tupled.neighbors.points:
        got, want = (approximate_boundary_piece(t, alpha, 2)
                     for t in (listed, tupled))
        assert list(got.points) == list(want.points)
        assert list(got.tags) == list(want.tags)
    assert (listed.digits, listed.basis) == (d, basis)


def test_audit_report_leaves_the_out_edge_index_unbuilt():
    # Neither the report nor level 2 reads the boundary graph's out-edges.
    t = TileAnalysis(*AbcTriple(11, 11, 12).system())
    assert audit_report(t)["neighbors"]["count"] == 182
    assert "_out" not in vars(t.boundary_graph)


def forbid_fixpoints(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a fixpoint ran")

    for name in ("contact_set", "neighbor_set", "power_graph"):
        monkeypatch.setattr(analysis, name, forbidden)


def test_every_family_system_gives_back_its_triple(monkeypatch):
    forbid_fixpoints(monkeypatch)
    triples = [AbcTriple(*abc) for abc in family_triples(12, 12, 12)]
    assert len(triples) == 286
    for t in triples:
        assert TileAnalysis(*t.system()).triple == t


def test_triple_ignores_the_digit_order(monkeypatch):
    forbid_fixpoints(monkeypatch)
    m, d = companion_form([1, 3, 4, 10])
    assert TileAnalysis(m, d[::-1]).triple == AbcTriple(3, 4, 10)
    assert TileAnalysis(m, d[1::2] + d[::2]).triple == AbcTriple(3, 4, 10)


def test_triple_is_none_off_the_family(monkeypatch):
    forbid_fixpoints(monkeypatch)
    # U^-1 M U with U^-1 D is (1,2,4)'s tile in another frame, which the
    # rule does not undo.  U fixes e1, so U^-1 D = D and only M differs.
    m, d = companion_form([1, 1, 2, 4])
    u = IntMatrix(((1, 0, 0), (0, 1, 0), (0, 1, 1)))
    u_inv = IntMatrix(((1, 0, 0), (0, 1, 0), (0, -1, 1)))
    conjugate = TileAnalysis(u_inv @ m @ u, tuple(map(u_inv.mul_vec, d)))
    assert conjugate.digits == d and conjugate.matrix != m
    assert conjugate.triple is None
    # The companion matrix with another complete residue system of digits.
    shifted = tuple((i, 0, 0) for i in range(-1, 3))
    assert TileAnalysis(m, shifted).triple is None
    # x^3 - 2x + 3 has companion digits, but A = 0 lies outside the family.
    assert TileAnalysis(*companion_form([1, 0, -2, 3])).triple is None


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


def _family_contexts():
    gc.collect()
    return [o for o in gc.get_objects()
            if isinstance(o, TileAnalysis) and o.triple is not None]


def test_family_contexts_stay_bounded_after_a_sweep():
    # Count only the contexts the sweep left alive: one that an earlier test
    # holds, such as the last boundary render's, is not the sweep's.
    before = _family_contexts()
    records = sweep(12, 12, 12)
    assert len(records) == 286
    kept = {id(o) for o in before}
    alive = [o for o in _family_contexts() if id(o) not in kept]
    assert len(alive) <= CONTEXT_CACHE_SIZE


def test_every_exported_name_resolves_once():
    missing = [name for name in tileforge.__all__
               if not hasattr(tileforge, name)]
    assert missing == []
    assert len(set(tileforge.__all__)) == len(tileforge.__all__)
