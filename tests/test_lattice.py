import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tileforge import lattice
from tileforge.family import family_triples
from tileforge.lattice import (
    IntMatrix,
    RadixExpansion,
    char_poly,
    collinear_digit_set,
    companion_form,
    det_adjugate,
    digit_lattice,
    is_complete_residue_system,
    is_expanding,
    radix_expand,
    vec_add,
    vec_sub,
)

from strategies import expanding_systems


def cubic_companion(a, b, c):
    return companion_form([1, a, b, c])


def word_value(matrix, word):
    """d1 + M d2 + ... + M^(n-1) dn, evaluated by Horner from the right."""
    v = (0,) * matrix.size
    for d in reversed(word):
        v = tuple(x + y for x, y in zip(matrix.mul_vec(v), d))
    return v


def test_companion_form_124():
    m, digits = cubic_companion(1, 2, 4)
    assert m.rows == ((0, 0, -4), (1, 0, -2), (0, 1, -1))
    assert digits == ((0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0))
    assert m.det == -4


def test_companion_form_rejects_nonmonic_and_singular():
    with pytest.raises(ValueError):
        companion_form([2, 1, 1, 3])
    with pytest.raises(ValueError):
        companion_form([1, 1, 1, 0])


def test_char_poly_identity():
    identity = IntMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert char_poly(identity) == [1, -3, 3, -1]


@given(st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(2, 12)))
def test_char_poly_of_companion_roundtrips(abc):
    a, b, c = abc
    m, _ = cubic_companion(a, b, c)
    assert char_poly(m) == [1, a, b, c]


def test_is_expanding_examples():
    m, _ = companion_form([1, 0, -2, 1])  # root at x = 1
    assert not is_expanding(m)
    m, _ = cubic_companion(5, 5, 6)
    assert is_expanding(m)
    # A zero eigenvalue, next to eigenvalues of modulus 2 and 5.
    assert not is_expanding(IntMatrix(((2, 0), (0, 0))))
    assert not is_expanding(IntMatrix(((0, 0, 0), (1, 2, 0), (0, 0, -5))))


def test_is_expanding_holds_on_every_family_member():
    # The exact Schur-Cohn test alone, with no shortcut for 1 <= A <= B < C.
    triples = family_triples(12, 12, 12)
    assert len(triples) == 286
    for abc in triples:
        m, _ = companion_form([1, *abc])
        assert is_expanding(m), abc


def test_identity_is_not_expanding_in_any_dimension():
    # Every eigenvalue is 1, on the unit circle: the first Schur-Cohn step
    # meets |a0| == |an| in every dimension.
    for m in range(1, 5):
        identity = IntMatrix(tuple(tuple(int(i == j) for j in range(m))
                                   for i in range(m)))
        assert not is_expanding(identity), m


def test_is_expanding_matches_float_roots_on_random_companions():
    for degree in (1, 2, 3, 4):
        rng = np.random.default_rng(20260818)
        checked = expanding = 0
        for _ in range(1000):
            coeffs = [1, *(int(x) for x in rng.integers(-20, 21, size=degree))]
            if coeffs[-1] == 0:
                continue
            roots = np.roots(coeffs)
            if min(abs(abs(r) - 1.0) for r in roots) <= 1e-6:
                continue  # too close to the unit circle for floats to referee
            m, _ = companion_form(coeffs)
            outside = bool(all(abs(r) > 1 for r in roots))
            assert is_expanding(m) == outside, coeffs
            checked += 1
            expanding += outside
        assert checked > 900, degree
        assert 0 < expanding, degree


def test_collinear_digit_set_rejects_zero_direction():
    m, _ = cubic_companion(1, 2, 4)
    with pytest.raises(ValueError):
        collinear_digit_set(m, (0, 0, 0))


def test_collinear_digit_set_counts_det():
    m, _ = cubic_companion(2, 3, 5)
    d = collinear_digit_set(m, (1, 0, 0))
    assert len(d) == 5
    assert d[4] == (4, 0, 0)


def test_complete_residue_system_for_companion_digits():
    m, digits = cubic_companion(1, 2, 4)
    assert is_complete_residue_system(m, digits)


def test_complete_residue_system_axis_digits_fail_for_doubling():
    # value frozen from an independent residue-counting oracle
    m = IntMatrix(((2, 0, 0), (0, 2, 0), (0, 0, 2)))
    digits = [(i, 0, 0) for i in range(8)]
    assert not is_complete_residue_system(m, digits)


def test_complete_residue_system_rejects_duplicates():
    m, _ = cubic_companion(1, 2, 4)
    with pytest.raises(ValueError):
        is_complete_residue_system(m, [(0, 0, 0), (0, 0, 0), (1, 0, 0), (2, 0, 0)])


def test_complete_residue_system_wrong_cardinality():
    m, digits = cubic_companion(1, 2, 4)
    assert not is_complete_residue_system(m, digits[:-1])


@pytest.mark.parametrize("digits, z, refusal", [
    (((0, 0, 0), (1, 0, 0), (2, 0, 0)), (3, 0, 0),
     "digit set is not a residue system at (3, 0, 0): 0 candidate digits"),
    (((0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0)), (4, 0, 0),
     "digit set is not a residue system at (4, 0, 0): 2 candidate digits"),
], ids=["missing-class", "class-twice"])
def test_radix_expand_names_a_class_without_one_digit(digits, z, refusal):
    # Z^3 / M Z^3 is cyclic of order 4 on e1 for (1,2,4): 3 e1 has no digit
    # in its class, and 4 e1 shares the class of 0.
    m, _ = cubic_companion(1, 2, 4)
    with pytest.raises(ValueError) as info:
        radix_expand(m, digits, z)
    assert str(info.value) == refusal


WRONG_LENGTH_DIGITS = [(0, 0), (1, 0), (2, 0), (3, 0)]


@pytest.mark.parametrize("run", [
    lambda m: m.solve_int((4, 0)),
    lambda m: m.residue((4, 0)),
    lambda m: radix_expand(m, WRONG_LENGTH_DIGITS, (1, 0, 0)),
    lambda m: is_complete_residue_system(m, WRONG_LENGTH_DIGITS),
], ids=["solve-int", "residue", "radix-digits", "residue-system-digits"])
def test_wrong_length_vectors_are_refused(run):
    # Before the check, solve_int((4, 0)) answered (-2, -1, -1), the radix
    # expansion of e1 ended on the digit (1, 0), and the residue-system test
    # raised IndexError.
    m, _ = cubic_companion(1, 2, 4)
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        run(m)


@given(expanding_systems(), st.tuples(*[st.integers(-9, 9)] * 3),
       st.tuples(*[st.integers(-9, 9)] * 3))
def test_equal_residues_are_exactly_the_congruent_pairs(system, u, v):
    matrix = system[0]
    congruent = matrix.solve_int(vec_sub(u, v)) is not None
    assert (matrix.residue(u) == matrix.residue(v)) == congruent
    # u + M x is congruent to u for every x.
    assert matrix.residue(vec_add(u, matrix.mul_vec(v))) == matrix.residue(u)


def test_radix_expand_zero_is_empty():
    m, digits = cubic_companion(1, 2, 4)
    out = radix_expand(m, digits, (0, 0, 0))
    assert out == RadixExpansion((), True, None)


def test_radix_expand_single_digit():
    m, digits = cubic_companion(1, 2, 4)
    out = radix_expand(m, digits, (1, 0, 0))
    assert out.terminated and out.digits == ((1, 0, 0),)


def test_radix_expand_negative_unit():
    # word frozen from the exhaustive-substitution oracle
    m, digits = cubic_companion(1, 2, 4)
    out = radix_expand(m, digits, (-1, 0, 0))
    assert out.terminated
    assert out.digits == ((3, 0, 0), (2, 0, 0), (1, 0, 0), (1, 0, 0))
    assert word_value(m, out.digits) == (-1, 0, 0)


def test_radix_expand_reports_cycles():
    # base 2 with digits {0, 1} never terminates on -1: state -1 repeats
    m = IntMatrix(((2,),))
    out = radix_expand(m, [(0,), (1,)], (-1,))
    assert not out.terminated
    assert out.cycle == ((-1,),)
    assert out.digits[:1] == ((1,),)


def test_radix_expand_budget_exhaustion():
    m, digits = cubic_companion(1, 2, 4)
    out = radix_expand(m, digits, (-1, 0, 0), max_len=2)
    assert not out.terminated and out.cycle is None


@given(
    st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(2, 6)),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)),
)
def test_radix_expand_resubstitutes_exactly(abc, z):
    a, b, c = abc
    if not a <= b < c:
        return
    m, digits = cubic_companion(a, b, c)
    out = radix_expand(m, digits, z, max_len=10 ** 4)
    if out.terminated:
        assert word_value(m, out.digits) == z
    else:
        assert out.cycle  # small expanding bases must at least detect the loop


def test_solve_int_agrees_with_multiplication():
    m, _ = cubic_companion(2, 3, 5)
    x = (3, -2, 1)
    w = m.mul_vec(x)
    assert m.solve_int(w) == x
    # M x = e1 has no integer solution: adj(M) e1 = (3, 2, 1) is not
    # divisible by det M = -5.
    assert tuple(r[0] for r in m.adjugate) == (3, 2, 1)
    assert m.solve_int(vec_sub(w, (1, 0, 0))) is None


@given(st.lists(st.integers(-9, 9), min_size=9, max_size=9))
def test_adjugate_self_check_never_trips(entries):
    rows = (tuple(entries[0:3]), tuple(entries[3:6]), tuple(entries[6:9]))
    m = IntMatrix(rows)  # constructor verifies adj @ M == det I
    adj_m = [[sum(m.adjugate[i][k] * rows[k][j] for k in range(3))
              for j in range(3)] for i in range(3)]
    assert adj_m == [[m.det * (i == j) for j in range(3)] for i in range(3)]


def test_corrupted_faddeev_leverrier_trips_the_self_check(monkeypatch):
    rows = ((0, 0, -4), (1, 0, -2), (0, 1, -1))
    clean = lattice._faddeev_leverrier

    def corrupted(rows):
        coeffs, b = clean(rows)
        return coeffs, ((b[0][0] + 1,) + b[0][1:],) + b[1:]

    monkeypatch.setattr(lattice, "_faddeev_leverrier", corrupted)
    with pytest.raises(AssertionError, match="adjugate self-check failed"):
        IntMatrix(rows)


def test_singular_solve_raises():
    m = IntMatrix(((1, 0, 0), (0, 1, 0), (1, 1, 0)))
    with pytest.raises(ValueError):
        m.solve_int((1, 1, 1))


# ---------------------------------------------------------------------------
# Oracle: Faddeev-LeVerrier on IntMatrix objects, one per step, kept
# verbatim apart from its name; the two IntMatrix methods that only it read
# are kept here as functions.  The row-tuple recursion must reproduce it.


def oracle_plus_scalar(n: IntMatrix, c: int) -> IntMatrix:
    return IntMatrix(tuple(tuple(x + (c if i == j else 0) for j, x in enumerate(r))
                           for i, r in enumerate(n.rows)))


def oracle_trace(n: IntMatrix) -> int:
    return sum(n.rows[i][i] for i in range(n.size))


def oracle_char_poly(matrix: IntMatrix) -> list[int]:
    """Coefficients [1, c1, ..., cm] of det(xI - M) in descending powers."""
    m = matrix.size
    coeffs = [1]
    n = matrix
    for k in range(1, m + 1):
        t = oracle_trace(n)
        if t % k != 0:
            raise AssertionError("characteristic coefficients must be integral")
        coeffs.append(-(t // k))
        if k < m:
            n = matrix @ oracle_plus_scalar(n, coeffs[-1])
    return coeffs


square_rows = st.integers(1, 4).flatmap(lambda m: st.lists(
    st.lists(st.integers(-9, 9), min_size=m, max_size=m),
    min_size=m, max_size=m))


@given(square_rows)
def test_char_poly_matches_oracle(rows):
    matrix = IntMatrix(rows)
    assert char_poly(matrix) == oracle_char_poly(matrix)


# Oracle: the recursive cofactor expansion that once computed det M and
# adj M, kept verbatim apart from its name.


def oracle_det(rows):
    m = len(rows)
    if m == 0:
        return 1
    if m == 1:
        return rows[0][0]
    if m == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0
    sign = 1
    for j in range(m):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += sign * rows[0][j] * oracle_det(minor)
        sign = -sign
    return total


def oracle_adjugate(rows):
    m = len(rows)
    return tuple(
        tuple(
            (-1) ** (i + j)
            * oracle_det([r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j])
            for j in range(m)
        )
        for i in range(m)
    )


@given(square_rows)
def test_det_adjugate_matches_cofactor_oracle(rows):
    rows = tuple(map(tuple, rows))
    expected = oracle_det(rows), oracle_adjugate(rows)
    assert det_adjugate(rows) == expected
    matrix = IntMatrix(rows)
    assert (matrix.det, matrix.adjugate) == expected


def test_char_poly_builds_no_matrix(monkeypatch):
    matrix, _ = cubic_companion(3, 4, 10)

    def forbidden(self):
        raise AssertionError("IntMatrix built inside char_poly")

    monkeypatch.setattr(IntMatrix, "__post_init__", forbidden)
    assert char_poly(matrix) == [1, 3, 4, 10]


def oracle_generators(matrix, digits):
    """Every M^k (d - d0) with k < n, d0 the first digit."""
    gens = []
    for d in digits:
        v = vec_sub(d, digits[0])
        for _ in range(matrix.size):
            gens.append(v)
            v = matrix.mul_vec(v)
    return gens


def det3(a, b, c):
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


@given(expanding_systems())
def test_digit_lattice_is_the_hermite_form_of_its_generators(system):
    matrix, digits, _ = system
    rows = digit_lattice(matrix, digits)
    pivots = [next(j for j, x in enumerate(r) if x) for r in rows]
    assert pivots == sorted(set(pivots))
    for k, (row, p) in enumerate(zip(rows, pivots)):
        assert row[p] > 0
        assert all(0 <= above[p] < row[p] for above in rows[:k])
    gens = oracle_generators(matrix, digits)
    for v in gens:
        for c in range(matrix.size):
            if c in pivots:
                row = rows[pivots.index(c)]
                assert v[c] % row[c] == 0
                v = vec_sub(v, tuple(v[c] // row[c] * x for x in row))
            assert v[c] == 0
    # The index of a full-rank lattice is the gcd of its generators'
    # maximal minors.
    index = math.gcd(*(det3(*m) for m in combinations(gens, 3)))
    if index:
        assert math.prod(r[i] for i, r in enumerate(rows)) == index
    else:
        assert len(rows) < 3


def test_collinear_digits_of_a_diagonal_matrix_span_index_6():
    # D - D spans v, Mv, M^2 v with v = (1,1,1): det [v | Mv | M^2 v] = 6.
    matrix = IntMatrix(((2, 0, 0), (0, 3, 0), (0, 0, 5)))
    digits = tuple((i, i, i) for i in range(30))
    assert is_complete_residue_system(matrix, digits)
    assert digit_lattice(matrix, digits) == ((1, 0, 4), (0, 1, 3), (0, 0, 6))


def test_family_lattice_is_whole_after_three_generators():
    # e1, M e1 and M^2 e1 are e1, e2 and e3 for a companion matrix, so no
    # later digit is read: None would raise if it were.
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for abc in family_triples(12, 12, 12):
        matrix, digits = cubic_companion(*abc)
        assert digit_lattice(matrix, digits[:2] + (None,)) == identity
        assert digit_lattice(matrix, digits[::-1]) == identity
