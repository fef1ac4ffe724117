"""Exact integer and rational arithmetic for expanding-matrix digit systems.

Everything here is exact: determinants, adjugates, linear solves, and the
expansion test run over Python integers (arbitrary precision, so overflow
cannot occur) or fractions.Fraction.  No floating point enters any computation
that feeds the combinatorial layers.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

Vec = tuple[int, ...]

DEFAULT_MAX_LEN = 10 ** 6


def int_vector(v, what: str) -> Vec:
    """The entries of v as ints.  An entry that is not an integer (a float,
    a Fraction, a string) raises ValueError naming it: int() would truncate
    it to an answer about another input."""
    out = []
    for x in v:
        try:
            out.append(operator.index(x))
        except TypeError:
            raise ValueError(
                f"{what} {v!r} has a non-integer entry {x!r}") from None
    return tuple(out)


def _immutable(self, name, *value):
    raise AttributeError(
        f"{type(self).__name__} is immutable: cannot set or delete {name!r}")


def checked_record(typename: str, field_names: str, defaults=()) -> type:
    """Base class of an immutable record whose own __new__ checks or
    normalises its fields: a namedtuple whose _make, and so _replace,
    builds through that __new__ too, and whose attributes cannot be
    assigned, the cached ones of a subclass with an instance dict
    included."""
    base = namedtuple(typename, field_names, defaults=defaults)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    base.__setattr__ = base.__delattr__ = _immutable
    return base


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(map(operator.add, u, v))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(map(operator.sub, u, v))


def vec_neg(u: Vec) -> Vec:
    return tuple(map(operator.neg, u))


def vec_scale(k: int, u: Vec) -> Vec:
    return tuple(k * a for a in u)


def _det(rows):
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
        total += sign * rows[0][j] * _det(minor)
        sign = -sign
    return total


def det_adjugate(rows) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Determinant and adjugate of a square integer matrix given as rows,
    checked against the identity adjugate @ M == det * I."""
    m = len(rows)
    det = _det(rows)
    adj = tuple(
        tuple(
            (-1) ** (i + j)
            * _det([r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j])
            for j in range(m)
        )
        for i in range(m)
    )
    ident = tuple(
        tuple(det if i == j else 0 for j in range(m)) for i in range(m)
    )
    if _mat_mul(adj, rows) != ident:
        raise AssertionError("adjugate self-check failed")
    return det, adj


class IntMatrix:
    """Square integer matrix with exact determinant and adjugate.

    The adjugate satisfies adjugate @ M == det * I; this identity is verified
    at construction time so any arithmetic defect fails loudly.  Immutable;
    det and adjugate are functions of the rows, so a matrix compares,
    hashes and prints as IntMatrix(rows=...) alone.
    """

    __slots__ = ("rows", "det", "adjugate")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "rows", rows)
        self.__post_init__()

    def __post_init__(self):
        # The one construction step, looked up on the class, so wrapping
        # it there counts every matrix built.
        rows = tuple(int_vector(r, "matrix row") for r in self.rows)
        m = len(rows)
        if m == 0 or any(len(r) != m for r in rows):
            raise ValueError("matrix must be square and nonempty")
        det, adj = det_adjugate(rows)
        for name, value in ("rows", rows), ("det", det), ("adjugate", adj):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rows,))

    def __repr__(self) -> str:
        return f"IntMatrix(rows={self.rows!r})"

    def __reduce__(self):
        return IntMatrix, (self.rows,)

    @property
    def size(self) -> int:
        return len(self.rows)

    def mul_vec(self, v: Vec) -> Vec:
        if len(v) != self.size:
            raise ValueError("dimension mismatch")
        return tuple(sum(map(operator.mul, r, v)) for r in self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(_mat_mul(self.rows, other.rows))

    def solve_int(self, w: Vec) -> Vec | None:
        """Integer solution x of M x = w, or None when none exists."""
        if self.det == 0:
            raise ValueError("matrix is singular")
        det = self.det
        t = tuple(sum(map(operator.mul, r, w)) for r in self.adjugate)
        if any(x % det for x in t):
            return None
        return tuple(x // det for x in t)

    def solve_fraction(self, w) -> tuple[Fraction, ...]:
        """Exact rational solution of M x = w (w integral or rational)."""
        if self.det == 0:
            raise ValueError("matrix is singular")
        return tuple(
            Fraction(sum(r[j] * w[j] for j in range(self.size))) / self.det
            for r in self.adjugate
        )


def _mat_mul(a, b):
    m = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(m)) for j in range(m))
        for i in range(m)
    )


def mat_pow(rows, k: int):
    """Rows of the k-th power (k >= 0) of the square matrix with these rows."""
    if k < 0:
        raise ValueError("nonnegative powers only")
    acc = tuple(tuple(int(i == j) for j in range(len(rows))) for i in range(len(rows)))
    for _ in range(k):
        acc = _mat_mul(acc, rows)
    return acc


def companion_form(coeffs) -> tuple[IntMatrix, tuple[Vec, ...]]:
    """Companion matrix and collinear digit set of a monic integer polynomial.

    coeffs lists the coefficients in descending powers, [1, c1, ..., cm].
    The digit set is {i * e1 : 0 <= i < |cm|}.
    """
    cs = int_vector(coeffs, "polynomial")
    if len(cs) < 2 or cs[0] != 1:
        raise ValueError("need a monic polynomial of degree >= 1")
    if cs[-1] == 0:
        raise ValueError("constant coefficient must be nonzero")
    m = len(cs) - 1
    rows = [[0] * m for _ in range(m)]
    for j in range(m - 1):
        rows[j + 1][j] = 1
    for i in range(m):
        rows[i][m - 1] = -cs[m - i]
    matrix = IntMatrix(tuple(tuple(r) for r in rows))
    e1 = tuple([1] + [0] * (m - 1))
    return matrix, collinear_digit_set(matrix, e1)


def char_poly(matrix: IntMatrix) -> list[int]:
    """Coefficients [1, c1, ..., cm] of det(xI - M) in descending powers."""
    # Faddeev-LeVerrier on row tuples: N_1 = M, c_k = -tr(N_k) / k and
    # N_(k+1) = M (N_k + c_k I).
    rows = matrix.rows
    m = len(rows)
    coeffs = [1]
    n = rows
    for k in range(1, m + 1):
        t = sum(n[i][i] for i in range(m))
        if t % k != 0:
            raise AssertionError("characteristic coefficients must be integral")
        c = -(t // k)
        coeffs.append(c)
        if k < m:
            n = _mat_mul(rows, tuple(
                tuple(x + c if i == j else x for j, x in enumerate(r))
                for i, r in enumerate(n)))
    return coeffs


def _all_roots_strictly_inside(coeffs: list[int]) -> bool:
    # Schur-Cohn reduction over exact integers; coeffs in descending powers.
    # Strict |a0| < |an| must hold at every stage; any equality means a root
    # on or outside the unit circle.
    c = list(coeffs)
    while len(c) > 1:
        a_n, a_0 = c[0], c[-1]
        if abs(a_0) >= abs(a_n):
            return False
        rev = c[::-1]
        t = [a_n * c[i] - a_0 * rev[i] for i in range(len(c))]
        if t[-1] != 0:
            raise AssertionError("Schur transform must kill the constant term")
        c = t[:-1]
    return True


def is_expanding(matrix: IntMatrix) -> bool:
    """True iff every eigenvalue has modulus strictly greater than 1.

    Supports 3x3 matrices only; decided exactly via Schur-Cohn on the
    reversed characteristic polynomial (whose roots are the reciprocal
    eigenvalues).
    """
    if matrix.size != 3:
        raise ValueError("is_expanding supports 3x3 matrices only")
    one, a, b, c = char_poly(matrix)
    if c == 0:
        return False  # zero eigenvalue
    return _all_roots_strictly_inside([c, b, a, one])


def collinear_digit_set(matrix: IntMatrix, v: Vec) -> tuple[Vec, ...]:
    """Digit set {0, v, 2v, ..., (|det|-1) v}."""
    v = int_vector(v, "direction")
    if len(v) != matrix.size:
        raise ValueError("dimension mismatch")
    if all(x == 0 for x in v):
        raise ValueError("direction vector must be nonzero")
    if matrix.det == 0:
        raise ValueError("matrix is singular")
    return tuple(vec_scale(i, v) for i in range(abs(matrix.det)))


def is_complete_residue_system(matrix: IntMatrix, digits) -> bool:
    """True iff digits hit every residue class of Z^m / M Z^m exactly once."""
    digits = tuple(tuple(int(x) for x in d) for d in digits)
    if len(set(digits)) != len(digits):
        raise ValueError("digit set contains duplicates")
    if matrix.det == 0:
        raise ValueError("matrix is singular")
    modulus = abs(matrix.det)
    if len(digits) != modulus:
        return False
    adj = matrix.adjugate
    m = matrix.size
    residues = {
        tuple(sum(adj[i][j] * d[j] for j in range(m)) % modulus for i in range(m))
        for d in digits
    }
    return len(residues) == modulus


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a x + b y = g = gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def digit_lattice(matrix: IntMatrix, digits) -> tuple[Vec, ...]:
    """Hermite normal form of the lattice that the vectors M^k (d - d0),
    k < n, generate, with d0 the first digit: its nonzero rows in echelon
    order, each pivot positive and each entry above a pivot reduced to
    0 <= x < pivot.

    This is the lattice Z[M, D] spanned by every M^k (d - d'): a higher
    power of M is an integer combination of lower ones (Cayley-Hamilton),
    and d - d' = (d - d0) - (d' - d0).  The generators are taken digit by
    digit, k = 0, ..., n - 1 for each; once the rows are the identity no
    generator can change them, so the rest are never made.  For a companion
    matrix with digits i e1 that is after e1, M e1 and M^2 e1.
    """
    n = matrix.size
    rest = iter(digits)
    d0 = next(rest)
    pivots: list = [None] * n  # the row whose first nonzero entry is at i

    def insert(v):
        for i in range(n):
            if v[i] == 0:
                continue
            r = pivots[i]
            if r is None:
                pivots[i] = v if v[i] > 0 else vec_neg(v)
                return
            # A unimodular step on (r, v): r becomes the row of pivot
            # gcd(r[i], v[i]), and v loses column i.
            g, a, b = _xgcd(r[i], v[i])
            p, q = r[i] // g, v[i] // g
            pivots[i] = tuple(a * x + b * y for x, y in zip(r, v))
            v = tuple(q * x - p * y for x, y in zip(r, v))

    for d in rest:
        v = vec_sub(d, d0)
        for k in range(n):
            if k:
                v = matrix.mul_vec(v)
            insert(v)
        if all(r is not None and r[i] == 1 for i, r in enumerate(pivots)):
            break
    rows = [list(r) for r in pivots if r is not None]
    for j, row in enumerate(rows):
        i = next(c for c, x in enumerate(row) if x)
        for above in rows[:j]:
            f = above[i] // row[i]
            if f:
                above[:] = [x - f * y for x, y in zip(above, row)]
    return tuple(map(tuple, rows))


class RadixExpansion(NamedTuple):
    """Outcome of a radix expansion attempt.

    digits holds the consumed digit word (the full expansion on success);
    cycle holds the repeating remainder states when the expansion enters a
    loop, and is None when the step budget ran out without a detected cycle.
    """

    digits: tuple[Vec, ...]
    terminated: bool
    cycle: tuple[Vec, ...] | None


def radix_expand(matrix: IntMatrix, digits, z: Vec,
                 max_len: int = DEFAULT_MAX_LEN) -> RadixExpansion:
    """Expand z in base (M, digits): z = d1 + M d2 + ... + M^(n-1) dn.

    Each step picks the unique digit congruent to the remainder modulo M Z^m
    and divides; a revisited remainder is reported as a cycle instead of
    looping forever.
    """
    digits = tuple(tuple(int(x) for x in d) for d in digits)
    if len(set(digits)) != len(digits):
        raise ValueError("digit set contains duplicates")
    state = tuple(int(x) for x in z)
    word: list[Vec] = []
    seen: dict[Vec, int] = {}
    order: list[Vec] = []
    for _ in range(max_len):
        if all(x == 0 for x in state):
            return RadixExpansion(tuple(word), True, None)
        if state in seen:
            cyc = tuple(order[seen[state]:])
            return RadixExpansion(tuple(word), False, cyc)
        seen[state] = len(order)
        order.append(state)
        matches = []
        for d in digits:
            nxt = matrix.solve_int(vec_sub(state, d))
            if nxt is not None:
                matches.append((d, nxt))
        if len(matches) != 1:
            raise ValueError(
                f"digit set is not a residue system at {state}: "
                f"{len(matches)} candidate digits"
            )
        d, state = matches[0]
        word.append(d)
    if all(x == 0 for x in state):
        return RadixExpansion(tuple(word), True, None)
    return RadixExpansion(tuple(word), False, None)
