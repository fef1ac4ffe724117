"""Hypothesis strategies shared by several test modules."""

from hypothesis import assume, strategies as st

from tileforge.lattice import IntMatrix, companion_form, is_expanding


@st.composite
def expanding_systems(draw):
    """Expanding companion matrices, conjugated by a unimodular shear, with
    a few distinct small digits and a small depth."""
    a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    c = draw(st.sampled_from([-5, -4, -3, -2, 2, 3, 4, 5]))
    matrix, _ = companion_form([1, a, b, c])
    assume(is_expanding(matrix))
    i, j = draw(st.sampled_from([(i, j) for i in range(3) for j in range(3)
                                 if i != j]))
    k = draw(st.integers(-2, 2))
    shear = [[int(r == s) for s in range(3)] for r in range(3)]
    shear[i][j] = k
    inverse = [row[:] for row in shear]
    inverse[i][j] = -k
    matrix = IntMatrix(shear) @ matrix @ IntMatrix(inverse)
    digits = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * 3),
                           min_size=1, max_size=4, unique=True))
    return matrix, tuple(digits), draw(st.integers(1, 3))
