"""Unit tests for the shared elimination routine and its users."""

import itertools

from hypothesis import given, settings, strategies as st

from heckeforge import FqContext
from heckeforge import linalg


def test_rref_example_f5():
    ctx = FqContext(5)
    m = linalg.mat_from_ints(ctx, [[0, 2, 4], [0, 1, 2], [3, 0, 1]])
    rows, pivots = linalg.rref(m)
    assert pivots == [0, 1]
    assert rows == linalg.mat_from_ints(ctx, [[1, 0, 2], [0, 1, 2],
                                              [0, 0, 0]])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rref_null_space_and_solve(data):
    ctx = FqContext(*data.draw(st.sampled_from([(3, 1), (5, 1), (3, 2)])))
    els = st.sampled_from(list(ctx.elements()))
    nrows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 3))
    m = tuple(data.draw(st.tuples(*[els] * cols)) for _ in range(nrows))
    b = data.draw(st.tuples(*[els] * nrows))
    rows, pivots = linalg.rref(m)
    # reduced echelon: each pivot is 1 and alone in its column, and the
    # rows below the pivot rows are zero
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        for r, row in enumerate(rows):
            assert row[c] == (ctx.one if r == i else ctx.zero)
    assert all(x.is_zero() for row in rows[len(pivots):] for x in row)
    basis = linalg.null_space(m)
    assert len(basis) == cols - len(pivots)
    for v in basis:
        assert all(x.is_zero() for x in linalg.mat_vec(m, v))
    solvable = any(linalg.mat_vec(m, x) == b for x in itertools.product(
        list(ctx.elements()), repeat=cols))
    y = linalg.solve(m, b)
    assert (y is not None) == solvable
    if y is not None:
        assert linalg.mat_vec(m, y) == b
