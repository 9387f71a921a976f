"""Unit tests for the shared elimination routine and its users."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from heckeforge import FieldError, FqContext
from heckeforge import linalg


def _mat_from_ints(ctx, rows):
    return tuple(tuple(ctx.elem(c) for c in row) for row in rows)


def _in_span(vectors, v, p):
    """Whether v lies in the span of vectors: one solve."""
    m = [[vec[i] for vec in vectors] for i in range(len(v))]
    return linalg.solve(m, v, p) is not None


def _span_basis(vectors, p):
    """The first independent vectors, in order: the pivot columns of the
    matrix whose columns are the vectors.  The tests' oracle for the basis
    of U that a U-adapted symplectic basis starts with."""
    vectors = [tuple(x % p for x in v) for v in vectors]
    if not vectors:
        return []
    _, pivots = linalg.rref(linalg.transpose(vectors), p)
    return [vectors[c] for c in pivots]


def _null_space(m, p=None):
    """Basis of the right null space of m (rows x cols), read off the
    reduced echelon form.  No package code needs it; the tests' oracles
    for U-perp and the coset transversal do."""
    cols = len(m[0])
    zero, one = (0, 1) if p is not None else (m[0][0].ctx.zero,
                                              m[0][0].ctx.one)
    a, pivots = linalg.rref(m, p)
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [zero] * cols
        v[fc] = one
        for pi, pc in enumerate(pivots):
            v[pc] = -a[pi][fc] if p is None else -a[pi][fc] % p
        basis.append(tuple(v))
    return basis


def test_rref_example_f5():
    ctx = FqContext(5)
    m = _mat_from_ints(ctx, [[0, 2, 4], [0, 1, 2], [3, 0, 1]])
    rows, pivots = linalg.rref(m)
    assert pivots == [0, 1]
    assert rows == _mat_from_ints(ctx, [[1, 0, 2], [0, 1, 2], [0, 0, 0]])


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
    basis = _null_space(m)
    assert len(basis) == cols - len(pivots)
    for v in basis:
        assert all(x.is_zero() for x in linalg.mat_vec(m, v))
    solvable = any(linalg.mat_vec(m, x) == b for x in itertools.product(
        list(ctx.elements()), repeat=cols))
    y = linalg.solve(m, b)
    assert (y is not None) == solvable
    if y is not None:
        assert linalg.mat_vec(m, y) == b


# (p, m) of the F_q cases, and the primes of the plain-int cases
FIELDS = [(3, 1), (5, 1), (3, 2)]
PRIMES = [3, 5, 7, 11]


@st.composite
def _square(draw):
    """(m, p, zero, one): an n x n matrix, n <= 4, over F_3, F_5 or F_9
    (p is None), or of ints mod p, drawn unreduced so that the reduction
    mod p is exercised."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        ctx = FqContext(*draw(st.sampled_from(FIELDS)))
        els = st.sampled_from(list(ctx.elements()))
        return (tuple(draw(st.tuples(*[els] * n)) for _ in range(n)), None,
                ctx.zero, ctx.one)
    p = draw(st.sampled_from(PRIMES))
    ints = st.integers(-2 * p, 3 * p)
    return tuple(draw(st.tuples(*[ints] * n)) for _ in range(n)), p, 0, 1


def _leibniz(m, zero, one):
    """det m by the permutation expansion."""
    n = len(m)
    total = zero
    for perm in itertools.permutations(range(n)):
        term = one
        for i, j in enumerate(perm):
            term = term * m[i][j]
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total = total - term if inversions % 2 else total + term
    return total


def _reduced(m, p):
    return m if p is None else tuple(tuple(x % p for x in row) for row in m)


@settings(max_examples=150, deadline=None)
@given(_square())
def test_det_matches_leibniz(case):
    m, p, zero, one = case
    want = _leibniz(m, zero, one)
    assert linalg.det(m, p) == (want if p is None else want % p)


@settings(max_examples=150, deadline=None)
@given(_square())
def test_mat_inv_is_a_left_inverse_or_raises(case):
    m, p, zero, one = case
    n = len(m)
    if linalg.det(m, p) == zero:
        with pytest.raises(FieldError):
            linalg.mat_inv(m, p)
        return
    inv = linalg.mat_inv(m, p)
    assert _reduced(linalg.mat_mul(inv, m), p) == tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n))


def _as_ints(m):
    return tuple(tuple(x.coeffs[0] for x in row) for row in m)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_int_path_matches_prime_field_elements(data):
    p = data.draw(st.sampled_from(PRIMES))
    ctx = FqContext(p)
    ints = st.integers(-2 * p, 3 * p)
    nrows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 4))
    m = tuple(data.draw(st.tuples(*[ints] * cols)) for _ in range(nrows))
    b = data.draw(st.tuples(*[ints] * nrows))
    mf = _mat_from_ints(ctx, m)
    bf = tuple(ctx.elem(x) for x in b)
    rows, pivots = linalg.rref(m, p)
    rows_f, pivots_f = linalg.rref(mf)
    assert all(type(x) is int for row in rows for x in row)
    assert (rows, pivots) == (_as_ints(rows_f), pivots_f)
    assert _null_space(m, p) == list(
        _as_ints(_null_space(mf)))
    y, y_f = linalg.solve(m, b, p), linalg.solve(mf, bf)
    assert (y is None) == (y_f is None)
    if y is not None:
        assert y == _as_ints((y_f,))[0]
    # the products: m times a cols x k matrix and a vector, and the
    # vector operations on b and a second vector
    k = data.draw(st.integers(1, 4))
    m2 = tuple(data.draw(st.tuples(*[ints] * k)) for _ in range(cols))
    v = data.draw(st.tuples(*[ints] * cols))
    b2 = data.draw(st.tuples(*[ints] * nrows))
    c = data.draw(ints)
    m2f = _mat_from_ints(ctx, m2)
    vf, b2f = (tuple(ctx.elem(x) for x in w) for w in (v, b2))
    assert linalg.mat_mul(m, m2, p) == _as_ints(linalg.mat_mul(mf, m2f))
    assert (linalg.mat_vec(m, v, p),
            linalg.vec_add(b, b2, p),
            linalg.vec_sub(b, b2, p),
            linalg.vec_scale(c, b, p)) == _as_ints(
        (linalg.mat_vec(mf, vf),
         linalg.vec_add(bf, b2f),
         linalg.vec_sub(bf, b2f),
         linalg.vec_scale(ctx.elem(c), bf)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_span_basis_matches_greedy_in_span(data):
    p = data.draw(st.sampled_from(PRIMES))
    dim = data.draw(st.integers(1, 4))
    small = st.sampled_from([0, 0, 1, 2, -1, p, p + 1])
    vectors = data.draw(st.lists(st.tuples(*[small] * dim), max_size=6))
    greedy = []
    for v in vectors:
        if not _in_span(greedy, v, p):
            greedy.append(tuple(x % p for x in v))
    assert _span_basis(vectors, p) == greedy
