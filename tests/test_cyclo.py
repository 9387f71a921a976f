"""Unit tests for exact Q(zeta_N) arithmetic and matrices."""

from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heckeforge import (CycloError, CycloContext, CyclotomicNumber,
                        CycloMatrix, cyclotomic_polynomial)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # degree = Euler phi
    assert len(cyclotomic_polynomial(20)) - 1 == 8


def test_zeta_powers_cycle():
    ctx = CycloContext(12)
    z = ctx.zeta_pow(1)
    acc = ctx.one()
    for k in range(1, 13):
        acc = acc * z
        assert acc == ctx.zeta_pow(k)
    assert acc == ctx.one()


def test_field_arithmetic_exact():
    ctx = CycloContext(20)
    a = ctx.zeta_pow(3) + ctx.from_rational(Fraction(2, 3))
    b = ctx.zeta_pow(7) - ctx.from_rational(5)
    assert (a + b) - b == a
    assert a * b == b * a
    assert (a * b) * a.inv() == b * (a * a.inv())
    assert a * a.inv() == ctx.one()
    with pytest.raises(CycloError):
        ctx.zero().inv()


def test_conjugation_and_abs_squared():
    ctx = CycloContext(12)
    z = ctx.zeta_pow(1)
    assert z.conj() == ctx.zeta_pow(11)
    assert z.abs_squared() == ctx.one()
    # Gauss sum norm: |sum zeta_p^{t^2}|^2 = p for p = 3 inside Q(zeta_12)
    g = ctx.zero()
    for t in range(3):
        g = g + ctx.zeta_pow(4 * (t * t % 3))
    assert g.abs_squared() == ctx.from_rational(3)


def test_galois_is_automorphism():
    ctx = CycloContext(12)
    a = ctx.zeta_pow(1) + ctx.from_rational(2)
    b = ctx.zeta_pow(5) - ctx.one()
    for k in (5, 7, 11):
        assert ctx.galois(a * b, k) == ctx.galois(a, k) * ctx.galois(b, k)
    with pytest.raises(CycloError):
        ctx.galois(a, 4)


def test_rational_detection():
    ctx = CycloContext(12)
    r = ctx.from_rational(Fraction(-7, 4))
    assert r.is_rational() and r.as_rational() == Fraction(-7, 4)
    with pytest.raises(CycloError):
        ctx.zeta_pow(1).as_rational()


def test_matrix_matmul_matches_entrywise():
    ctx = CycloContext(12)
    rows_a = [[ctx.zeta_pow(i * 2 + j) for j in range(3)] for i in range(3)]
    rows_b = [[ctx.zeta_pow(5 * i + j) + ctx.from_rational(j)
               for j in range(3)] for i in range(3)]
    a = CycloMatrix.from_entries(ctx, rows_a)
    b = CycloMatrix.from_entries(ctx, rows_b)
    prod = a @ b
    for i in range(3):
        for j in range(3):
            want = ctx.zero()
            for k in range(3):
                want = want + rows_a[i][k] * rows_b[k][j]
            assert prod.entry(i, j) == want


def test_matrix_trace_scale_conj_transpose():
    ctx = CycloContext(8)
    a = CycloMatrix.from_entries(
        ctx, [[ctx.zeta_pow(1), ctx.from_rational(2)],
              [ctx.zero(), ctx.zeta_pow(3)]])
    assert a.trace() == ctx.zeta_pow(1) + ctx.zeta_pow(3)
    s = a.scale(Fraction(1, 2))
    assert s.entry(0, 1) == ctx.from_rational(1)
    ct = a.conj_transpose()
    assert ct.entry(0, 0) == ctx.zeta_pow(7)
    assert ct.entry(1, 0) == ctx.from_rational(2)


def test_matrix_identity_and_proportionality():
    ctx = CycloContext(8)
    ident = CycloMatrix.identity(ctx, 2)
    a = ident.scale(ctx.zeta_pow(3))
    c = a.proportional_to(ident)
    assert c == ctx.zeta_pow(3)
    b = CycloMatrix.from_entries(ctx, [[1, 0], [0, ctx.zeta_pow(1)]])
    assert b.proportional_to(ident) is None
    i, j, e = a.first_nonzero()
    assert (i, j) == (0, 0) and e == ctx.zeta_pow(3)
    assert CycloMatrix.zeros(ctx, 2).is_zero()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([3, 4, 5, 8, 12, 20]),
       st.integers(1, 4), st.data())
def test_from_zeta_powers_matches_sums_of_zeta_pow(conductor, n, data):
    # repeated positions add up and exponents are read mod N, whatever
    # integer type they come in
    ctx = CycloContext(conductor)
    index = st.integers(0, n - 1)
    exponent = st.integers(-3 * conductor, 3 * conductor)
    entries = data.draw(st.lists(st.tuples(index, index, exponent),
                                 max_size=3 * n * n))
    entries += data.draw(st.lists(st.sampled_from(entries), max_size=4)
                         if entries else st.just([]))
    if data.draw(st.booleans()):
        entries = [tuple(np.int64(x) for x in e) for e in entries]
    want = [[ctx.zero() for _ in range(n)] for _ in range(n)]
    for r, c, e in entries:
        want[r][c] = want[r][c] + ctx.zeta_pow(int(e))
    got = CycloMatrix.from_zeta_powers(ctx, n, entries)
    assert got == CycloMatrix.from_entries(ctx, want)
    assert got.planes.dtype == object
    assert all(type(x) is int for x in got.planes.flat)


# ---------------------------------------------------------------------------
# oracle: the per-plane loops that the stacked plane kernel replaced

CONDUCTORS = [3, 4, 5, 8, 12, 20, 28, 44]
INT64_MIN = -2 ** 63
# int64's edges, INT64_MIN, and entries beyond int64 that force Python ints
EDGE_ENTRIES = [2 ** 31, -2 ** 31, 2 ** 62, 2 ** 63 - 1, -(2 ** 63 - 1),
                INT64_MIN, INT64_MIN - 1, 2 ** 63, 2 ** 64 + 3]


def _oracle_fold(ctx, conv, n):
    deg = ctx.degree
    planes = np.zeros((deg, n, n), dtype=object)
    for k, m in enumerate(conv):
        if m is None:
            continue
        if k < deg:
            planes[k] = planes[k] + m
        else:
            row = ctx.power_table[k]
            for d in range(deg):
                if row[d]:
                    planes[d] = planes[d] + row[d] * m
    return planes


def _oracle_matmul(a, b):
    """a @ b, one plane product a_i @ b_j at a time."""
    deg = a.ctx.degree
    conv = [None] * (2 * deg - 1)
    for i in range(deg):
        if not a.planes[i].any():
            continue
        for j in range(deg):
            if b.planes[j].any():
                prod = a.planes[i] @ b.planes[j]
                conv[i + j] = (prod if conv[i + j] is None
                               else conv[i + j] + prod)
    return CycloMatrix(a.ctx, a.n, _oracle_fold(a.ctx, conv, a.n),
                       a.den * b.den)


def _oracle_scale(m, c):
    """m.scale(c), one coefficient of c times one plane of m at a time."""
    if not isinstance(c, CyclotomicNumber):
        c = m.ctx.from_rational(c)
    deg = m.ctx.degree
    conv = [None] * (2 * deg - 1)
    for d, coef in enumerate(c.num):
        if coef:
            for k in range(deg):
                if m.planes[k].any():
                    t = coef * m.planes[k]
                    conv[d + k] = (t if conv[d + k] is None
                                   else conv[d + k] + t)
    return CycloMatrix(m.ctx, m.n, _oracle_fold(m.ctx, conv, m.n),
                       m.den * c.den)


def _assert_same(got, want):
    # planes and den agree, and the planes hold Python ints only
    assert got == want
    assert got.planes.dtype == object
    assert all(type(x) is int for x in got.planes.flat)


_small = st.integers(-3, 3)
_mixed = st.one_of(_small, _small, st.sampled_from(EDGE_ENTRIES))


@st.composite
def _matrix(draw, ctx, n, entries):
    """A matrix with a drawn set of nonzero planes: none (the zero matrix),
    one, or several."""
    deg = ctx.degree
    planes = np.zeros((deg, n, n), dtype=object)
    for d in draw(st.sets(st.integers(0, deg - 1), max_size=deg)):
        vals = draw(st.lists(entries, min_size=n * n, max_size=n * n))
        planes[d] = np.array(vals, dtype=object).reshape(n, n)
    return CycloMatrix(ctx, n, planes, draw(st.integers(1, 6)))


@st.composite
def _operands(draw, entries):
    ctx = CycloContext(draw(st.sampled_from(CONDUCTORS)))
    n = draw(st.integers(1, 6))
    return ctx, draw(_matrix(ctx, n, entries)), draw(_matrix(ctx, n, entries))


@settings(max_examples=80, deadline=None)
@given(_operands(_small))
def test_matmul_matches_per_plane_oracle_small(ops):
    _, a, b = ops
    _assert_same(a @ b, _oracle_matmul(a, b))


@settings(max_examples=80, deadline=None)
@given(_operands(_mixed))
def test_matmul_matches_per_plane_oracle_edge_entries(ops):
    _, a, b = ops
    _assert_same(a @ b, _oracle_matmul(a, b))


@settings(max_examples=80, deadline=None)
@given(_operands(_mixed), st.data())
def test_scale_matches_per_plane_oracle(ops, data):
    ctx, a, _ = ops
    num = data.draw(st.one_of(_small, st.sampled_from(EDGE_ENTRIES)))
    den = data.draw(st.integers(1, 6))
    if data.draw(st.booleans()):
        c = Fraction(num, den)
    else:
        c = CyclotomicNumber(ctx, tuple(data.draw(st.lists(
            _mixed, min_size=ctx.degree, max_size=ctx.degree))), den)
    _assert_same(a.scale(c), _oracle_scale(a, c))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(CONDUCTORS), st.integers(1, 6), st.data())
def test_kernel_at_the_int64_bound(conductor, n, data):
    """One-plane operands of constant sign whose kernel bound
    max|a| max|b| k max_d sum |fold| is 2^63 - 1 or less, or just above it;
    the largest entry of the product then reaches the bound."""
    ctx = CycloContext(conductor)
    deg = ctx.degree
    i = data.draw(st.integers(0, deg - 1))
    j = data.draw(st.integers(0, deg - 1))
    fold = max(abs(x) for x in ctx.power_table[i + j])
    scale = data.draw(st.booleans())
    k = 1 if scale else n
    b_max = data.draw(st.integers(1, 5))
    a_max = ((2 ** 63 - 1) // (b_max * k * fold)
             + data.draw(st.integers(0, 1)))
    a_sign = data.draw(st.sampled_from([1, -1]))
    b_sign = data.draw(st.sampled_from([1, -1]))
    planes = np.zeros((deg, n, n), dtype=object)
    planes[j] = b_sign * b_max
    b = CycloMatrix(ctx, n, planes, normalize=False)
    if scale:
        num = [0] * deg
        num[i] = a_sign * a_max
        c = CyclotomicNumber(ctx, tuple(num), 1)
        _assert_same(b.scale(c), _oracle_scale(b, c))
    else:
        planes = np.zeros((deg, n, n), dtype=object)
        planes[i] = a_sign * a_max
        a = CycloMatrix(ctx, n, planes, normalize=False)
        _assert_same(a @ b, _oracle_matmul(a, b))



@settings(max_examples=80, deadline=None)
@given(st.sampled_from(CONDUCTORS), st.integers(1, 6), st.data())
def test_kernel_at_the_int64_bound_with_shared_powers(conductor, n, data):
    """Constant operands on planes 0..u-1 and 0..w-1 with u + w <= deg + 1:
    min(u, w) block products land on one power x^s, s < deg, so the largest
    entry of the product is the bound max|a| max|b| k min(u, w), taken at
    2^63 - 1 or less, or just above it."""
    ctx = CycloContext(conductor)
    deg = ctx.degree
    u = data.draw(st.integers(1, deg))
    w = data.draw(st.integers(1, deg + 1 - u))
    scale = data.draw(st.booleans())
    k = 1 if scale else n
    b_max = data.draw(st.integers(1, 5))
    a_max = ((2 ** 63 - 1) // (b_max * k * min(u, w))
             + data.draw(st.integers(0, 1)))
    a_val = data.draw(st.sampled_from([1, -1])) * a_max
    planes = np.zeros((deg, n, n), dtype=object)
    planes[:w] = data.draw(st.sampled_from([1, -1])) * b_max
    b = CycloMatrix(ctx, n, planes, normalize=False)
    if scale:
        c = CyclotomicNumber(ctx, (a_val,) * u + (0,) * (deg - u), 1)
        _assert_same(b.scale(c), _oracle_scale(b, c))
    else:
        planes = np.zeros((deg, n, n), dtype=object)
        planes[:u] = a_val
        a = CycloMatrix(ctx, n, planes, normalize=False)
        _assert_same(a @ b, _oracle_matmul(a, b))


def _oracle_inv(x):
    """x^-1 by solving x y = 1 in the power basis over Q, one Fraction
    Gauss-Jordan elimination."""
    ctx = x.ctx
    deg = ctx.degree
    # column j is x * zeta^j; the right-hand side is 1 = x.den / x.den
    cols = [ctx.reduce([0] * j + list(x.num)) for j in range(deg)]
    a = [[Fraction(cols[j][i]) for j in range(deg)]
         + [Fraction(x.den if i == 0 else 0)] for i in range(deg)]
    for col in range(deg):
        piv = next(r for r in range(col, deg) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        lead = a[col][col]
        a[col] = [v / lead for v in a[col]]
        for r in range(deg):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    sol = [a[i][deg] for i in range(deg)]
    den = 1
    for s in sol:
        den = den * s.denominator // gcd(den, s.denominator)
    return CyclotomicNumber(ctx, tuple(int(s * den) for s in sol), den)


@settings(max_examples=160, deadline=None)
@given(st.sampled_from([3, 4, 5, 8, 12, 20, 28, 44]), st.data())
def test_galois_norm_inverse_matches_elimination(conductor, data):
    ctx = CycloContext(conductor)
    num = data.draw(st.lists(st.integers(-4, 4), min_size=ctx.degree,
                             max_size=ctx.degree).filter(any))
    x = CyclotomicNumber(ctx, tuple(num), data.draw(st.integers(1, 6)))
    got, want = x.inv(), _oracle_inv(x)
    assert (got.num, got.den) == (want.num, want.den)
    assert x * got == ctx.one()
