"""Unit tests for exact Q(zeta_N) arithmetic and matrices."""

from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heckeforge import (CycloError, CycloContext, CyclotomicNumber,
                        CycloMatrix, cyclotomic_polynomial)
from heckeforge.cyclo import _extent, _nonzero_planes


def _stored_canonically(m):
    """The storage contract: int64 planes when every entry fits, else an
    object array of Python ints with an entry beyond int64."""
    if m.planes.dtype == np.int64:
        return True
    values = list(m.planes.flat)
    return (m.planes.dtype == object
            and all(type(x) is int for x in values)
            and not all(-2 ** 63 <= x < 2 ** 63 for x in values))


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
    # repeated positions add up and exponents are read mod N, whether the
    # indices come as lists or as int64 arrays; a table whose row e is
    # c zeta^e, over den, puts c zeta^e / den at each position instead
    ctx = CycloContext(conductor)
    index = st.integers(0, n - 1)
    exponent = st.integers(-3 * conductor, 3 * conductor)
    entries = data.draw(st.lists(st.tuples(index, index, exponent),
                                 max_size=3 * n * n))
    entries += data.draw(st.lists(st.sampled_from(entries), max_size=4)
                         if entries else st.just([]))
    rows, cols, exps = ([e[i] for e in entries] for i in range(3))
    if data.draw(st.booleans()):
        rows, cols, exps = (np.array(x, dtype=np.int64)
                            for x in (rows, cols, exps))
    c = CyclotomicNumber(ctx, data.draw(st.lists(
        st.integers(-9, 9), min_size=ctx.degree, max_size=ctx.degree)), 1)
    den = data.draw(st.integers(1, 6))
    table = np.array([(c * ctx.zeta_pow(e)).num for e in range(conductor)])
    want = [[ctx.zero() for _ in range(n)] for _ in range(n)]
    for r, col, e in entries:
        want[r][col] = want[r][col] + ctx.zeta_pow(int(e))
    scaled = [[x * c / den for x in row] for row in want]
    for got, expected in (
            (CycloMatrix.from_zeta_powers(ctx, n, rows, cols, exps), want),
            (CycloMatrix.from_zeta_powers(ctx, n, rows, cols, exps, table,
                                          den), scaled)):
        assert got == CycloMatrix.from_entries(ctx, expected)
        assert _stored_canonically(got)


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
    """a @ b, one plane product a_i @ b_j at a time, on Python ints."""
    deg = a.ctx.degree
    pa, pb = a.planes.astype(object), b.planes.astype(object)
    conv = [None] * (2 * deg - 1)
    for i in range(deg):
        if not pa[i].any():
            continue
        for j in range(deg):
            if pb[j].any():
                prod = pa[i] @ pb[j]
                conv[i + j] = (prod if conv[i + j] is None
                               else conv[i + j] + prod)
    return CycloMatrix(a.ctx, a.n, _oracle_fold(a.ctx, conv, a.n),
                       a.den * b.den)


def _oracle_scale(m, c):
    """m.scale(c), one coefficient of c times one plane of m at a time, on
    Python ints."""
    if not isinstance(c, CyclotomicNumber):
        c = m.ctx.from_rational(c)
    deg = m.ctx.degree
    planes = m.planes.astype(object)
    conv = [None] * (2 * deg - 1)
    for d, coef in enumerate(c.num):
        if coef:
            for k in range(deg):
                if planes[k].any():
                    t = coef * planes[k]
                    conv[d + k] = (t if conv[d + k] is None
                                   else conv[d + k] + t)
    return CycloMatrix(m.ctx, m.n, _oracle_fold(m.ctx, conv, m.n),
                       m.den * c.den)


def _assert_same(got, want):
    # planes and den agree, and the planes are stored canonically
    assert got == want
    assert _stored_canonically(got)


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


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4, 5, 8, 12, 20]), st.integers(1, 4), st.data())
def test_from_zeta_powers_distinct_matches_the_summing_build(conductor, n,
                                                             data):
    # with no repeated position the one-assignment build and the summing
    # build agree, with the power table and with a table over den
    ctx = CycloContext(conductor)
    index = st.integers(0, n - 1)
    cells = data.draw(st.lists(st.tuples(index, index), unique=True,
                               max_size=n * n))
    rows, cols = [r for r, _ in cells], [c for _, c in cells]
    exps = data.draw(st.lists(st.integers(-3 * conductor, 3 * conductor),
                              min_size=len(cells), max_size=len(cells)))
    c = CyclotomicNumber(ctx, data.draw(st.lists(
        st.integers(-9, 9), min_size=ctx.degree, max_size=ctx.degree)), 1)
    table = np.array([(c * ctx.zeta_pow(e)).num for e in range(conductor)])
    den = data.draw(st.integers(1, 6))
    for args in ((), (table, den)):
        got = CycloMatrix.from_zeta_powers(ctx, n, rows, cols, exps, *args,
                                           distinct=True)
        assert got == CycloMatrix.from_zeta_powers(ctx, n, rows, cols, exps,
                                                   *args)
        assert got.planes.dtype == np.int64


# ---------------------------------------------------------------------------
# oracle: the object-only storage that int64 planes replaced


def _oracle_plane_product(ctx, a, b):
    """_plane_product on object planes: both operands go to int64 when they
    fit, the product runs in int64 under the same bound, and the result
    comes back as Python ints."""
    def int64_if_fits(planes):
        try:
            return planes.astype(np.int64)
        except OverflowError:
            return planes

    deg, r, k = a.shape
    c = b.shape[2]
    a, b = int64_if_fits(a), int64_if_fits(b)
    left, right = _nonzero_planes(a), _nonzero_planes(b)
    if not len(left) or not len(right):
        return np.zeros((deg, r, c), dtype=object)
    sums = (left[:, None] + right).ravel()
    counts = np.bincount(sums)
    powers = np.flatnonzero(counts)
    counts = counts[powers]
    fold = ctx._powers[powers]
    if a.dtype == object or (_extent(a) * _extent(b) * k
                             * int((counts[:, None] * np.abs(fold))
                                   .sum(axis=0).max())
                             >= 2 ** 63):
        a, b, fold = a.astype(object), b.astype(object), fold.astype(object)
    lhs = a[left].reshape(-1, k)
    rhs = b[right].transpose(1, 0, 2).reshape(k, -1)
    blocks = (lhs @ rhs).reshape(len(left), r, len(right), c)
    blocks = blocks.transpose(0, 2, 1, 3).reshape(-1, r * c)
    if len(left) > 1 and len(right) > 1:
        order = np.argsort(sums, kind="stable")
        blocks = np.add.reduceat(blocks[order], np.cumsum(counts) - counts,
                                 axis=0)
    planes = fold.T @ blocks
    return planes.reshape(deg, r, c).astype(object, copy=False)


class _ObjectMatrix:
    """CycloMatrix as it was before int64 storage: object planes of Python
    ints, normalised by math.gcd one entry at a time."""

    def __init__(self, ctx, n, planes, den=1, normalize=True):
        self.ctx, self.n, self.den = ctx, n, den
        self.planes = planes.astype(object)
        if normalize:
            self._normalize()

    def _normalize(self):
        if self.den < 0:
            self.planes = -self.planes
            self.den = -self.den
        g = self.den
        for v in self.planes.flat:
            g = gcd(g, int(v))
            if g == 1:
                return
        if g > 1:
            self.planes = self.planes // g
            self.den //= g

    def __matmul__(self, other):
        return _ObjectMatrix(self.ctx, self.n, _oracle_plane_product(
            self.ctx, self.planes, other.planes), self.den * other.den)

    def __add__(self, other):
        return _ObjectMatrix(self.ctx, self.n,
                             self.planes * other.den + other.planes * self.den,
                             self.den * other.den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _ObjectMatrix(self.ctx, self.n, -self.planes, self.den,
                             normalize=False)

    def scale(self, c):
        if not isinstance(c, CyclotomicNumber):
            c = self.ctx.from_rational(c)
        deg, n = self.ctx.degree, self.n
        coeffs = np.array(c.num, dtype=object).reshape(deg, 1, 1)
        planes = _oracle_plane_product(self.ctx, coeffs,
                                       self.planes.reshape(deg, 1, n * n))
        return _ObjectMatrix(self.ctx, n, planes.reshape(deg, n, n),
                             self.den * c.den)

    def entry(self, i, j):
        return CyclotomicNumber(self.ctx, tuple(
            int(self.planes[d, i, j]) for d in range(self.ctx.degree)),
            self.den)

    def trace(self):
        return CyclotomicNumber(self.ctx, tuple(
            int(sum(self.planes[d, i, i] for i in range(self.n)))
            for d in range(self.ctx.degree)), self.den)

    def __eq__(self, other):
        return self.den == other.den and bool(
            (self.planes == other.planes).all())


def _agrees(got, want):
    """got, a CycloMatrix, holds want's planes and den, stored
    canonically."""
    return (got.den == want.den and bool((got.planes == want.planes).all())
            and _stored_canonically(got))


# denominators of either sign, some at or beyond 2^63
_dens = st.one_of(st.integers(1, 6), st.integers(-6, -1),
                  st.sampled_from([2 ** 63 - 1, 2 ** 63, 3 * 2 ** 63,
                                   -2 ** 63, 2 ** 64 + 1]))
# matrices whose entries are all 0 or INT64_MIN have gcd 2^63
_entry_kinds = [_small, _mixed, st.sampled_from([0, INT64_MIN])]


@st.composite
def _oracle_operands(draw):
    """Two matrices over one context, each as a CycloMatrix and as an
    _ObjectMatrix built from the same planes and denominator."""
    ctx = CycloContext(draw(st.sampled_from(CONDUCTORS)))
    n = draw(st.integers(1, 4))
    pairs = []
    for _ in range(2):
        entries = draw(st.sampled_from(_entry_kinds))
        planes = np.zeros((ctx.degree, n, n), dtype=object)
        for d in draw(st.sets(st.integers(0, ctx.degree - 1),
                              max_size=ctx.degree)):
            planes[d] = np.array(draw(st.lists(
                entries, min_size=n * n, max_size=n * n)),
                dtype=object).reshape(n, n)
        den = draw(_dens)
        pairs.append((CycloMatrix(ctx, n, planes, den),
                      _ObjectMatrix(ctx, n, planes, den)))
    return ctx, pairs[0], pairs[1]


@settings(max_examples=150, deadline=None)
@given(_oracle_operands(), st.data())
def test_arithmetic_matches_the_object_oracle(ops, data):
    ctx, (a, a0), (b, b0) = ops
    # the constructors' _normalize
    assert _agrees(a, a0) and _agrees(b, b0)
    for got, want in ((a @ b, a0 @ b0), (a + b, a0 + b0), (a - b, a0 - b0),
                      (-a, -a0), (-(-a), -(-a0))):
        assert _agrees(got, want)
    num = data.draw(st.one_of(_small, st.sampled_from(EDGE_ENTRIES)))
    den = data.draw(st.integers(1, 6))
    for c in (Fraction(num, den), CyclotomicNumber(ctx, tuple(data.draw(
            st.lists(_mixed, min_size=ctx.degree, max_size=ctx.degree))),
            den)):
        assert _agrees(a.scale(c), a0.scale(c))
    assert (a == b) == (a0 == b0)
    i, j = data.draw(st.tuples(*[st.integers(0, a.n - 1)] * 2))
    assert a.entry(i, j) == a0.entry(i, j)
    assert a.trace() == a0.trace()


@settings(max_examples=80, deadline=None)
@given(_oracle_operands())
def test_int64_and_object_storage_compare_by_value(ops):
    _, (a, _), (b, _) = ops
    for m in (a, b):
        held_as_objects = CycloMatrix(m.ctx, m.n, m.planes, m.den,
                                      normalize=False)
        held_as_objects.planes = m.planes.astype(object)
        assert held_as_objects == m and m == held_as_objects
        assert (held_as_objects == -m) == (m == -m)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(CONDUCTORS), st.integers(1, 4), st.data())
def test_add_across_the_int64_limit(conductor, n, data):
    """Constant matrices x / da and y / db whose sum's numerator
    x db + y da lands within a few units of 2^63, on either side, and of
    either sign."""
    ctx = CycloContext(conductor)
    da, db = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    target = 2 ** 63 + data.draw(st.integers(-3, 3))
    x = target // (2 * db)
    y = (target - x * db) // da
    sign = data.draw(st.sampled_from([1, -1]))
    d = data.draw(st.integers(0, ctx.degree - 1))
    pairs = []
    for value, den in ((sign * x, da), (sign * y, db)):
        planes = np.zeros((ctx.degree, n, n), dtype=object)
        planes[d] = value
        pairs.append((CycloMatrix(ctx, n, planes, den, normalize=False),
                      _ObjectMatrix(ctx, n, planes, den, normalize=False)))
    (a, a0), (b, b0) = pairs
    assert a.planes.dtype == b.planes.dtype == np.int64
    assert _agrees(a + b, a0 + b0) and _agrees(b + a, b0 + a0)
    assert _agrees(a - b, a0 - b0) and _agrees(b - a, b0 - a0)


@pytest.mark.parametrize("den", [1, 3, -1])
def test_negating_int64_min_leaves_int64(den):
    # -INT64_MIN = 2^63: __neg__, and the constructor's sign fix of a
    # negative denominator, move to Python ints
    ctx = CycloContext(12)
    planes = np.zeros((ctx.degree, 2, 2), dtype=np.int64)
    planes[1, 0, 1] = INT64_MIN
    planes[2, 1, 0] = 5
    m = CycloMatrix(ctx, 2, planes, den)
    low = m if den > 0 else -m
    assert low.planes.dtype == np.int64
    assert low.entry(0, 1).num[1] == INT64_MIN
    high = -low
    assert high.planes.dtype == object
    assert high.entry(0, 1).num[1] == 2 ** 63
    assert -high == low and (-high).planes.dtype == np.int64
