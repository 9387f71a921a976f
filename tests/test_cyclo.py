"""Unit tests for exact Q(zeta_N) arithmetic and matrices."""

from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heckeforge import (CycloError, CycloContext, CyclotomicNumber,
                        CycloMatrix, HeisenbergElement, HeisenbergRep,
                        SymplecticSpace, WeilSL2, cyclotomic_polynomial)
from heckeforge.cyclo import (_counted, _extent, _nonzero_planes,
                              _plane_product, _same_terms)


def _oracle_reduce(ctx, coeffs):
    """The integer polynomial coeffs (low degree first) mod Phi_N, by long
    division over Z: Phi_N is monic.  It shares nothing with the context's
    table of powers."""
    phi, deg = ctx.phi, ctx.degree
    rem = [int(c) for c in coeffs] + [0] * deg
    for top in range(len(rem) - 1, deg - 1, -1):
        lead = rem[top]
        if lead:
            for i, c in enumerate(phi):
                rem[top - deg + i] -= lead * c
    return tuple(rem[:deg])


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
    assert z * z.conj() == ctx.one()
    # Gauss sum norm: |sum zeta_p^{t^2}|^2 = p for p = 3 inside Q(zeta_12)
    g = ctx.zero()
    for t in range(3):
        g = g + ctx.zeta_pow(4 * (t * t % 3))
    assert g * g.conj() == ctx.from_rational(3)


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


def test_matrix_trace_and_scale():
    ctx = CycloContext(8)
    a = CycloMatrix.from_entries(
        ctx, [[ctx.zeta_pow(1), ctx.from_rational(2)],
              [ctx.zero(), ctx.zeta_pow(3)]])
    assert a.trace() == ctx.zeta_pow(1) + ctx.zeta_pow(3)
    s = a.scale(Fraction(1, 2))
    assert s.entry(0, 1) == ctx.from_rational(1)


def test_matrix_identity_and_proportionality():
    ctx = CycloContext(8)
    ident = CycloMatrix.identity(ctx, 2)
    a = ident.scale(ctx.zeta_pow(3))
    assert a.entry(0, 0) == a.entry(1, 1) == ctx.zeta_pow(3)
    assert a.entry(0, 1).is_zero() and a == ident.scale(a.entry(0, 0))
    b = CycloMatrix.from_entries(ctx, [[1, 0], [0, ctx.zeta_pow(1)]])
    assert b != ident.scale(b.entry(0, 0))
    assert CycloMatrix.zeros(ctx, 2).is_zero()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([3, 4, 5, 8, 12, 20]),
       st.integers(1, 4), st.data())
def test_from_zeta_powers_matches_sums_of_zeta_pow(conductor, n, data):
    # repeated positions add up and exponents are read mod N, whether the
    # indices come as lists or as int64 arrays; over den each term is
    # zeta^e / den
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
    den = data.draw(st.integers(1, 6))
    want = [[ctx.zero() for _ in range(n)] for _ in range(n)]
    for r, col, e in entries:
        want[r][col] = want[r][col] + ctx.zeta_pow(int(e))
    scaled = [[x / den for x in row] for row in want]
    for got, expected in (
            (CycloMatrix.from_zeta_powers(ctx, n, rows, cols, exps), want),
            (CycloMatrix.from_zeta_powers(ctx, n, rows, cols, exps, den),
             scaled)):
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
            row = _oracle_reduce(ctx, [0] * k + [1])
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
    terms max|x^e| = max|a| max|b| k max|x^e| is the last value below 2^62
    or the first at or above it, so the product runs in int64 or on Python
    ints."""
    ctx = CycloContext(conductor)
    deg = ctx.degree
    i = data.draw(st.integers(0, deg - 1))
    j = data.draw(st.integers(0, deg - 1))
    scale = data.draw(st.booleans())
    k = 1 if scale else n
    b_max = data.draw(st.integers(1, 5))
    a_max = ((2 ** 62 - 1) // (b_max * k * ctx._powers_extent)
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
    min(u, w) block products land on one power x^s, s < deg.  The kernel
    bound terms max|x^e| = u w k max|a| max|b| max|x^e| is the last value
    below 2^62 or the first at or above it, so the product runs in int64 or
    on Python ints."""
    ctx = CycloContext(conductor)
    deg = ctx.degree
    u = data.draw(st.integers(1, deg))
    w = data.draw(st.integers(1, deg + 1 - u))
    scale = data.draw(st.booleans())
    k = 1 if scale else n
    b_max = data.draw(st.integers(1, 5))
    a_max = ((2 ** 62 - 1) // (u * w * b_max * k * ctx._powers_extent)
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
    cols = [_oracle_reduce(ctx, [0] * j + list(x.num)) for j in range(deg)]
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


# ---------------------------------------------------------------------------
# oracle: the object-only storage that int64 planes replaced


def _oracle_plane_product(ctx, a, b):
    """_plane_product as it was before it counted through _counted, on
    object planes: both operands go to int64 when they fit, the product
    runs in int64 under its own bound and folds its blocks by the rows
    x^((i + j) mod N) mod Phi_N, and the result comes back as Python
    ints."""
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
    fold = ctx._powers[powers % ctx.n]
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


# ---------------------------------------------------------------------------
# monomial factors: a product of two composes, and a product with a dense
# matrix is the dense kernel; both checked against the object oracle


@st.composite
def _monomial(draw, ctx, n):
    """(rows, exps, den) and the CycloMatrix.monomial they build, with a
    random permutation, exponents of either sign beyond N, and den >= 1."""
    rows = draw(st.permutations(range(n)))
    exps = draw(st.lists(st.integers(-3 * ctx.n, 3 * ctx.n), min_size=n,
                         max_size=n))
    den = draw(st.integers(1, 6))
    return (rows, exps, den), CycloMatrix.monomial(ctx, rows, exps, den)


def _dense_product(a, b):
    return CycloMatrix(a.ctx, a.n, _plane_product(a.ctx, a.planes, b.planes),
                       a.den * b.den)


def _as_object(m):
    return _ObjectMatrix(m.ctx, m.n, m.planes, m.den)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CONDUCTORS), st.integers(0, 5),
       st.sampled_from(_entry_kinds), st.data())
def test_monomial_products_match_the_dense_kernel(conductor, n, entries,
                                                  data):
    # monomial x monomial, dense x monomial and monomial x dense agree with
    # _plane_product and with the object oracle; dense planes are int64, or
    # Python ints beyond int64 (EDGE_ENTRIES), so the bound's fallback runs
    ctx = CycloContext(conductor)
    (rows, exps, den), m = data.draw(_monomial(ctx, n))
    _, k = data.draw(_monomial(ctx, n))
    d = data.draw(_matrix(ctx, n, entries))
    assert m == CycloMatrix.from_zeta_powers(ctx, n, rows, range(n), exps,
                                             den=den)
    for a, b in ((m, k), (d, m), (m, d), (k, d), (d, k)):
        got = a @ b
        assert _agrees(got, _dense_product(a, b))
        assert _agrees(got, _as_object(a) @ _as_object(b))
    assert len((m @ k)._description[0]) == 1
    assert (d @ m)._description is None and (m @ d)._description is None
    # (m k)'s description is the composite: column c of k picks column
    # rows_k[c] of m
    (r, e, _), (s, f, _) = m._description, k._description
    assert (m @ k) == CycloMatrix.monomial(ctx, r[0, s[0]], e[0, s[0]] + f[0],
                                           m.den * k.den)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(CONDUCTORS), st.integers(1, 5), st.data())
def test_sums_and_scalings_of_monomials_are_dense(conductor, n, data):
    ctx = CycloContext(conductor)
    _, m = data.draw(_monomial(ctx, n))
    _, k = data.draw(_monomial(ctx, n))
    c = ctx.zeta_pow(data.draw(st.integers(0, conductor - 1)))
    for x in (m + k, m - k, -m, m.scale(2), m.scale(c)):
        assert x._description is None
        assert _agrees(x @ k, _dense_product(x, k))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(CONDUCTORS), st.integers(1, 4), st.data())
def test_monomial_products_leave_int64_beyond_the_bound(conductor, n,
                                                        data):
    # int64 entries of one sign at or near 2^63 - 1 on every plane, times a
    # monomial: folding x^(d + e) mod Phi_N adds several of them, past int64,
    # unless every exponent keeps the planes below the degree
    ctx = CycloContext(conductor)
    top = 2 ** 63 - 1 - data.draw(st.integers(0, 3))
    planes = np.full((ctx.degree, n, n), data.draw(st.sampled_from(
        [1, -1])) * top, dtype=np.int64)
    d = CycloMatrix(ctx, n, planes, normalize=False)
    _, m = data.draw(_monomial(ctx, n))
    for a, b in ((d, m), (m, d)):
        assert _agrees(a @ b, _as_object(a) @ _as_object(b))


@pytest.mark.parametrize("rows,exps,den", [
    ([0, 0], [0, 0], 1), ([0, 2], [0, 0], 1), ([-1, 0], [0, 0], 1),
    ([1, 0], [0], 1), ([[0]], [0], 1), (0, [0], 1), ([1, 0], [0, 0], 0),
    ([1, 0], [0, 0], -1)])
def test_monomial_rejects_what_is_not_a_monomial(rows, exps, den):
    with pytest.raises(CycloError):
        CycloMatrix.monomial(CycloContext(8), rows, exps, den)


def test_identity_is_a_monomial():
    ctx = CycloContext(12)
    ident = CycloMatrix.identity(ctx, 3)
    rows, exps, scale = ident._description
    assert rows.tolist() == [[0, 1, 2]] and exps.tolist() == [[0, 0, 0]]
    assert scale == ctx.one()
    assert ident == CycloMatrix.from_entries(
        ctx, [[int(i == j) for j in range(3)] for i in range(3)])


# ---------------------------------------------------------------------------
# described factors (rows, exps, scale): products computed on their
# exponents, checked against the dense kernel and the object oracle


def _kappa(ctx):
    """kappa of WeilSL2 when N = 4p for an odd prime p, else None."""
    p = ctx.n // 4
    if ctx.n % 4 or p < 3 or any(p % d == 0 for d in range(2, p)):
        return None
    return WeilSL2(HeisenbergRep(SymplecticSpace.standard(p, 1)))._kappa


@st.composite
def _scale(draw, ctx):
    """1 / den, kappa where the conductor is 4p, or a random number whose
    numerator may reach beyond int64."""
    kinds = ["unit", "random"] + (["kappa"] if _kappa(ctx) else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "unit":
        return ctx.from_rational(Fraction(1, draw(st.integers(1, 6))))
    if kind == "kappa":
        return _kappa(ctx)
    return CyclotomicNumber(ctx, tuple(draw(st.lists(
        _mixed, min_size=ctx.degree, max_size=ctx.degree))),
        draw(st.integers(1, 6)))


@st.composite
def _described(draw, ctx, n, k=None):
    """(rows, exps, scale) with k in {1, n} terms per column, the rows of a
    column distinct (a permutation for k = 1), and the matrix they
    describe."""
    k = draw(st.sampled_from([1, n])) if k is None else k
    if k == 1:
        rows = np.array([draw(st.permutations(range(n)))], dtype=np.int64)
    else:
        rows = np.array([draw(st.permutations(range(n))) for _ in range(n)],
                        dtype=np.int64).T.reshape(k, n)
    exps = np.array(draw(st.lists(st.integers(0, ctx.n - 1), min_size=k * n,
                                  max_size=k * n)),
                    dtype=np.int64).reshape(k, n)
    scale = draw(_scale(ctx))
    return ((rows, exps, scale),
            CycloMatrix._described(ctx, rows, exps, scale))


def _oracle_described(ctx, description):
    """The matrix of a description summed term by term into object planes,
    then scaled by the object oracle."""
    rows, exps, scale = description
    n = rows.shape[1]
    terms = CycloMatrix.from_zeta_powers(
        ctx, n, rows, np.broadcast_to(np.arange(n), rows.shape), exps)
    return _as_object(terms).scale(scale)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CONDUCTORS), st.integers(1, 4),
       st.sampled_from(_entry_kinds), st.data())
def test_described_products_match_the_dense_kernel(conductor, n, entries,
                                                   data):
    # described x described composes (one side k = 1) or takes the
    # histogram (both k = n); described x dense is the dense kernel; each
    # agrees with _plane_product and the oracle
    ctx = CycloContext(conductor)
    da, a = data.draw(_described(ctx, n))
    db, b = data.draw(_described(ctx, n))
    d = data.draw(_matrix(ctx, n, entries))
    for desc, m in ((da, a), (db, b)):
        assert _agrees(m, _oracle_described(ctx, desc))
    for x, y in ((a, b), (b, a), (a, a), (a, d), (d, a), (b, d), (d, b)):
        got = x @ y
        assert _agrees(got, _dense_product(x, y))
        assert _agrees(got, _as_object(x) @ _as_object(y))
    # a product keeps a description exactly when it composes
    assert ((a @ b)._description is not None) == (
        min(len(da[0]), len(db[0])) == 1)
    assert (a @ d)._description is None and (d @ a)._description is None


def _eager_gather(ctx, rows, exps, scale):
    """A described matrix as _described built it while it kept planes: one
    gather of scale's table, normalised by the constructor only when the
    matrix is empty."""
    n = rows.shape[1]
    table = ctx._scale_table(scale)
    planes = np.zeros((ctx.degree, n, n), dtype=table.dtype)
    planes[:, rows, np.arange(n)] = table.take(exps, 0).transpose(2, 0, 1)
    return CycloMatrix(ctx, n, planes, scale.den, normalize=not n)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CONDUCTORS), st.integers(0, 4), st.data())
def test_planes_built_on_read_match_the_eager_gather(conductor, n, data):
    # a described matrix keeps no planes: each read gathers them anew
    ctx = CycloContext(conductor)
    desc, m = data.draw(_described(ctx, n))
    want = _eager_gather(ctx, *desc)
    assert _agrees(m, want) and _agrees(m, _oracle_described(ctx, desc))
    assert m._planes is None and m.planes is not m.planes
    assert m.trace() == want.trace() == _as_object(want).trace()
    assert all(m.entry(i, j) == want.entry(i, j)
               for i in range(n) for j in range(n))


@st.composite
def _twin(draw, ctx, description):
    """Another description built from description (rows, exps, scale): the
    terms of every column in a drawn order, then one edit: none, one
    exponent moved by N/2 (a sign where N is even), one term moved to
    another row, another scale, or the scale negated with every exponent
    moved by N/2."""
    rows, exps, scale = description
    k, n = rows.shape
    order = np.array([draw(st.permutations(range(k))) for _ in range(n)],
                     dtype=np.int64).T.reshape(k, n)
    rows, exps = (np.take_along_axis(x, order, 0) for x in (rows, exps))
    edits = ["none", "scale", "negate"] + (["half", "row"] if n else [])
    edit = draw(st.sampled_from(edits))
    j = draw(st.integers(0, k - 1)) if n else 0
    c = draw(st.integers(0, n - 1)) if n else 0
    if edit == "half":
        exps[j, c] = (exps[j, c] + ctx.n // 2) % ctx.n
    elif edit == "row":
        # another row of the column: a free one, or another term's (swap)
        r = draw(st.sampled_from([x for x in range(n) if x != rows[j, c]]
                                 or [rows[j, c]]))
        rows[rows[:, c] == r, c] = rows[j, c]
        rows[j, c] = r
    elif edit == "scale":
        scale = draw(_scale(ctx))
    elif edit == "negate":
        scale, exps = -scale, (exps + ctx.n // 2) % ctx.n
    return (rows, exps, scale), CycloMatrix._described(ctx, rows, exps, scale)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(CONDUCTORS), st.integers(0, 4), st.data())
def test_description_equality_matches_plane_equality(conductor, n, data):
    # k = 1 and k = n terms per column, with n = 0 too; two descriptions of
    # one nonzero scale compare their (row, exponent) pairs, whatever the
    # order of the terms in a column, and every other pair compares planes;
    # the object oracle decides, against a twin and against an independent
    # description, which may have another k
    ctx = CycloContext(conductor)
    da, a = data.draw(_described(ctx, n))
    for db, b in (data.draw(_twin(ctx, da)), data.draw(_described(ctx, n))):
        want = _oracle_described(ctx, da) == _oracle_described(ctx, db)
        assert (a == b) == (b == a) == want
        if da[2] == db[2] and not da[2].is_zero():
            assert _same_terms(da, db) == _same_terms(db, da) == want


def test_descriptions_of_scale_zero_compare_planes():
    # every entry of a description of scale 0 is 0, whatever its terms, so
    # two of them are equal though their (row, exponent) pairs differ
    ctx = CycloContext(8)
    a, b = (CycloMatrix._described(ctx, np.array([rows]), np.array([exps]),
                                   ctx.zero())
            for rows, exps in (([0, 1], [0, 1]), ([1, 0], [3, 2])))
    assert a == b == CycloMatrix.zeros(ctx, 2)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(CONDUCTORS), st.integers(2, 4), st.data())
def test_histogram_fold_leaves_int64_at_the_bound(conductor, n, data):
    # every term of two full-grid descriptions has exponent 0, so entry
    # (r, c) of the product is n x y: past int64 for x y > 2^62, on the
    # rational route (x y rational) and on the table route (x zeta y)
    ctx = CycloContext(conductor)
    top = 2 ** 62 + data.draw(st.integers(1, 3))
    sign = data.draw(st.sampled_from([1, -1]))
    power = data.draw(st.sampled_from([0, 1]))
    scales = ctx.zeta_pow(power) * (sign * top), ctx.one()
    rows = np.array([data.draw(st.permutations(range(n)))
                     for _ in range(n)]).T
    a, b = (CycloMatrix._described(ctx, rows, np.zeros((n, n), dtype=int), s)
            for s in scales)
    for x, y in ((a, b), (b, a)):
        got = x @ y
        assert got._description is None
        assert _agrees(got, _as_object(x) @ _as_object(y))
        assert got.planes.dtype == object
        assert abs(got.entry(0, 0).num[power]) == n * top


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(CONDUCTORS), st.data())
def test_scale_tables_are_primitive_over_their_denominator(conductor, data):
    # the premise of _described's skipped gcd: zeta^e is a unit of Z[zeta],
    # so every row of a scale's table has the content of its numerator
    ctx = CycloContext(conductor)
    scale = data.draw(_scale(ctx))
    table = ctx._scale_table(scale)
    assert table.shape == (ctx.n, ctx.degree)
    for e in range(ctx.n):
        row = [int(x) for x in table[e]]
        assert CyclotomicNumber(ctx, row, scale.den) == (
            scale * ctx.zeta_pow(e))
        content = 0
        for x in row:
            content = gcd(content, x)
        assert gcd(content, scale.den) == 1


def _refuse_the_dense_kernel(monkeypatch):
    """Make _plane_product, CycloMatrix.__add__, __neg__ and scale raise."""
    from heckeforge import cyclo
    for owner, name in ((cyclo, "_plane_product"), (CycloMatrix, "__add__"),
                        (CycloMatrix, "__neg__"), (CycloMatrix, "scale")):
        def refuse(*args, name=name):
            raise AssertionError(f"reached {name}")
        monkeypatch.setattr(owner, name, refuse)


def test_kappa_products_skip_the_plane_kernel(monkeypatch):
    # omega(g) omega(h) for cells with c != 0, and their products with
    # Heisenberg operators, never reach _plane_product, nor a sum, negation
    # or scaling of matrices
    rep = HeisenbergRep(SymplecticSpace.standard(5, 1))
    w = WeilSL2(rep)
    g, h = ((1, 2), (3, 2)), ((0, 4), (1, 0))
    rho = rep.operator(HeisenbergElement(rep.space, (1, 3), 2))
    want = [_dense_product(w(g), w(h)), _dense_product(w(g), rho),
            _dense_product(rho, w(h))]
    _refuse_the_dense_kernel(monkeypatch)
    assert [w(g) @ w(h), w(g) @ rho, rho @ w(h)] == want
    assert w(g) @ w(h) == w(((2, 4), (2, 2)))


# ---------------------------------------------------------------------------
# the one reducer of zeta-power counts (_counted), and the build it replaced


def _oracle_from_zeta_powers(ctx, n, rows, cols, exps, den=1):
    """from_zeta_powers as it was before the reducer: one np.add.at of the
    rows x^(e mod N) mod Phi_N into the planes."""
    rows, cols, exps = (np.asarray(x, dtype=np.int64).ravel()
                        for x in (rows, cols, exps))
    dtype = (np.int64 if ctx._powers_extent * len(exps) < 2 ** 63
             else object)
    planes = np.zeros((ctx.degree, n, n), dtype=dtype)
    np.add.at(planes, (slice(None), rows, cols),
              ctx._powers[exps % ctx.n].T.astype(dtype, copy=False))
    return CycloMatrix(ctx, n, planes, den)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CONDUCTORS), st.integers(0, 4), st.data())
def test_from_zeta_powers_matches_the_add_at_oracle(conductor, n, data):
    # repeated positions, exponents of either sign beyond N, den 1 .. 6 and
    # the empty matrix
    ctx = CycloContext(conductor)
    entries = []
    if n:
        index = st.integers(0, n - 1)
        entries = data.draw(st.lists(st.tuples(
            index, index, st.integers(-3 * conductor, 3 * conductor)),
            max_size=3 * n * n))
        if entries:
            entries += data.draw(st.lists(st.sampled_from(entries),
                                          min_size=1, max_size=4))
    rows, cols, exps = (np.array([e[i] for e in entries], dtype=np.int64)
                        for i in range(3))
    den = data.draw(st.integers(1, 6))
    got = CycloMatrix.from_zeta_powers(ctx, n, rows, cols, exps, den)
    assert _agrees(got, _oracle_from_zeta_powers(ctx, n, rows, cols, exps,
                                                 den))
    assert got._description is None


@pytest.mark.parametrize("rows,cols", [([2], [0]), ([0], [2]), ([-1], [0]),
                                       ([0, 1], [1, -1])])
def test_from_zeta_powers_refuses_a_position_outside_the_matrix(rows, cols):
    # a bincount over r n + c would read column n as the next row's first
    with pytest.raises(CycloError, match="outside the matrix"):
        CycloMatrix.from_zeta_powers(CycloContext(8), 2, rows, cols,
                                     [0] * len(rows))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CONDUCTORS), st.integers(1, 4), st.data())
def test_counted_sums_stay_exact_near_the_bound(conductor, terms, data):
    # `terms` counts of one zeta^e times a scale near 2^62 / terms: each
    # reduction, and the sum of two, is exact, in int64 below the bound and
    # on Python ints past it
    ctx = CycloContext(conductor)
    e = data.draw(st.integers(0, conductor - 1))
    hist = np.zeros((conductor, 1), dtype=np.int64)
    hist[e] = terms
    top = data.draw(st.sampled_from([1, -1])) * (
        2 ** 62 // terms + data.draw(st.integers(-2, 2)))
    scale = ctx.zeta_pow(data.draw(st.sampled_from([0, 1]))) * top
    want = list((scale * ctx.zeta_pow(e) * terms).num)
    got = _counted(ctx, hist, scale, terms)
    assert [int(x) for x in got[:, 0]] == want
    assert [int(x) for x in (got + got)[:, 0]] == [2 * x for x in want]


# ---------------------------------------------------------------------------
# numbers, conjugates, zeta powers and scale tables reduce through _counted;
# _oracle_reduce, long division by Phi_N, is the independent oracle

REDUCER_CONDUCTORS = [3, 4, 5, 8, 12, 20, 28, 44, 52]


def _number(ctx, entries):
    return st.builds(CyclotomicNumber, st.just(ctx),
                     st.lists(entries, min_size=ctx.degree,
                              max_size=ctx.degree).map(tuple),
                     st.integers(1, 6))


def _as_oracle(ctx, coeffs, den):
    want = CyclotomicNumber(ctx, _oracle_reduce(ctx, coeffs), den)
    return want.num, want.den


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(REDUCER_CONDUCTORS), st.data())
def test_numbers_and_conjugates_match_long_division(conductor, data):
    # entries reach beyond int64 (EDGE_ENTRIES), so both the int64 counts
    # and the Python-int counts are reduced
    ctx = CycloContext(conductor)
    a, b = (data.draw(_number(ctx, _mixed)) for _ in range(2))
    conv = [0] * (2 * ctx.degree)
    for i, x in enumerate(a.num):
        for j, y in enumerate(b.num):
            conv[i + j] += x * y
    got = a * b
    assert (got.num, got.den) == _as_oracle(ctx, conv, a.den * b.den)
    assert all(type(x) is int for x in got.num)
    k = data.draw(st.sampled_from(
        [k for k in range(1, conductor) if gcd(k, conductor) == 1]))
    image = [0] * conductor
    for j, x in enumerate(a.num):
        image[j * k % conductor] += x
    got = ctx.galois(a, k)
    assert (got.num, got.den) == _as_oracle(ctx, image, a.den)
    assert all(type(x) is int for x in got.num)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(REDUCER_CONDUCTORS), st.data())
def test_zeta_powers_and_scale_tables_match_long_division(conductor, data):
    # exponents of both signs beyond N; every row of a scale's table, the
    # scale's numerator reaching beyond int64
    ctx = CycloContext(conductor)
    j = data.draw(st.integers(-3 * conductor, 3 * conductor))
    got = ctx.zeta_pow(j)
    assert (got.num, got.den) == _as_oracle(ctx, [0] * (j % conductor) + [1],
                                            1)
    scale = data.draw(_scale(ctx))
    table = ctx._scale_table(scale)
    for e in range(conductor):
        assert tuple(int(x) for x in table[e]) == _oracle_reduce(
            ctx, [0] * e + list(scale.num))


def test_numbers_conjugates_and_scale_tables_reduce_through_counted(
        monkeypatch):
    from heckeforge import cyclo
    ctx = CycloContext(20)
    a = ctx.zeta_pow(3) + ctx.from_rational(Fraction(2, 3))
    calls = []

    def spy(*args):
        calls.append(args[2])
        return counted(*args)
    counted = cyclo._counted
    monkeypatch.setattr(cyclo, "_counted", spy)
    CycloContext._scale_table.cache_clear()
    for run in (lambda: a * a, lambda: ctx.galois(a, 3),
                lambda: ctx._scale_table(a)):
        calls.clear()
        run()
        assert len(calls) == 1 and calls[0] == ctx.one()


def test_product_with_zero_of_a_number_beyond_int64():
    # the 1-norm product is 0, but the entry -2^63 - 1 fits no int64
    ctx = CycloContext(3)
    big = CyclotomicNumber(ctx, (0, -2 ** 63 - 1), 1)
    zero = CyclotomicNumber(ctx, (0, 0), 1)
    assert (big * zero).num == (zero * big).num == (0, 0)
