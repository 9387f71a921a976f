"""Exact arithmetic in Q(zeta_N) and matrices over it.

Numbers are integer coefficient vectors in the power basis of the N-th
cyclotomic polynomial together with a positive common denominator, so all
representation-theoretic identities are checked with zero tolerance.
Matrices keep one integer numpy plane per basis power, stored as int64
when every entry fits and as an object array of Python ints otherwise; the
dtype is the only flag.  A monomial, or a matrix whose every entry is a sum
of zeta-powers times one scale (a Weil cell), keeps that description
instead, and builds its planes only when they are read.  A product of two
described matrices is computed on their exponents, and so is their
equality; every other product and scaling is one stacked matrix product
of the planes (_plane_product).  A context keeps one table, the rows x^s
mod Phi_N for s < N, and one reducer (_counted) turns counts of
zeta-powers into coefficients for products of numbers, Galois conjugates,
scale tables, products of described and of dense matrices, scalings,
from_zeta_powers and the induction check.  Scale tables and scale products
are kept in lru_caches.  Products and reductions run in int64 under the
reducer's one exact bound, and on Python ints beyond it.  Sums and
negations run on Python ints, and the constructor brings their planes back
to int64: no Weil or Heisenberg check adds, negates or scales a matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul

import numpy as np


class CycloError(ValueError):
    pass


# ---------------------------------------------------------------------------
# integer polynomial helpers (low degree first)

def _ipoly_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _ipoly_div_exact(a, b):
    """Quotient of a by b for integer polynomials, assuming exact division
    and monic-ish leading coefficient +-1."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        _ipoly_trim(a)
        if len(a) < len(b):
            break
        lead = a[-1] // b[-1]
        shift = len(a) - len(b)
        q[shift] = lead
        for i, c in enumerate(b):
            a[shift + i] -= lead * c
    assert not any(a), "non-exact polynomial division"
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Coefficients of Phi_n, low degree first."""
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _ipoly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


# the products of the scales of described matrices
_product = lru_cache(maxsize=64)(mul)


class CycloContext:
    """Q(zeta_N) presented as Q[x]/Phi_N(x)."""

    def __init__(self, conductor):
        phi = cyclotomic_polynomial(conductor)
        self.n, self.phi, self.degree = conductor, phi, len(phi) - 1
        self._hash = hash(("CycloContext", conductor))
        # row s is x^s mod Phi_N for s < N: x^s is x^(s-1) shifted up, less
        # its top coefficient times Phi_N (which is monic)
        powers = np.zeros((conductor, self.degree), dtype=np.int64)
        powers[0, 0], low = 1, np.array(phi[:-1])
        for s in range(1, conductor):
            powers[s, 1:] = powers[s - 1, :-1]
            powers[s] -= powers[s - 1, -1] * low
        self._powers = powers
        self._powers_extent = _extent(self._powers)
        self._one = self.one()

    @staticmethod
    @lru_cache(maxsize=None)
    def shared(conductor):
        """The context of a conductor, built once: contexts do not change
        after construction."""
        return CycloContext(conductor)

    def __eq__(self, other):
        return isinstance(other, CycloContext) and self.n == other.n

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"CycloContext(Q(zeta_{self.n}))"

    def zero(self):
        return CyclotomicNumber(self, (0,) * self.degree, 1)

    def one(self):
        return self.from_rational(1)

    def from_rational(self, r):
        r = Fraction(r)
        num = [0] * self.degree
        num[0] = r.numerator
        return CyclotomicNumber(self, tuple(num), r.denominator)

    @lru_cache(maxsize=64)
    def _scale_table(self, scale):
        """The read-only (N, deg) table of scale zeta^e over scale.den: row e
        is the numerator of scale zeta^e, whose counts put num_i at
        zeta^(e + i mod N).  zeta^e is a unit of Z[zeta], so every row has
        the content of scale.num, which is prime to scale.den: a gather of
        rows needs no normalisation."""
        n, terms = np.arange(self.n), sum(map(abs, scale.num))
        hist = np.zeros((self.n, self.n),
                        dtype=np.int64 if terms < 2 ** 62 else object)
        hist[(np.arange(self.degree)[:, None] + n) % self.n, n] = np.array(
            scale.num, dtype=hist.dtype)[:, None]
        table = np.ascontiguousarray(
            _int64_if_fits(_counted(self, hist, self._one, terms)).T)
        table.setflags(write=False)
        return table

    def _scale_product(self, a, b):
        """a * b for CyclotomicNumbers of this context, memoised."""
        if a is self._one or b is self._one:
            return b if a is self._one else a
        return _product(a, b)

    def zeta_pow(self, j):
        return CyclotomicNumber(self, self._powers[j % self.n].tolist(), 1)

    def galois(self, a, k):
        """The automorphism zeta -> zeta^k (k coprime to N): a.num[j]
        counts zeta^(j k mod N), at distinct exponents."""
        if gcd(k, self.n) != 1:
            raise CycloError("galois exponent must be coprime to N")
        terms = sum(map(abs, a.num))
        hist = np.zeros(self.n, dtype=np.int64 if terms < 2 ** 62 else object)
        hist[np.arange(self.degree) * k % self.n] = a.num
        return CyclotomicNumber(
            self, _counted(self, hist, self._one, terms).tolist(), a.den)


class CyclotomicNumber:
    """An element of Q(zeta_N): integer numerator vector / denominator."""

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx, num, den):
        if den == 0:
            raise CycloError("zero denominator")
        if den < 0:
            num = tuple(-c for c in num)
            den = -den
        g = den
        for c in num:
            g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            num = tuple(c // g for c in num)
            den //= g
        self.ctx = ctx
        self.num = tuple(num)
        self.den = den

    def _coerce(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.ctx != self.ctx:
                raise CycloError("conductor mismatch")
            return other
        return self.ctx.from_rational(other)

    def __add__(self, other):
        other = self._coerce(other)
        d = self.den * other.den
        num = tuple(a * other.den + b * self.den
                    for a, b in zip(self.num, other.num))
        return CyclotomicNumber(self.ctx, num, d)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return CyclotomicNumber(self.ctx, tuple(-c for c in self.num),
                                self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        ctx = self.ctx
        norms = sum(map(abs, self.num)), sum(map(abs, other.num))
        terms = norms[0] * norms[1]
        # the factors must fit as well: a zero factor makes terms 0
        dtype = np.int64 if max(*norms, terms) < 2 ** 62 else object
        # the convolution counts zeta^s, s < 2 deg - 1 < 2N
        hist = np.zeros(2 * ctx.n, dtype)
        hist[:2 * ctx.degree - 1] = np.convolve(np.array(self.num, dtype),
                                                np.array(other.num, dtype))
        sums = _counted(ctx, hist.reshape(2, ctx.n).sum(axis=0), ctx._one,
                        terms)
        return CyclotomicNumber(ctx, sums.tolist(), self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._coerce(other).inv()

    def inv(self):
        """x^-1 = prod_{k != 1} sigma_k(x) / N(x): the product of the other
        Galois conjugates over the norm, which is rational."""
        if self.is_zero():
            raise CycloError("inversion of zero")
        ctx = self.ctx
        others = ctx.one()
        for k in range(2, ctx.n):
            if gcd(k, ctx.n) == 1:
                others = others * ctx.galois(self, k)
        return others * (1 / (self * others).as_rational())

    def conj(self):
        """Complex conjugation zeta -> zeta^{-1}."""
        return self.ctx.galois(self, self.ctx.n - 1)

    def is_zero(self):
        return all(c == 0 for c in self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def as_rational(self):
        if not self.is_rational():
            raise CycloError("not a rational number")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.from_rational(other)
        return (isinstance(other, CyclotomicNumber)
                and self.ctx == other.ctx
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.ctx, self.num, self.den))

    def __repr__(self):
        return f"Cyclo{self.num}/{self.den}@{self.ctx.n}"


def _nonzero_planes(planes):
    return np.flatnonzero((planes != 0).reshape(len(planes), -1).any(axis=1))


def _int64_if_fits(planes):
    """planes as int64 when every entry fits, else as they are; int64 planes
    are not copied."""
    try:
        return planes.astype(np.int64, copy=False)
    except OverflowError:
        return planes


def _extent(planes):
    """max |entry| as a Python int, read from min and max so that an int64
    minimum is negated only after leaving int64."""
    return max(-int(planes.min()), int(planes.max()))


def _plane_product(ctx, a, b):
    """The planes of sum_{i,j} (a[i] @ b[j]) x^(i+j), reduced mod Phi_N.

    a has shape (deg, r, k) and b (deg, k, c), with integer entries.  The
    products of all nonzero planes of a with all nonzero planes of b are one
    stacked (L r) x k by k x (R c) matrix product.  Its blocks are summed
    into counts of zeta^((i + j) mod N), which _counted reduces.  terms =
    L R k max|a| max|b| bounds the counts of a column and every partial sum
    of the block product, so _counted's bound decides whether the product
    runs in int64 or on Python ints.
    """
    deg, r, k = a.shape
    c = b.shape[2]
    left, right = _nonzero_planes(a), _nonzero_planes(b)
    if not len(left) or not len(right):
        return np.zeros((deg, r, c), dtype=np.int64)
    terms = len(left) * len(right) * k * _extent(a) * _extent(b)
    dtype = np.int64 if terms * ctx._powers_extent < 2 ** 62 else object
    a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
    lhs = a[left].reshape(-1, k)
    rhs = b[right].transpose(1, 0, 2).reshape(k, -1)
    blocks = (lhs @ rhs).reshape(len(left), r, len(right), c)
    counts = np.zeros((ctx.n, r * c), dtype)
    np.add.at(counts, (left[:, None] + right).ravel() % ctx.n,
              blocks.transpose(0, 2, 1, 3).reshape(-1, r * c))
    return _counted(ctx, counts, ctx._one, terms).reshape(deg, r, c)


def _counted(ctx, hist, scale, terms):
    """sum_e hist[e] scale zeta^e, as numerators over scale.den, for an
    (N, R) or (N,) array of counts of the powers zeta^e whose absolute
    values add up to at most `terms` in a column: one column of the
    (deg, R) result per column of counts.
    zeta^(N/2) = -1 folds the counts of even N to N/2 exponents.  x^e is
    the e-th unit vector below the degree, and the rows x^e mod Phi_N past
    it reduce the rest; a rational scale then multiplies by its first
    coefficient.  Any other scale multiplies the folded counts by the rows
    of its table.  terms max|scale.num| max|x^e| (times deg for a table)
    bounds every partial sum; below 2^62, so that two results add up in
    int64, the reduction runs in int64, and on Python ints otherwise."""
    N, deg, num = ctx.n, ctx.degree, scale.num
    if N % 2 == 0:
        hist = hist[:N // 2] - hist[N // 2:]
    if not scale.is_rational():
        table = ctx._scale_table(scale)[:len(hist)].T
        if terms * max(map(abs, num)) * deg * ctx._powers_extent >= 2 ** 62:
            hist, table = hist.astype(object), table.astype(object)
        return table @ hist
    powers = ctx._powers[deg:len(hist)].T
    if terms * abs(num[0]) * ctx._powers_extent >= 2 ** 62:
        hist, powers = hist.astype(object), powers.astype(object)
    sums = hist[:deg] + powers @ hist[deg:]
    return sums if num[0] == 1 else sums * num[0]


def _position_sums(ctx, n, at, scale, terms):
    """The (deg, n, n) planes, over scale.den, of sum scale zeta^e E_rc over
    the flat indices at = (e mod N) n^2 + r n + c, at most `terms` of them
    at one position: one bincount reduced by _counted."""
    hist = np.bincount(at.ravel(), minlength=ctx.n * n * n)
    return _counted(ctx, hist.reshape(ctx.n, n * n), scale, terms).reshape(
        ctx.degree, n, n)


class CycloMatrix:
    """A square matrix over Q(zeta_N): one integer plane per basis power,
    over a positive common denominator.  A matrix built by
    CycloMatrix.monomial, a Weil cell, and a product of two such matrices
    one of which has k = 1 keep their description (rows, exps, scale)
    instead: rows and exps are (k, n) int64 arrays, exps in 0 .. N-1, and
    scale a CyclotomicNumber, and column c holds sum_j scale
    zeta^exps[j, c] at the distinct rows rows[j, c].  Its planes are built
    each time they are read, and not kept.  A monomial has k = 1, rows a
    permutation and scale 1 / den."""

    __slots__ = ("ctx", "n", "den", "_planes", "_description")

    def __init__(self, ctx, n, planes, den=1, normalize=True):
        self.ctx = ctx
        self.n = n
        self.planes = planes
        self.den = den
        if normalize:
            self._normalize()

    @property
    def planes(self):
        """(degree, n, n): int64 when every entry fits, else Python ints;
        a described matrix gathers them from its scale's table on each
        read.  The rows of that table are primitive over scale.den, so the
        planes are normalised unless the matrix is empty."""
        if self._description is None:
            return self._planes
        rows, exps, scale = self._description
        table = self.ctx._scale_table(scale)
        planes = np.zeros((self.ctx.degree, self.n, self.n), table.dtype)
        planes[:, rows, np.arange(self.n)] = table.take(exps, 0).transpose(
            2, 0, 1)
        return _int64_if_fits(planes)

    @planes.setter
    def planes(self, planes):
        self._planes = _int64_if_fits(planes)
        self._description = None

    def _normalize(self):
        if self.den < 0:
            self.planes = -self.planes.astype(object)
            self.den = -self.den
        if self.den == 1:
            return
        # np.gcd returns 2^63 as INT64_MIN, which math.gcd reads as 2^63
        g = gcd(self.den, int(np.gcd.reduce(self.planes, axis=None)))
        if g > 1:
            planes = self.planes if g < 2 ** 63 else self.planes.astype(object)
            self.planes = planes // g
            self.den //= g

    @classmethod
    def zeros(cls, ctx, n):
        planes = np.zeros((ctx.degree, n, n), dtype=np.int64)
        return cls(ctx, n, planes, 1, normalize=False)

    @classmethod
    def identity(cls, ctx, n):
        return cls.monomial(ctx, np.arange(n), np.zeros(n, dtype=np.int64))

    @classmethod
    def monomial(cls, ctx, rows, exps, den=1):
        """The matrix whose column c holds zeta^exps[c] / den at row rows[c],
        for a permutation rows of 0 .. n-1, integer exps (read mod N) and a
        positive den.  It keeps the description (rows, exps mod N, 1 / den),
        which __matmul__ reads."""
        rows = np.array(rows, dtype=np.int64)
        exps = np.asarray(exps, dtype=np.int64) % ctx.n
        n = rows.size
        if (den < 1 or rows.shape != (n,) or exps.shape != (n,)
                or sorted(rows.tolist()) != list(range(n))):
            raise CycloError("a monomial needs a permutation, one exponent "
                             "per column and a positive denominator")
        return cls._described(ctx, rows[None], exps[None], ctx._one if den == 1
                              else ctx.from_rational(Fraction(1, den)))

    @classmethod
    def _described(cls, ctx, rows, exps, scale):
        """The matrix of the description (rows, exps, scale), exps in
        0 .. N-1, which it keeps in place of planes.  Its denominator is
        scale.den, and 1 for the empty matrix, as normalising gives."""
        m = cls.__new__(cls)
        m.ctx, m.n, m._planes = ctx, rows.shape[1], None
        m.den = scale.den if m.n else 1
        m._description = rows, exps, scale
        return m

    @classmethod
    def from_zeta_powers(cls, ctx, n, rows, cols, exps, den=1):
        """sum zeta^e E_{r,c} / den over the integer arrays rows, cols and
        exps, all of one shape, rows and cols in 0 .. n-1: entries at a
        repeated position add up, and e is read mod N."""
        rows, cols, exps = (np.asarray(x, dtype=np.int64)
                            for x in (rows, cols, exps))
        try:
            at = np.ravel_multi_index((exps, rows, cols), (ctx.n, n, n),
                                      mode=("wrap", "raise", "raise"))
        except ValueError:
            raise CycloError("a position lies outside the matrix") from None
        # at most exps.size terms land at one position
        return cls(ctx, n, _position_sums(ctx, n, at, ctx._one, exps.size),
                   den)

    @classmethod
    def from_entries(cls, ctx, entries):
        """entries: list of rows of CyclotomicNumber (or rationals)."""
        n = len(entries)
        den = 1
        coerced = []
        for row in entries:
            crow = []
            for e in row:
                if not isinstance(e, CyclotomicNumber):
                    e = ctx.from_rational(e)
                crow.append(e)
                den = den * e.den // gcd(den, e.den)
            coerced.append(crow)
        planes = np.zeros((ctx.degree, n, n), dtype=object)
        for i, row in enumerate(coerced):
            for j, e in enumerate(row):
                scale = den // e.den
                for d, c in enumerate(e.num):
                    planes[d, i, j] = c * scale
        return cls(ctx, n, planes, den)

    def entry(self, i, j):
        return CyclotomicNumber(self.ctx, self.planes[:, i, j].tolist(),
                                self.den)

    def __matmul__(self, other):
        """The product.  Two described factors multiply on their exponents:
        term i of self's column s[l, c] meets term l of other's column c at
        row r[i, s[l, c]] with exponent e[i, s[l, c]] + f[l, c].  Where
        either factor has one term per column, those terms are the
        product's description; otherwise one histogram counts them
        (_position_sums).  Every other product is the stacked product of
        planes (_plane_product)."""
        if self.ctx != other.ctx or self.n != other.n:
            raise CycloError("matrix context mismatch")
        ctx, n, a, b = self.ctx, self.n, self._description, other._description
        if a is None or b is None:
            return CycloMatrix(ctx, n, _plane_product(ctx, self.planes,
                                                      other.planes),
                               self.den * other.den)
        (r, e, x), (s, f, y) = a, b
        scale = ctx._scale_product(x, y)
        rows, exps, k = r.take(s, 1), e.take(s, 1), len(r) * len(s)
        if len(r) == 1 or len(s) == 1:
            # (k, n) before the add: numpy adds arrays of one rank faster
            rows, exps = rows.reshape(k, n), exps.reshape(k, n)
            exps += f
            exps %= ctx.n
            return CycloMatrix._described(ctx, rows, exps, scale)
        at = np.ravel_multi_index((exps + f, rows, np.arange(n)),
                                  (ctx.n, n, n), mode="wrap")
        # at most k_a k_b terms land at one position
        return CycloMatrix(ctx, n, _position_sums(ctx, n, at, scale, k),
                           scale.den)

    def __add__(self, other):
        if self.ctx != other.ctx or self.n != other.n:
            raise CycloError("matrix context mismatch")
        # on Python ints; the constructor brings the planes back to int64
        a, b = self.planes.astype(object), other.planes.astype(object)
        return CycloMatrix(self.ctx, self.n, a * other.den + b * self.den,
                           self.den * other.den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return CycloMatrix(self.ctx, self.n, -self.planes.astype(object),
                           self.den, normalize=False)

    def scale(self, c):
        """Multiply by a scalar (CyclotomicNumber or rational).  It stays
        public because the tests compare projective intertwiners up to a
        scalar through it."""
        if not isinstance(c, CyclotomicNumber):
            c = self.ctx.from_rational(c)
        deg, n = self.ctx.degree, self.n
        # c's coefficients are 1x1 planes acting on the planes viewed as rows
        coeffs = np.array(c.num, dtype=object).reshape(deg, 1, 1)
        planes = _plane_product(self.ctx, coeffs,
                                self.planes.reshape(deg, 1, n * n))
        return CycloMatrix(self.ctx, n, planes.reshape(deg, n, n),
                           self.den * c.den)

    def trace(self):
        diagonal = self.planes.diagonal(axis1=1, axis2=2).astype(object)
        return CyclotomicNumber(self.ctx, diagonal.sum(axis=1).tolist(),
                                self.den)

    def is_zero(self):
        return not self.planes.any()

    def __eq__(self, other):
        """Equal planes and denominators; two described matrices of one
        nonzero scale compare their terms instead (_same_terms)."""
        if not isinstance(other, CycloMatrix):
            return NotImplemented
        if self.ctx != other.ctx or self.n != other.n:
            return False
        a, b = self._description, other._description
        if (a is not None and b is not None and a[2] == b[2]
                and not a[2].is_zero()):
            return _same_terms(a, b)
        return self.den == other.den and bool(
            (self.planes == other.planes).all())

    def __hash__(self):
        raise TypeError("CycloMatrix is unhashable")


def _same_terms(a, b):
    """Whether the descriptions a and b of one nonzero scale describe the
    same matrix.  Every term is a nonzero entry, at a row of its own in its
    column, so they do exactly when each column has the same (row,
    exponent) pairs: each side's exponents scattered onto an n x n grid,
    -1 where a column has no term, give equal grids."""
    (r, e, _), (s, f, _) = a, b
    n = r.shape[1]
    grids = np.full((2, n, n), -1)
    grids[0, r, np.arange(n)], grids[1, s, np.arange(n)] = e, f
    return bool((grids[0] == grids[1]).all())
