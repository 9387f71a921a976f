"""Exact arithmetic in Q(zeta_N) and matrices over it.

Numbers are integer coefficient vectors in the power basis of the N-th
cyclotomic polynomial together with a positive common denominator, so all
representation-theoretic identities are checked with zero tolerance.
Matrices keep one integer numpy plane per basis power, stored as int64
when every entry fits and as an object array of Python ints otherwise; the
dtype is the only flag.  A product of two matrices, or of a matrix by a
scalar, is one stacked integer matrix product of all nonzero planes; its
blocks are summed by i + j and folded into the output planes by x^(i+j) mod
Phi_N.  Every operation runs in int64 only when an exact bound rules out
overflow, and on Python ints otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

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


def _euler_phi(n):
    result = n
    d = 2
    m = n
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


class CycloContext:
    """Q(zeta_N) presented as Q[x]/Phi_N(x)."""

    def __init__(self, conductor):
        self.n = conductor
        self.degree = _euler_phi(conductor)
        phi = cyclotomic_polynomial(conductor)
        assert len(phi) == self.degree + 1 and phi[-1] == 1
        self.phi = phi
        # canonical vectors for x^k, k = 0 .. n-1 (covers reduction and
        # arbitrary zeta powers)
        table = []
        cur = [0] * self.degree
        cur[0] = 1
        table.append(tuple(cur))
        for _ in range(1, max(self.n, 2 * self.degree)):
            nxt = [0] * (self.degree + 1)
            for i, c in enumerate(cur):
                nxt[i + 1] = c
            if nxt[self.degree]:
                lead = nxt[self.degree]
                for i in range(self.degree):
                    nxt[i] -= lead * phi[i]
            cur = nxt[:self.degree]
            table.append(tuple(cur))
        self.power_table = table
        # row s is x^s mod Phi_N for s < 2N: the products of planes i and j
        # with i + j = s add row[d] times their sum to plane d
        self._powers = np.array(table[:self.n] * 2, dtype=np.int64)
        self._powers_extent = _extent(self._powers)

    def __eq__(self, other):
        return isinstance(other, CycloContext) and self.n == other.n

    def __hash__(self):
        return hash(("CycloContext", self.n))

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

    def zeta_pow(self, j):
        return CyclotomicNumber(self, self.power_table[j % self.n], 1)

    def reduce(self, coeffs):
        """Reduce an overlong integer coefficient list mod Phi_N."""
        half = self.n // 2
        if self.n % 2 == 0 and half < len(coeffs) <= self.n:
            # zeta^{N/2} = -1 folds the top half down without the table
            folded = list(coeffs[:half])
            for k, c in enumerate(coeffs[half:]):
                folded[k] -= c
            coeffs = folded
        out = list(coeffs[:self.degree]) + [0] * (self.degree - len(coeffs))
        for k in range(self.degree, len(coeffs)):
            c = coeffs[k]
            if c:
                row = self.power_table[k]
                for i in range(self.degree):
                    out[i] += c * row[i]
        return tuple(out)

    def galois(self, a, k):
        """The automorphism zeta -> zeta^k (k coprime to N)."""
        if gcd(k, self.n) != 1:
            raise CycloError("galois exponent must be coprime to N")
        num = [0] * self.degree
        for j, c in enumerate(a.num):
            if c:
                row = self.power_table[(j * k) % self.n]
                for i in range(self.degree):
                    num[i] += c * row[i]
        return CyclotomicNumber(self, tuple(num), a.den)


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
        deg = self.ctx.degree
        conv = [0] * (2 * deg - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num):
                    if b:
                        conv[i + j] += a * b
        return CyclotomicNumber(self.ctx, self.ctx.reduce(conv),
                                self.den * other.den)

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

    def abs_squared(self):
        return self * self.conj()

    def is_zero(self):
        return all(c == 0 for c in self.num)

    def is_rational(self):
        return all(c == 0 for c in self.num[1:])

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


def _negated(planes):
    """-planes, on Python ints when an int64 entry is INT64_MIN."""
    if planes.dtype != object and planes.min() == -2 ** 63:
        planes = planes.astype(object)
    return -planes


def _extent(planes):
    """max |entry| as a Python int, read from min and max so that an int64
    minimum is negated only after leaving int64."""
    return max(-int(planes.min()), int(planes.max()))


def _plane_product(ctx, a, b):
    """The planes of sum_{i,j} (a[i] @ b[j]) x^(i+j), reduced mod Phi_N.

    a has shape (deg, r, k) and b (deg, k, c), with integer entries.  The
    products of all nonzero planes of a with all nonzero planes of b are one
    stacked (L r) x k by k x (R c) matrix product.  The blocks are summed by
    i + j, and one product with the rows x^(i+j) mod Phi_N sends those sums
    to the deg output planes.  This runs in int64 when an exact bound shows
    that no partial sum can overflow (an object operand has an entry beyond
    int64, which breaks the bound), and on Python ints otherwise.
    """
    deg, r, k = a.shape
    c = b.shape[2]
    left, right = _nonzero_planes(a), _nonzero_planes(b)
    if not len(left) or not len(right):
        return np.zeros((deg, r, c), dtype=np.int64)
    sums = (left[:, None] + right).ravel()
    counts = np.bincount(sums)
    powers = np.flatnonzero(counts)
    counts = counts[powers]
    fold = ctx._powers[powers]
    # max|a| max|b| k max_d sum_{i in L, j in R} |x^(i+j)|_d bounds every
    # partial sum of the fold, and of the block sums by i + j too, since
    # every x^s has a coefficient of size at least 1
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
        # sum the blocks by i + j; with one plane on either side the sums
        # are distinct and already in increasing order
        order = np.argsort(sums, kind="stable")
        blocks = np.add.reduceat(blocks[order], np.cumsum(counts) - counts,
                                 axis=0)
    return (fold.T @ blocks).reshape(deg, r, c)


class CycloMatrix:
    """A square matrix over Q(zeta_N): one integer plane per basis power,
    over a positive common denominator."""

    __slots__ = ("ctx", "n", "planes", "den")

    def __init__(self, ctx, n, planes, den=1, normalize=True):
        self.ctx = ctx
        self.n = n
        # (degree, n, n): int64 when every entry fits, else Python ints
        self.planes = _int64_if_fits(planes)
        self.den = den
        if normalize:
            self._normalize()

    def _normalize(self):
        if self.den < 0:
            self.planes = _int64_if_fits(_negated(self.planes))
            self.den = -self.den
        if self.den == 1:
            return
        # np.gcd returns 2^63 as INT64_MIN, which math.gcd reads as 2^63
        g = gcd(self.den, int(np.gcd.reduce(self.planes, axis=None)))
        if g > 1:
            planes = self.planes if g < 2 ** 63 else self.planes.astype(object)
            self.planes = _int64_if_fits(planes // g)
            self.den //= g

    @classmethod
    def zeros(cls, ctx, n):
        planes = np.zeros((ctx.degree, n, n), dtype=np.int64)
        return cls(ctx, n, planes, 1, normalize=False)

    @classmethod
    def identity(cls, ctx, n):
        return cls.from_zeta_powers(ctx, n, np.arange(n), np.arange(n),
                                    np.zeros(n, dtype=np.int64),
                                    distinct=True)

    @classmethod
    def from_zeta_powers(cls, ctx, n, rows, cols, exps, table=None, den=1,
                         distinct=False):
        """sum zeta^e E_{r,c} / den over the integer arrays rows, cols and
        exps, all of one shape: entries at a repeated position add up, and e
        is read mod N.  table, when given, replaces zeta^e by the number
        whose coefficients are table[e mod N], an (N, degree) integer
        array.  distinct=True promises that no position repeats, so that
        one assignment writes every term."""
        rows, cols, exps = (np.asarray(x, dtype=np.int64).ravel()
                            for x in (rows, cols, exps))
        extent = ctx._powers_extent if table is None else _extent(table)
        terms = (ctx._powers if table is None else table)[exps % ctx.n].T
        # at most len(exps) terms add up at one position
        dtype = np.int64 if extent * len(exps) < 2 ** 63 else object
        planes = np.zeros((ctx.degree, n, n), dtype=dtype)
        if distinct:
            planes[:, rows, cols] = terms
        else:
            np.add.at(planes, (slice(None), rows, cols),
                      terms.astype(dtype, copy=False))
        return cls(ctx, n, planes, den)

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
        if self.ctx != other.ctx or self.n != other.n:
            raise CycloError("matrix context mismatch")
        planes = _plane_product(self.ctx, self.planes, other.planes)
        return CycloMatrix(self.ctx, self.n, planes, self.den * other.den)

    def __add__(self, other):
        if self.ctx != other.ctx or self.n != other.n:
            raise CycloError("matrix context mismatch")
        a, b = self.planes, other.planes
        # (max|a| + 1) other.den + (max|b| + 1) self.den bounds every entry
        # of the sum, and both denominators
        if a.dtype != b.dtype or (
                a.dtype != object and (_extent(a) + 1) * other.den
                + (_extent(b) + 1) * self.den >= 2 ** 63):
            a, b = a.astype(object), b.astype(object)
        return CycloMatrix(self.ctx, self.n, a * other.den + b * self.den,
                           self.den * other.den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return CycloMatrix(self.ctx, self.n, _negated(self.planes), self.den,
                           normalize=False)

    def scale(self, c):
        """Multiply by a scalar (CyclotomicNumber or rational)."""
        if not isinstance(c, CyclotomicNumber):
            c = self.ctx.from_rational(c)
        deg, n = self.ctx.degree, self.n
        # c's coefficients are 1x1 planes acting on the planes viewed as rows
        coeffs = _int64_if_fits(np.array(c.num, dtype=object)
                                ).reshape(deg, 1, 1)
        planes = _plane_product(self.ctx, coeffs,
                                self.planes.reshape(deg, 1, n * n))
        return CycloMatrix(self.ctx, n, planes.reshape(deg, n, n),
                           self.den * c.den)

    def trace(self):
        diagonal = self.planes.diagonal(axis1=1, axis2=2).astype(object)
        return CyclotomicNumber(self.ctx, diagonal.sum(axis=1).tolist(),
                                self.den)

    def conj_transpose(self):
        deg = self.ctx.degree
        planes = np.zeros((deg, self.n, self.n), dtype=object)
        for d, m in enumerate(self.planes.astype(object)):
            if not m.any():
                continue
            row = self.ctx.power_table[(self.ctx.n - d) % self.ctx.n]
            mt = m.T
            for k in range(deg):
                if row[k]:
                    planes[k] = planes[k] + row[k] * mt
        return CycloMatrix(self.ctx, self.n, planes, self.den)

    def first_nonzero(self):
        """Row-major first nonzero entry, or None."""
        for i in range(self.n):
            for j in range(self.n):
                e = self.entry(i, j)
                if not e.is_zero():
                    return i, j, e
        return None

    def is_zero(self):
        return not self.planes.any()

    def __eq__(self, other):
        if not isinstance(other, CycloMatrix):
            return NotImplemented
        if self.ctx != other.ctx or self.n != other.n:
            return False
        return self.den == other.den and bool(
            (self.planes == other.planes).all())

    def __hash__(self):
        raise TypeError("CycloMatrix is unhashable")

    def proportional_to(self, other):
        """Return the scalar c with self == other.scale(c), or None."""
        fnz = other.first_nonzero()
        if fnz is None:
            return None if not self.is_zero() else self.ctx.one()
        i, j, e = fnz
        c = self.entry(i, j) / e
        return c if self == other.scale(c) else None
