"""The Iwahori-Hecke convolution oracle for the SL_2 block
over F_q[t]/(t^N): Bruhat decomposition against the Iwahori subgroup, the
sign character on it, and the double-coset convolution (phi * phi) at s and
at e for the trivial and sign-twisted bi-equivariant functions.

The two resulting quadratic relations differ in the linear coefficient
((q-1) vs 0), which is the computational witness that no support-preserving
rescaling can identify the twisted and untwisted algebras.

Mat2, bruhat_decompose, epsilon_char and phi work on one matrix.  The
convolutions run as one batched pass over the q representatives h = u(x)s:
h, h^-1 and h^-1 s are int64 arrays of F_q codes, and phi on all of them
builds k1, k2, checks their determinants and Iwahori membership and reads
epsilon off the field's O(q) lookup tables (FqContext._tables).  The tests
keep the per-x sums over Mat2 and phi as the oracle.
"""

from __future__ import annotations

import random
from functools import lru_cache

import numpy as np

from .ffield import FqContext, FqElement, SignValue, _prime_factors, sgn


class OracleError(ValueError):
    pass


class TruncContext:
    """F_q[t]/(t^N), q odd, N >= 2."""

    def __init__(self, fq_ctx, trunc):
        if fq_ctx.p == 2:
            raise OracleError("q must be odd")
        if trunc < 2:
            raise OracleError("N >= 2 required")
        self.fq = fq_ctx
        self.trunc = trunc
        self._one_codes = (1,) + (0,) * (trunc - 1)

    @classmethod
    def for_q(cls, q, trunc=3):
        """The shared context of F_q[t]/(t^N).  A context is not changed
        after construction (its field builds its tables once, on first
        use), so one per (q, N) serves every caller."""
        return _context_for(cls, q, trunc)

    def series(self, coeffs):
        return TruncSeries(self, coeffs)

    def scalar(self, c):
        return self.series([c])

    @property
    def zero(self):
        return TruncSeries._of(self, (0,) * self.trunc)

    @property
    def one(self):
        return TruncSeries._of(self, self._one_codes)

    @property
    def t(self):
        return self.series([0, 1])

    def __eq__(self, other):
        return self is other or (isinstance(other, TruncContext)
                                 and self.fq == other.fq
                                 and self.trunc == other.trunc)

    def __hash__(self):
        return hash((self.fq, self.trunc))


@lru_cache(maxsize=32)
def _context_for(cls, q, trunc):
    return cls(_field_for(q), trunc)


@lru_cache(maxsize=32)
def _field_for(q):
    """F_q, built once per q: its modulus search and tables are shared by
    every truncation N."""
    return FqContext(*_prime_power(q))


def _prime_power(q):
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise OracleError(f"{q} is not a prime power")
    p, m = primes[0], 0
    while q > 1:
        q //= p
        m += 1
    return p, m


class TruncSeries:
    """c_0 + c_1 t + ... + c_{N-1} t^{N-1} over F_q, stored as the tuple of
    the F_q codes of its coefficients and computed on through the field's
    code arithmetic."""

    __slots__ = ("ctx", "codes")

    def __init__(self, ctx, coeffs):
        fq = ctx.fq
        codes = [c.code if c.__class__ is FqElement and c.ctx is fq
                 else fq.elem(c).code for c in coeffs[:ctx.trunc]]
        codes += [0] * (ctx.trunc - len(codes))
        self.ctx = ctx
        self.codes = tuple(codes)

    @classmethod
    def _of(cls, ctx, codes):
        """The series with these codes, a tuple of length ctx.trunc; no
        coercion."""
        out = object.__new__(cls)
        out.ctx = ctx
        out.codes = codes
        return out

    @property
    def coeffs(self):
        fq = self.ctx.fq
        return tuple(FqElement(fq, c) for c in self.codes)

    def _coerce(self, other):
        if isinstance(other, TruncSeries):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise OracleError("context mismatch")
            return other
        return TruncSeries(self.ctx, [other])

    def __add__(self, other):
        other = self._coerce(other)
        add = self.ctx.fq._arith.add
        return TruncSeries._of(self.ctx, tuple(map(add, self.codes,
                                                   other.codes)))

    def __sub__(self, other):
        other = self._coerce(other)
        sub = self.ctx.fq._arith.sub
        return TruncSeries._of(self.ctx, tuple(map(sub, self.codes,
                                                   other.codes)))

    def __neg__(self):
        return TruncSeries._of(self.ctx, tuple(map(self.ctx.fq._arith.neg,
                                                   self.codes)))

    def __mul__(self, other):
        other = self._coerce(other)
        return TruncSeries._of(self.ctx, _mul_codes(self.ctx, self.codes,
                                                    other.codes))

    def val(self):
        """t-adic valuation (trunc for the zero series)."""
        for i, c in enumerate(self.codes):
            if c:
                return i
        return self.ctx.trunc

    def is_unit(self):
        return self.codes[0] != 0

    def is_zero(self):
        return not any(self.codes)

    def inv(self):
        if not self.codes[0]:
            raise OracleError("non-unit series")
        ar = self.ctx.fq._arith
        add, mul = ar.add, ar.mul
        a = self.codes
        out = [ar.inv(a[0])]
        minus_inv0 = ar.neg(out[0])
        for k in range(1, self.ctx.trunc):
            acc = 0
            for i in range(1, k + 1):
                acc = add(acc, mul(a[i], out[k - i]))
            out.append(mul(minus_inv0, acc))
        return TruncSeries._of(self.ctx, tuple(out))

    def residue(self):
        """The image in F_q = O/(t)."""
        return FqElement(self.ctx.fq, self.codes[0])

    def __eq__(self, other):
        return (isinstance(other, TruncSeries)
                and self.codes == other.codes and self.ctx == other.ctx)

    def __hash__(self):
        return hash((self.ctx, self.codes))

    def __repr__(self):
        if self.is_zero():
            return "0"
        return "(" + " + ".join(f"{c}t^{i}" for i, c in enumerate(self.coeffs)
                                if not c.is_zero()) + ")"


def _mul_codes(ctx, a, b):
    """The truncated product of two code tuples."""
    ar = ctx.fq._arith
    add, mul = ar.add, ar.mul
    n = ctx.trunc
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j in range(n - i):
                y = b[j]
                if y:
                    out[i + j] = add(out[i + j], mul(x, y))
    return tuple(out)


def _pair_codes(ctx, op, x, y, z, w):
    """op(x y, z w) coefficientwise, for code tuples x, y, z, w."""
    return tuple(map(op, _mul_codes(ctx, x, y), _mul_codes(ctx, z, w)))


class Mat2:
    """An element of SL_2(F_q[t]/(t^N)).  The constructor checks
    ad - bc = 1; products and inverses skip the check, since SL_2 is closed
    under both."""

    __slots__ = ("ctx", "a", "b", "c", "d")

    def __init__(self, ctx, a, b, c, d):
        def co(x):
            if isinstance(x, TruncSeries):
                if x.ctx is not ctx and x.ctx != ctx:
                    raise OracleError("context mismatch")
                return x
            return ctx.series(x if isinstance(x, (list, tuple)) else [x])
        self.ctx = ctx
        self.a, self.b, self.c, self.d = co(a), co(b), co(c), co(d)
        if _pair_codes(ctx, ctx.fq._arith.sub, self.a.codes, self.d.codes,
                       self.b.codes, self.c.codes) != ctx._one_codes:
            raise OracleError("determinant must be 1")

    @classmethod
    def _of(cls, ctx, a, b, c, d):
        """The matrix of four series already known to have ad - bc = 1."""
        out = object.__new__(cls)
        out.ctx, out.a, out.b, out.c, out.d = ctx, a, b, c, d
        return out

    @classmethod
    def identity(cls, ctx):
        return cls(ctx, 1, 0, 0, 1)

    def __mul__(self, other):
        ctx = self.ctx
        if other.ctx is not ctx and other.ctx != ctx:
            raise OracleError("context mismatch")
        add = ctx.fq._arith.add
        a, b, c, d = self.a.codes, self.b.codes, self.c.codes, self.d.codes
        e, f, g, h = other.a.codes, other.b.codes, other.c.codes, other.d.codes

        def dot(x, y, z, w):
            return TruncSeries._of(ctx, _pair_codes(ctx, add, x, y, z, w))
        return Mat2._of(ctx, dot(a, e, b, g), dot(a, f, b, h),
                        dot(c, e, d, g), dot(c, f, d, h))

    def inv(self):
        return Mat2._of(self.ctx, self.d, -self.b, -self.c, self.a)

    def __eq__(self, other):
        return (isinstance(other, Mat2) and self.ctx == other.ctx
                and (self.a, self.b, self.c, self.d)
                == (other.a, other.b, other.c, other.d))

    def __hash__(self):
        return hash((self.ctx, self.a, self.b, self.c, self.d))

    def __repr__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


def weyl_s(ctx):
    return Mat2(ctx, 0, 1, -1, 0)


def upper_u(ctx, x):
    return Mat2(ctx, 1, x, 0, 1)


def coroot(ctx, u):
    """alpha_2-vee(u) = diag(u, u^{-1}) for a unit u."""
    u = u if isinstance(u, TruncSeries) else ctx.series([u])
    return Mat2(ctx, u, 0, 0, u.inv())


def iwahori_member(g):
    """val pattern (unit, integral; positive, unit)."""
    return (g.a.is_unit() and g.d.is_unit() and g.c.val() >= 1)


def bruhat_decompose(g):
    """("InI", g) when g lies in the Iwahori subgroup, else
    ("IsI", (k1, k2)) with g = k1 . s . k2, k1, k2 in I."""
    ctx = g.ctx
    if g.c.val() >= 1:
        if not iwahori_member(g):
            raise OracleError("matrix escapes both cells")  # cannot happen
        return ("InI", g)
    cinv = g.c.inv()
    k1 = Mat2(ctx, -ctx.one, -(g.a * cinv), 0, -ctx.one)
    k2 = Mat2(ctx, g.c, g.d, 0, cinv)
    return ("IsI", (k1, k2))


TWISTS = ("trivial", "sign")


def epsilon_char(k, twist):
    """The mu_2-character of the Iwahori subgroup: trivial, or the sign of
    the reduced upper-left entry (trivial on the pro-p part by
    construction)."""
    if twist not in TWISTS:
        raise OracleError(f"unknown twist {twist!r}")
    if not iwahori_member(k):
        raise OracleError("epsilon is only defined on the Iwahori subgroup")
    if twist == "trivial":
        return SignValue(1)
    return sgn(k.a.residue())


def phi(g, twist):
    """The bi-(I, epsilon)-equivariant function supported on IsI with
    phi(s) = 1."""
    cell, data = bruhat_decompose(g)
    if cell != "IsI":
        return 0
    k1, k2 = data
    return int(epsilon_char(k1, twist)) * int(epsilon_char(k2, twist))


# ---------------------------------------------------------------------------
# the convolution as one pass over the q coset representatives h = u(x)s.
# A series is a row of N codes along the last axis of an int64 array, and a
# stack of R matrices is an array of shape (R, 2, 2, N); arrays broadcast,
# so a stack of shape (1, 2, 2, N) serves every row.  The arithmetic is the
# field's lookup tables (FqContext._tables).


def _series_mul(tab, x, y):
    """The truncated products of the series x and y."""
    n = x.shape[-1]
    out = tab.mul(x[..., :1], y)
    for i in range(1, n):
        out[..., i:] = tab.add(out[..., i:],
                               tab.mul(x[..., i:i + 1], y[..., :n - i]))
    return out


def _series_inv(tab, x):
    """The inverses of the series x, whose constant terms are nonzero."""
    out = [tab.inv(x[..., 0])]
    minus_inv0 = tab.neg(out[0])
    for k in range(1, x.shape[-1]):
        acc = tab.mul(x[..., 1], out[k - 1])
        for i in range(2, k + 1):
            acc = tab.add(acc, tab.mul(x[..., i], out[k - i]))
        out.append(tab.mul(minus_inv0, acc))
    return np.stack(out, axis=-1)


def _stack_mul(tab, g, h):
    """The products g[r] h[r]: all eight entry products at once, then the
    sums over the inner index."""
    terms = _series_mul(tab, g[:, :, :, None], h[:, None])
    return tab.add(terms[:, :, 0], terms[:, :, 1])


def _phi_rows(tab, g, twist):
    """phi on each matrix of the stack g, as bruhat_decompose, epsilon_char
    and phi compute it on one matrix: 0 on InI; on IsI the product of the
    characters of k1 = [[-1, -a/c], [0, -1]] and k2 = [[c, d], [0, 1/c]],
    each checked to have determinant 1 and to lie in I."""
    isi = g[:, 1, 0, 0] != 0
    if not (g[~isi, 0, 0, 0].all() and g[~isi, 1, 1, 0].all()):
        raise OracleError("matrix escapes both cells")
    cells = g[isi]
    (a, _), (c, d) = cells.transpose(1, 2, 0, 3)
    cinv = _series_inv(tab, c)
    one = np.zeros(c.shape[-1], dtype=np.int64)
    one[0] = 1
    k = np.zeros((2,) + cells.shape, dtype=np.int64)
    k[0, :, 0, 0] = k[0, :, 1, 1] = tab.neg(one)
    k[0, :, 0, 1] = tab.neg(_series_mul(tab, a, cinv))
    k[1, :, 0, 0], k[1, :, 0, 1], k[1, :, 1, 1] = c, d, cinv
    # ad and bc, side by side
    terms = _series_mul(tab, k[..., 0, :, :], k[..., 1, ::-1, :])
    if not (tab.sub(terms[..., 0, :], terms[..., 1, :]) == one).all():
        raise OracleError("determinant must be 1")
    if not (k[..., 0, 0, 0].all() and k[..., 1, 1, 0].all()
            and not k[..., 1, 0, 0].any()):
        raise OracleError("epsilon is only defined on the Iwahori subgroup")
    out = np.zeros(len(g), dtype=np.int64)
    if twist == "sign":
        out[isi] = np.where(tab.is_square(k[..., 0, 0, 0]), 1, -1).prod(0)
    else:
        out[isi] = 1
    return out


def _coset_phis(ctx, twist):
    """The rows phi(h), phi(h^-1) and phi(h^-1 s) over the representatives
    h = u(x)s, x in F_q in code order, computed in one pass."""
    if twist not in TWISTS:
        raise OracleError(f"unknown twist {twist!r}")
    tab = ctx.fq._tables
    q = ctx.fq.q
    s = weyl_s(ctx)
    s = np.array([[[s.a.codes, s.b.codes], [s.c.codes, s.d.codes]]],
                 dtype=np.int64)
    u = np.zeros((q, 2, 2, ctx.trunc), dtype=np.int64)
    u[:, 0, 0, 0] = u[:, 1, 1, 0] = 1
    u[:, 0, 1, 0] = np.arange(q)
    h = _stack_mul(tab, u, s)
    # [[d, -b], [-c, a]] for each [[a, b], [c, d]]
    swapped = h[:, ::-1, ::-1].swapaxes(1, 2)
    h_inv = np.where(np.eye(2, dtype=bool)[:, :, None], swapped,
                     tab.neg(swapped))
    stacked = np.concatenate([h, h_inv, _stack_mul(tab, h_inv, s)])
    return _phi_rows(tab, stacked, twist).reshape(3, q)


def convolve_s(twist, q, trunc=3):
    """(phi * phi)(s) = sum over coset representatives u(x)s of
    phi(u(x)s) . phi(s^{-1}u(-x)s); exact integer."""
    phi_h, _, phi_h_inv_s = _coset_phis(TruncContext.for_q(q, trunc), twist)
    return int(phi_h @ phi_h_inv_s)


def convolve_e(twist, q, trunc=3):
    """(phi * phi)(e) over the same coset representatives; exact integer."""
    phi_h, phi_h_inv, _ = _coset_phis(TruncContext.for_q(q, trunc), twist)
    return int(phi_h @ phi_h_inv)


def random_iwahori(ctx, rng):
    fq = ctx.fq
    els = list(fq.elements())
    units = [e for e in els if not e.is_zero()]
    n = ctx.trunc
    a = ctx.series([rng.choice(units)] + [rng.choice(els)
                                          for _ in range(n - 1)])
    b = ctx.series([rng.choice(els) for _ in range(n)])
    c = ctx.series([0] + [rng.choice(els) for _ in range(n - 1)])
    d = (ctx.one + b * c) * a.inv()
    return Mat2(ctx, a, b, c, d)


def welldefinedness_check(q, trunc=3, samples=500, seed=0):
    """phi(k1 s k2) must not depend on the decomposition: build random
    g = k1 s k2 and compare eps(k1)eps(k2) with the value from
    bruhat_decompose, under the sign twist.  Returns (ok, witness)."""
    ctx = TruncContext.for_q(q, trunc)
    s = weyl_s(ctx)
    rng = random.Random(seed)
    for _ in range(samples):
        k1 = random_iwahori(ctx, rng)
        k2 = random_iwahori(ctx, rng)
        g = k1 * s * k2
        built = int(epsilon_char(k1, "sign")) * int(epsilon_char(k2, "sign"))
        if phi(g, "sign") != built:
            return False, (k1, k2)
    return True, None


def quadratic_relation(twist, q, trunc=3):
    """The pair (c_e, c_s) with phi * phi = c_e . delta_e + c_s . phi
    (support of phi * phi is {e} + IsI); the twisted and untwisted
    relations differ in the linear coefficient."""
    phi_h, phi_h_inv, phi_h_inv_s = _coset_phis(TruncContext.for_q(q, trunc),
                                                twist)
    return int(phi_h @ phi_h_inv), int(phi_h @ phi_h_inv_s)
