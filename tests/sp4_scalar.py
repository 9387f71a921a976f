"""The per-matrix model of SL_2(F_q[t]/(t^N)), the oracle of sp4oracle's
stacked code arrays: a series is the tuple of the F_q codes of its
coefficients, a matrix is four series, and the Bruhat decomposition, the
sign character and phi work on one matrix at a time.  Not a test module;
the tests import it."""

import numpy as np

from heckeforge import OracleError, SignValue, sgn
from heckeforge.ffield import FqElement


def series(ctx, coeffs):
    return TruncSeries(ctx, coeffs)


def one(ctx):
    return series(ctx, [1])


class TruncSeries:
    """c_0 + c_1 t + ... + c_{N-1} t^{N-1} over F_q, stored as the tuple of
    the F_q codes of its coefficients and computed on through the field's
    code arithmetic."""

    def __init__(self, ctx, coeffs):
        fq = ctx.fq
        codes = [c.code if isinstance(c, FqElement) else fq.elem(c).code
                 for c in coeffs[:ctx.trunc]]
        self.ctx = ctx
        self.codes = tuple(codes + [0] * (ctx.trunc - len(codes)))

    @classmethod
    def _of(cls, ctx, codes):
        """The series with these codes; no coercion."""
        out = object.__new__(cls)
        out.ctx, out.codes = ctx, tuple(codes)
        return out

    @property
    def coeffs(self):
        return tuple(FqElement(self.ctx.fq, c) for c in self.codes)

    def __add__(self, other):
        add = self.ctx.fq._arith.add
        return TruncSeries._of(self.ctx, map(add, self.codes, other.codes))

    def __sub__(self, other):
        sub = self.ctx.fq._arith.sub
        return TruncSeries._of(self.ctx, map(sub, self.codes, other.codes))

    def __neg__(self):
        return TruncSeries._of(self.ctx, map(self.ctx.fq._arith.neg,
                                             self.codes))

    def __mul__(self, other):
        ar = self.ctx.fq._arith
        n = self.ctx.trunc
        out = [0] * n
        for i, x in enumerate(self.codes):
            for j in range(n - i):
                out[i + j] = ar.add(out[i + j], ar.mul(x, other.codes[j]))
        return TruncSeries._of(self.ctx, out)

    def val(self):
        """t-adic valuation (trunc for the zero series)."""
        return next((i for i, c in enumerate(self.codes) if c),
                    self.ctx.trunc)

    def is_unit(self):
        return self.codes[0] != 0

    def is_zero(self):
        return not any(self.codes)

    def inv(self):
        if not self.codes[0]:
            raise OracleError("non-unit series")
        ar = self.ctx.fq._arith
        a = self.codes
        out = [ar.inv(a[0])]
        for k in range(1, self.ctx.trunc):
            acc = 0
            for i in range(1, k + 1):
                acc = ar.add(acc, ar.mul(a[i], out[k - i]))
            out.append(ar.mul(ar.neg(out[0]), acc))
        return TruncSeries._of(self.ctx, out)

    def residue(self):
        """The image in F_q = O/(t)."""
        return FqElement(self.ctx.fq, self.codes[0])

    def __eq__(self, other):
        return self.codes == other.codes and self.ctx == other.ctx


class Mat2:
    """An element of SL_2(F_q[t]/(t^N)); the constructor checks
    ad - bc = 1."""

    def __init__(self, ctx, a, b, c, d):
        def co(x):
            if isinstance(x, TruncSeries):
                if x.ctx != ctx:
                    raise OracleError("context mismatch")
                return x
            return series(ctx, x if isinstance(x, (list, tuple)) else [x])
        self.ctx = ctx
        self.a, self.b, self.c, self.d = co(a), co(b), co(c), co(d)
        if self.a * self.d - self.b * self.c != one(ctx):
            raise OracleError("determinant must be 1")

    @classmethod
    def identity(cls, ctx):
        return cls(ctx, 1, 0, 0, 1)

    def __mul__(self, other):
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = other.a, other.b, other.c, other.d
        return Mat2(self.ctx, a * e + b * g, a * f + b * h,
                    c * e + d * g, c * f + d * h)

    def inv(self):
        return Mat2(self.ctx, self.d, -self.b, -self.c, self.a)

    def __eq__(self, other):
        return ((self.a, self.b, self.c, self.d)
                == (other.a, other.b, other.c, other.d))


def stack(mats):
    """The matrices as an int64 array of codes of shape (R, 2, 2, N)."""
    return np.array([[[m.a.codes, m.b.codes], [m.c.codes, m.d.codes]]
                     for m in mats], dtype=np.int64)


def unstack(ctx, g):
    """The matrices of a stack of codes, each checked to have
    determinant 1."""
    return [Mat2(ctx, *(TruncSeries._of(ctx, e) for row in m for e in row))
            for m in g.tolist()]


def weyl_s(ctx):
    return Mat2(ctx, 0, 1, -1, 0)


def upper_u(ctx, x):
    return Mat2(ctx, 1, x, 0, 1)


def coroot(ctx, u):
    """alpha_2-vee(u) = diag(u, u^{-1}) for a unit u of F_q."""
    u = series(ctx, [u])
    return Mat2(ctx, u, 0, 0, u.inv())


def iwahori_member(g):
    """val pattern (unit, integral; positive, unit)."""
    return g.a.is_unit() and g.d.is_unit() and g.c.val() >= 1


def bruhat_decompose(g):
    """("InI", g) when g lies in the Iwahori subgroup, else
    ("IsI", (k1, k2)) with g = k1 . s . k2, k1, k2 in I."""
    ctx = g.ctx
    if g.c.val() >= 1:
        if not iwahori_member(g):
            raise OracleError("matrix escapes both cells")
        return ("InI", g)
    cinv = g.c.inv()
    k1 = Mat2(ctx, -one(ctx), -(g.a * cinv), 0, -one(ctx))
    k2 = Mat2(ctx, g.c, g.d, 0, cinv)
    return ("IsI", (k1, k2))


def epsilon_char(k, twist):
    """The mu_2-character of the Iwahori subgroup: trivial, or the sign of
    the reduced upper-left entry."""
    if twist not in ("trivial", "sign"):
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
