"""Exact arithmetic in F_q for odd q, the quadratic sign character, and
adjunction of a square root of -1.

F_q is F_p[x]/(modulus) for a monic irreducible modulus, and an element is
stored as one integer code, sum c_i p^i over its coefficients c_i.  Prime
fields compute on the code mod p.  Extension fields with q at most
SMALL_FIELD_BOUND look everything up in exp, log and Zech-logarithm tables:
with g primitive, g^i + g^j = g^(i + Z(j - i)) where g^Z(k) = 1 + g^k.
Larger extension fields multiply polynomials.  Elements are immutable.
One table layout (_CodeTables, FqContext._tables), built once per field on
first use from its defining arithmetic, serves arrays of codes in every
field and, as lists, the scalar codes of the small extension fields.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from operator import mul as _int_mul

import numpy as np


class FieldError(ValueError):
    pass


# ---------------------------------------------------------------------------
# polynomial helpers over Z/p (dense coefficient lists, low degree first)

def _poly_trim(f):
    while f and f[-1] == 0:
        f = f[:-1]
    return f


def _poly_mod(f, g, p):
    """Remainder of f by monic g over Z/p."""
    f = list(f)
    dg = len(g) - 1
    while len(f) - 1 >= dg and any(f):
        f = _poly_trim(f)
        if len(f) - 1 < dg:
            break
        c = f[-1]
        shift = len(f) - 1 - dg
        for i, gc in enumerate(g):
            f[shift + i] = (f[shift + i] - c * gc) % p
        f = _poly_trim(f)
    return _poly_trim(f)


def _poly_mulmod(a, b, g, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_mod(out, g, p)


def _poly_powmod(a, e, g, p):
    result = [1]
    base = _poly_mod(a, g, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, g, p)
        base = _poly_mulmod(base, base, g, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        b_monic_inv = pow(b[-1], p - 2, p)
        bm = [(c * b_monic_inv) % p for c in b]
        a, b = b, _poly_mod(a, bm, p)
        a, b = _poly_trim(a), _poly_trim(b)
    return a


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return _poly_trim([(x - y) % p for x, y in zip(a, b)])


def _is_irreducible(modulus, p):
    """Rabin irreducibility test for a monic polynomial over Z/p."""
    m = len(modulus) - 1
    if m < 1 or modulus[-1] != 1:
        return False
    if m == 1:
        return True
    x = [0, 1]
    xq = x
    for _ in range(m):
        xq = _poly_powmod(xq, p, modulus, p)
    if _poly_sub(xq, x, p):
        return False
    for d in _prime_factors(m):
        k = m // d
        xk = x
        for _ in range(k):
            xk = _poly_powmod(xk, p, modulus, p)
        g = _poly_gcd(modulus, _poly_sub(xk, x, p), p)
        if len(_poly_trim(g)) - 1 >= 1:
            return False
    return True


def _least_irreducible(p, m):
    """Deterministic search for the lexicographically least monic irreducible
    polynomial of degree m over Z/p (coefficients compared low degree first).
    The first p^(m-1) candidates have constant term 0, so for m >= 2 they are
    divisible by x and the scan starts past them."""
    if m == 1:
        return (0, 1)
    for idx in range(p ** (m - 1), p ** m):
        coeffs = []
        for i in range(m):
            coeffs.append((idx // p ** (m - 1 - i)) % p)
        cand = coeffs + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise FieldError(f"no irreducible polynomial of degree {m} over F_{p}")


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# integer codes: code = sum c_i p^i, so code order is the order of elements()

# extension fields up to this size get exp/log/Zech tables
SMALL_FIELD_BOUND = 10_000


def _digits(code, p, m):
    """The coefficient tuple (low degree first) of a code."""
    out = []
    for _ in range(m):
        code, c = divmod(code, p)
        out.append(c)
    return tuple(out)


def _code(coeffs, p):
    code = 0
    for c in reversed(coeffs):
        code = code * p + c % p
    return code


def _tonelli_shanks(arith, a):
    """A square root of the nonzero square a (a code) by Tonelli-Shanks, the
    root with the least coefficient tuple."""
    q = arith.q
    s, t = 0, q - 1
    while t % 2 == 0:
        t //= 2
        s += 1
    # deterministic nonsquare search in code order
    z = next(c for c in range(2, q) if not arith.is_square(c))
    mul, pw = arith.mul, arith.pow
    c = pw(z, t)
    x = pw(a, (t + 1) // 2)
    b = pw(a, t)
    m = s
    while b != 1:
        i, b2 = 0, b
        while b2 != 1:
            b2 = mul(b2, b2)
            i += 1
        c2 = pw(c, 2 ** (m - i - 1))
        x = mul(x, c2)
        c = mul(c2, c2)
        b = mul(b, c)
        m = i
    return min(x, arith.neg(x), key=arith.digits)


class _PrimeArith:
    """F_p on the ints 0..p-1."""

    m = 1

    def __init__(self, p):
        self.p = self.q = p

    def digits(self, a):
        return (a,)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def dot(self, u, v):
        return sum(map(_int_mul, u, v)) % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def pow(self, a, e):
        return pow(a, e, self.p)

    def is_square(self, a):
        # Euler's criterion
        return pow(a, (self.p - 1) // 2, self.p) == 1

    def sqrt(self, a):
        return _tonelli_shanks(self, a)


class _PolyArith:
    """F_q on codes through polynomial arithmetic mod the modulus; the path
    for extension fields past SMALL_FIELD_BOUND."""

    def __init__(self, ctx):
        self.p, self.m, self.q = ctx.p, ctx.m, ctx.q
        self.modulus = list(ctx.modulus)

    def digits(self, a):
        return _digits(a, self.p, self.m)

    def add(self, a, b):
        return _code([x + y for x, y in zip(self.digits(a), self.digits(b))],
                     self.p)

    def sub(self, a, b):
        return _code([x - y for x, y in zip(self.digits(a), self.digits(b))],
                     self.p)

    def neg(self, a):
        return _code([-x for x in self.digits(a)], self.p)

    def mul(self, a, b):
        return _code(_poly_mulmod(self.digits(a), self.digits(b),
                                  self.modulus, self.p), self.p)

    def dot(self, u, v):
        acc = 0
        for a, b in zip(u, v):
            acc = self.add(acc, self.mul(a, b))
        return acc

    def pow(self, a, e):
        return _code(_poly_powmod(self.digits(a), e, self.modulus, self.p),
                     self.p)

    def inv(self, a):
        return self.pow(a, self.q - 2)

    def is_square(self, a):
        return self.pow(a, (self.q - 1) // 2) == 1

    def sqrt(self, a):
        return _tonelli_shanks(self, a)


def _primitive(arith):
    """The primitive element of F_q least in code order."""
    n = arith.q - 1
    cofactors = [n // r for r in _prime_factors(n)]
    return next(c for c in range(2, arith.q)
                if all(arith.pow(c, e) != 1 for e in cofactors))


class _CodeTables:
    """The arithmetic of F_q on codes by lookups into tables of size O(q),
    built once per field from its defining arithmetic.  With g the
    primitive element least in code order, n = q - 1 and 2n standing for
    the log of 0: exp[k] = g^(k mod n) for k < 2n and 0 from 2n to 4n, so
    the sum of two logs indexes their product, zero included.  zech is
    indexed by d = log b - log a in [-2n, 2n] (a negative d wraps):
    log(1 + g^d) for |d| < n (2n where 1 + g^d = 0), d where a = 0 and 0
    where b = 0, so a + b = g^(log a + zech[d]) in every case.  The tables
    are read-only int64 arrays, and the same expressions act on arrays of
    codes; scalar() gives the same tables as lists, on which they act on
    int codes and return ints."""

    def __init__(self, arith):
        self.p, self.m, self.q = arith.p, arith.m, arith.q
        n = self.n = self.q - 1
        g = _primitive(arith)
        powers = [1]
        for _ in range(n - 1):
            powers.append(arith.mul(powers[-1], g))
        self.exp = np.zeros(4 * n + 1, dtype=np.int64)
        self.exp[:2 * n] = powers + powers
        self.log = np.full(self.q, 2 * n, dtype=np.int64)
        self.log[powers] = np.arange(n)
        d = np.arange(4 * n + 1)
        d[2 * n + 1:] -= 4 * n + 1
        # log(1 + g^k), which is log 0 = 2n where 1 + g^k = 0
        units = self.log[[arith.add(a, 1) for a in powers]]
        self.zech = np.where(d < -n, d, np.where(d > n, 0, units[d % n]))
        # -g^k = g^(k + n/2)
        self.negs = np.zeros(self.q, dtype=np.int64)
        self.negs[powers] = self.exp[n // 2:n // 2 + n]
        self.squares = self.log % 2 == 0
        self.squares[0] = False
        for table in (self.exp, self.log, self.zech, self.negs,
                      self.squares):
            table.flags.writeable = False

    def scalar(self):
        """The same tables as lists, for int codes."""
        # set one attribute at a time, in __init__'s order: copy.copy would
        # give the view a materialised __dict__, whose attribute lookups run
        # slower on every scalar operation
        view = object.__new__(_CodeTables)
        for name, value in vars(self).items():
            setattr(view, name, value.tolist()
                    if isinstance(value, np.ndarray) else value)
        return view

    def add(self, a, b):
        la = self.log[a]
        return self.exp[la + self.zech[self.log[b] - la]]

    def sub(self, a, b):
        return self.add(a, self.negs[b])

    def neg(self, a):
        return self.negs[a]

    def mul(self, a, b):
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a):
        """The inverses of nonzero codes (0 where a is 0)."""
        return self.exp[self.n - self.log[a]]

    def is_square(self, a):
        """True on the nonzero squares."""
        return self.squares[a]

    # scalar only

    def dot(self, u, v):
        """sum u_i v_i over two sequences of codes."""
        exp, log, zech = self.exp, self.log, self.zech
        acc = 0
        for a, b in zip(u, v):
            if a and b:
                t = exp[log[a] + log[b]]
                la = log[acc]
                acc = exp[la + zech[log[t] - la]]
        return acc

    def digits(self, a):
        return _digits(a, self.p, self.m)

    def pow(self, a, e):
        if a:
            return self.exp[self.log[a] * e % self.n]
        return 0 if e else 1

    def sqrt(self, a):
        x = self.exp[self.log[a] >> 1]
        return min(x, self.negs[x], key=self.digits)


# ---------------------------------------------------------------------------


class FqContext:
    """The field F_q, q = p^m with p an odd prime, presented as
    F_p[x]/(modulus)."""

    def __init__(self, p, m=1, modulus=None):
        if not _is_prime(p) or p == 2:
            raise FieldError(f"p = {p} is not an odd prime")
        if m < 1:
            raise FieldError("extension degree must be >= 1")
        self.p = p
        self.m = m
        if modulus is None:
            modulus = _least_irreducible(p, m)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise FieldError("modulus must be monic of degree m")
            if not _is_irreducible(list(modulus), p):
                raise FieldError("modulus is reducible")
        # a monic linear modulus presents F_p with the codes of (0, 1)
        self.modulus = (0, 1) if m == 1 else modulus
        self.q = p ** m
        self._key = (p, m, self.modulus)
        self._hash = hash(self._key)
        self.zero = FqElement(self, 0)
        self.one = FqElement(self, 1)

    @staticmethod
    def shared(p, m=1):
        """F_{p^m} with its least irreducible modulus, built once per
        (p, m): a context is not changed after construction (its arithmetic
        and tables are built once, on first use), so one serves every
        caller."""
        return _shared_field(p, m)

    @cached_property
    def _arith(self):
        """The code arithmetic, chosen and (for tables) built on first use."""
        if self.m == 1:
            return _PrimeArith(self.p)
        if self.q <= SMALL_FIELD_BOUND:
            return self._tables.scalar()
        return _PolyArith(self)

    @cached_property
    def _tables(self):
        """The table arithmetic on codes (_CodeTables), built on first use
        from the field's defining arithmetic."""
        return _CodeTables(_PrimeArith(self.p) if self.m == 1
                           else _PolyArith(self))

    def __eq__(self, other):
        return self is other or (isinstance(other, FqContext)
                                 and self._key == other._key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.m == 1:
            return f"FqContext(F_{self.p})"
        return f"FqContext(F_{self.p}^{self.m}, modulus={self.modulus})"

    def code(self, value):
        """The code of an element, an integer (constant) or coefficient
        list, with no FqElement built."""
        if isinstance(value, FqElement):
            if value.ctx is not self and value.ctx != self:
                raise FieldError("context mismatch")
            return value.code
        if isinstance(value, int):
            return value % self.p
        coeffs = list(value)
        if len(coeffs) > self.m:
            raise FieldError("too many coefficients")
        return _code(coeffs, self.p)

    def elem(self, value):
        """Build an element from an integer (constant) or coefficient list."""
        code = self.code(value)
        return value if isinstance(value, FqElement) else FqElement(self, code)

    def elements(self):
        """All q elements, in lexicographic coefficient order (the first
        coefficient varies fastest)."""
        for code in range(self.q):
            yield FqElement(self, code)

    def units(self):
        for code in range(1, self.q):
            yield FqElement(self, code)


@lru_cache(maxsize=64)
def _shared_field(p, m):
    return FqContext(p, m)


class FqElement:
    """An element of F_q as its code, sum c_i p^i over the coefficients."""

    __slots__ = ("ctx", "code")

    def __init__(self, ctx, code):
        self.ctx = ctx
        self.code = code

    @property
    def coeffs(self):
        """The reduced coefficient tuple of length m, low degree first."""
        return _digits(self.code, self.ctx.p, self.ctx.m)

    def _check(self, other):
        if not isinstance(other, FqElement):
            return self.ctx.elem(other)
        if other.ctx is not self.ctx and other.ctx != self.ctx:
            raise FieldError("context mismatch")
        return other

    def __add__(self, other):
        ctx = self.ctx
        if other.__class__ is not FqElement or other.ctx is not ctx:
            other = self._check(other)
        return FqElement(ctx, ctx._arith.add(self.code, other.code))

    __radd__ = __add__

    def __sub__(self, other):
        ctx = self.ctx
        if other.__class__ is not FqElement or other.ctx is not ctx:
            other = self._check(other)
        return FqElement(ctx, ctx._arith.sub(self.code, other.code))

    def __neg__(self):
        return FqElement(self.ctx, self.ctx._arith.neg(self.code))

    def __mul__(self, other):
        ctx = self.ctx
        if other.__class__ is not FqElement or other.ctx is not ctx:
            other = self._check(other)
        return FqElement(ctx, ctx._arith.mul(self.code, other.code))

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        return FqElement(self.ctx, self.ctx._arith.pow(self.code, e))

    def inv(self):
        if not self.code:
            raise FieldError("inversion of zero")
        return FqElement(self.ctx, self.ctx._arith.inv(self.code))

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inv()

    def is_zero(self):
        return not self.code

    def __eq__(self, other):
        if isinstance(other, FqElement):
            return self.code == other.code and (self.ctx is other.ctx
                                                or self.ctx == other.ctx)
        if isinstance(other, int):
            return self.code == other % self.ctx.p
        return False

    def __hash__(self):
        return hash((self.ctx._hash, self.code))

    def __repr__(self):
        if self.ctx.m == 1:
            return f"Fq({self.code} mod {self.ctx.p})"
        return f"Fq{self.coeffs}"


class SignValue:
    """Element of {+1, -1}, closed under multiplication."""

    __slots__ = ("value",)

    def __init__(self, value):
        if value not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.value = value

    def __mul__(self, other):
        if isinstance(other, SignValue):
            return SignValue(self.value * other.value)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other
        return isinstance(other, SignValue) and self.value == other.value

    def __hash__(self):
        return hash(("SignValue", self.value))

    def __int__(self):
        return self.value

    def __repr__(self):
        return "+1" if self.value == 1 else "-1"


def sgn(a):
    """The quadratic-residue character of F_q^x: +1 on squares, -1 otherwise."""
    if not a.code:
        raise FieldError("sgn of zero")
    return SignValue(1 if a.ctx._arith.is_square(a.code) else -1)


def square_root(a):
    """A square root of a with a deterministic tie-break (least coefficient
    tuple), or None if a is a nonsquare.  square_root(0) = 0."""
    ctx = a.ctx
    if not a.code:
        return ctx.zero
    arith = ctx._arith
    if not arith.is_square(a.code):
        return None
    return FqElement(ctx, arith.sqrt(a.code))


def adjoin_zeta(ctx):
    """Adjoin a square root of -1.

    Returns (ctx2, embed, zeta) where embed maps ctx into ctx2 and
    zeta * zeta == -1 in ctx2.  If -1 is already a square, ctx2 is ctx and
    embed is the identity.  Otherwise ctx2 is the shared F_{q^2}, and the
    extension is built once per field.
    """
    root = square_root(-ctx.one)
    if root is not None:
        return ctx, (lambda a: a), root
    return _zeta_extension(ctx)


@lru_cache(maxsize=64)
def _zeta_extension(ctx):
    """adjoin_zeta's (F_{q^2}, embed, zeta) when -1 is a nonsquare in ctx;
    embed reads only codes and coefficients, so equal fields share it."""
    big = FqContext.shared(ctx.p, 2 * ctx.m)
    if ctx.m == 1:
        def embed(a, _big=big):
            # a constant keeps its code
            return FqElement(_big, a.code)
    else:
        # x goes to the least root of the modulus in code order.  The roots
        # are m Frobenius conjugates in F_q's image, whose units are the
        # powers of h = g^(q + 1); a scan of those q - 1 codes finds one
        ar, root = big._arith, 1
        h = ar.pow(_primitive(ar), ctx.q + 1)
        while reduce(lambda acc, c: ar.add(ar.mul(acc, root), c),
                     reversed(ctx.modulus), 0):
            root = ar.mul(root, h)
        root = min(ar.pow(root, ctx.p ** j) for j in range(ctx.m))
        # the images of 1, x, ..., x^(m - 1); a coefficient is a constant,
        # whose code it is
        images = [ar.pow(root, i) for i in range(ctx.m)]

        def embed(a, _big=big, _images=images):
            return FqElement(_big, _big._arith.dot(a.coeffs, _images))
    zeta = square_root(-big.one)
    assert zeta is not None
    return big, embed, zeta
