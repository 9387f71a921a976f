"""The Iwahori-Hecke convolution oracle for the SL_2 block
over F_q[t]/(t^N): Bruhat decomposition against the Iwahori subgroup, the
sign character on it, and the double-coset convolution (phi * phi) at s and
at e for the trivial and sign-twisted bi-equivariant functions.

The two resulting quadratic relations differ in the linear coefficient
((q-1) vs 0), which is the computational witness that no support-preserving
rescaling can identify the twisted and untwisted algebras.

An element of SL_2(F_q[t]/(t^N)) has one representation here: a stack of R
matrices is an int64 array of shape (R, 2, 2, N) whose last axis holds the
F_q codes of a series' coefficients, computed on with the field's O(q)
lookup tables (FqContext._tables).  The convolutions are one batched pass
over the q representatives h = u(x)s, and welldefinedness_check is one
pass over its sampled pairs.  The tests keep a per-matrix model of the
group as the oracle of both.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .ffield import FqContext, _prime_factors


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

    @classmethod
    def for_q(cls, q, trunc=3):
        """The shared context of F_q[t]/(t^N).  A context is not changed
        after construction (its field builds its tables once, on first
        use), so one per (q, N) serves every caller."""
        return _context_for(cls, q, trunc)

    def __eq__(self, other):
        return self is other or (isinstance(other, TruncContext)
                                 and self.fq == other.fq
                                 and self.trunc == other.trunc)

    def __hash__(self):
        return hash((self.fq, self.trunc))


@lru_cache(maxsize=32)
def _context_for(cls, q, trunc):
    # the shared field: its modulus search and tables serve every N
    return cls(FqContext.shared(*_prime_power(q)), trunc)


def _prime_power(q):
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise OracleError(f"{q} is not a prime power")
    p, m = primes[0], 0
    while q > 1:
        q //= p
        m += 1
    return p, m


TWISTS = ("trivial", "sign")


# ---------------------------------------------------------------------------
# A series is a row of N codes along the last axis of an int64 array, and a
# stack of R matrices is an array of shape (R, 2, 2, N); arrays broadcast,
# so a stack of shape (1, 2, 2, N) serves every row.


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


def _stack_inv(tab, g):
    """The inverses [[d, -b], [-c, a]] of the matrices [[a, b], [c, d]] of
    determinant 1."""
    swapped = g[:, ::-1, ::-1].swapaxes(1, 2)
    return np.where(np.eye(2, dtype=bool)[:, :, None], swapped,
                    tab.neg(swapped))


def _weyl_s(ctx):
    """s = [[0, 1], [-1, 0]] as a stack of one; -1 has the code p - 1."""
    s = np.zeros((1, 2, 2, ctx.trunc), dtype=np.int64)
    s[0, 0, 1, 0], s[0, 1, 0, 0] = 1, ctx.fq.p - 1
    return s


def _in_iwahori(g):
    """True where g lies in the Iwahori subgroup: c in tO, a and d units
    (over any leading axes)."""
    return ((g[..., 1, 0, 0] == 0) & (g[..., 0, 0, 0] != 0)
            & (g[..., 1, 1, 0] != 0))


def _signs(tab, k):
    """The sign character on the Iwahori stack k: the sign of the residue
    of the upper-left entry (trivial on the pro-p part)."""
    return np.where(tab.is_square(k[..., 0, 0, 0]), 1, -1)


def _bruhat_factors(tab, g):
    """(isi, k): isi is True where g lies in IsI rather than in I, and k of
    shape (2, R', 2, 2, N) holds the factors k1 = [[-1, -a/c], [0, -1]] and
    k2 = [[c, d], [0, 1/c]] with g = k1 s k2 of those R' rows, each checked
    to have determinant 1 and to lie in I."""
    isi = g[:, 1, 0, 0] != 0
    if not (isi | _in_iwahori(g)).all():
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
    if not _in_iwahori(k).all():
        raise OracleError("epsilon is only defined on the Iwahori subgroup")
    return isi, k


def _phi_rows(tab, g, twist):
    """The bi-(I, epsilon)-equivariant function supported on IsI with
    phi(s) = 1, on each matrix of the stack g: 0 on I, and on IsI the
    product of the characters of the two Bruhat factors."""
    isi, k = _bruhat_factors(tab, g)
    out = np.zeros(len(g), dtype=np.int64)
    out[isi] = _signs(tab, k).prod(0) if twist == "sign" else 1
    return out


def _coset_reps(ctx):
    """The representatives h = u(x)s, x in F_q in code order, as a stack."""
    u = np.zeros((ctx.fq.q, 2, 2, ctx.trunc), dtype=np.int64)
    u[:, 0, 0, 0] = u[:, 1, 1, 0] = 1
    u[:, 0, 1, 0] = np.arange(ctx.fq.q)
    return _stack_mul(ctx.fq._tables, u, _weyl_s(ctx))


def _coset_phis(ctx, twist):
    """The rows phi(h), phi(h^-1) and phi(h^-1 s) over the representatives
    h = u(x)s, computed in one pass."""
    if twist not in TWISTS:
        raise OracleError(f"unknown twist {twist!r}")
    tab = ctx.fq._tables
    h = _coset_reps(ctx)
    h_inv = _stack_inv(tab, h)
    h_inv_s = _stack_mul(tab, h_inv, _weyl_s(ctx))
    stacked = np.concatenate([h, h_inv, h_inv_s])
    return _phi_rows(tab, stacked, twist).reshape(3, ctx.fq.q)


def convolve_s(twist, q, trunc=3):
    """(phi * phi)(s) = sum over coset representatives u(x)s of
    phi(u(x)s) . phi(s^{-1}u(-x)s); exact integer."""
    phi_h, _, phi_h_inv_s = _coset_phis(TruncContext.for_q(q, trunc), twist)
    return int(phi_h @ phi_h_inv_s)


def convolve_e(twist, q, trunc=3):
    """(phi * phi)(e) over the same coset representatives; exact integer."""
    phi_h, phi_h_inv, _ = _coset_phis(TruncContext.for_q(q, trunc), twist)
    return int(phi_h @ phi_h_inv)


def _random_iwahori(ctx, rng, count):
    """count Iwahori elements drawn with the numpy Generator rng: a unit,
    b any, c in tO and d = (1 + bc)/a, as a stack."""
    tab, q, n = ctx.fq._tables, ctx.fq.q, ctx.trunc
    k = np.zeros((count, 2, 2, n), dtype=np.int64)
    k[:, 0, 0, 0] = rng.integers(1, q, count)
    k[:, 0, 0, 1:] = rng.integers(0, q, (count, n - 1))
    k[:, 0, 1] = rng.integers(0, q, (count, n))
    k[:, 1, 0, 1:] = rng.integers(0, q, (count, n - 1))
    one_plus_bc = _series_mul(tab, k[:, 0, 1], k[:, 1, 0])
    one_plus_bc[:, 0] = tab.add(one_plus_bc[:, 0], 1)
    k[:, 1, 1] = _series_mul(tab, one_plus_bc, _series_inv(tab, k[:, 0, 0]))
    return k


def welldefinedness_check(q, trunc=3, samples=500, seed=0):
    """phi(k1 s k2) must not depend on the decomposition: draw samples
    pairs of Iwahori elements and compare eps(k1) eps(k2) with phi of
    g = k1 s k2, which decomposes g again, under the sign twist.  Returns
    (ok, witness); the witness is the first failing pair (k1, k2), each as
    nested lists of F_q codes."""
    ctx = TruncContext.for_q(q, trunc)
    tab = ctx.fq._tables
    rng = np.random.default_rng(seed)
    k1 = _random_iwahori(ctx, rng, samples)
    k2 = _random_iwahori(ctx, rng, samples)
    g = _stack_mul(tab, _stack_mul(tab, k1, _weyl_s(ctx)), k2)
    built = _signs(tab, k1) * _signs(tab, k2)
    bad = np.flatnonzero(_phi_rows(tab, g, "sign") != built)
    if bad.size:
        return False, (k1[bad[0]].tolist(), k2[bad[0]].tolist())
    return True, None


def quadratic_relation(twist, q, trunc=3):
    """The pair (c_e, c_s) with phi * phi = c_e . delta_e + c_s . phi
    (support of phi * phi is {e} + IsI); the twisted and untwisted
    relations differ in the linear coefficient."""
    phi_h, phi_h_inv, phi_h_inv_s = _coset_phis(TruncContext.for_q(q, trunc),
                                                twist)
    return int(phi_h @ phi_h_inv), int(phi_h @ phi_h_inv_s)
