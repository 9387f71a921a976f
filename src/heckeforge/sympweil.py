"""Symplectic F_p-spaces, Heisenberg groups and their representations, the
Weil representation of SL_2(F_p) (projective intertwiners for higher rank),
the det-sign character on stabilized isotropic subspaces, and the exact
induction identity that witnesses the necessity of that character.

All representation matrices are exact, over Q(zeta_{4p}).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import linalg
from .cyclo import CycloContext, CycloMatrix, _counted
from .ffield import FqContext, SignValue, _digits, _is_prime, sgn


class SympError(ValueError):
    pass


# the exponent of an entry that is 0: every sum with exponents stays negative
_ABSENT = -2 ** 40


# ---------------------------------------------------------------------------
# F_p linear algebra on int tuples

def _vec_mod(v, p):
    return tuple(x % p for x in v)


@lru_cache(maxsize=None)
def _digit_array(p, m):
    """The digit tuples of the codes 0 .. p^m - 1, low digit first, as the
    rows of a read-only (p^m, m) int64 array."""
    digits = np.arange(p ** m)[:, None] // p ** np.arange(m) % p
    digits.setflags(write=False)
    return digits


# ---------------------------------------------------------------------------


class SymplecticSpace:
    """F_p^{2n} with a nondegenerate alternating form and a distinguished
    symplectic basis (e_1..e_n, f_1..f_n), <e_i, f_j> = delta_ij."""

    def __init__(self, p, form):
        if not _is_prime(p) or p == 2:
            raise SympError("p must be an odd prime")
        self.p = p
        form = tuple(tuple(x % p for x in row) for row in form)
        d = len(form)
        if d % 2 != 0 or any(len(r) != d for r in form):
            raise SympError("form must be square of even size")
        for i in range(d):
            if form[i][i] % p:
                raise SympError("form must be alternating")
            for j in range(d):
                if (form[i][j] + form[j][i]) % p:
                    raise SympError("form must be alternating")
        self.form = form
        self.dim = d
        self.n = d // 2
        self.basis, _ = self._symplectic_basis()
        self._to_coordinates = self._coordinate_matrix(self.basis)

    @classmethod
    def standard(cls, p, n):
        d = 2 * n
        form = [[0] * d for _ in range(d)]
        for i in range(n):
            form[i][n + i] = 1
            form[n + i][i] = p - 1
        return cls(p, form)

    def pairing(self, u, v):
        p = self.p
        return sum(u[i] * self.form[i][j] * v[j]
                   for i in range(self.dim) for j in range(self.dim)) % p

    def _symplectic_basis(self, first=()):
        """Greedy symplectic Gram-Schmidt on a pool of the vectors of the
        totally isotropic `first`, then the unit vectors.  The pool spans
        the orthogonal complement of the pairs found so far, which is
        nondegenerate when the form is; so the pool's first vector e has a
        partner in the pool, unless e lies in the radical of the form.
        Projection keeps the vectors of U = span(first) inside U, and those
        that depend on the e's found so far drop out as zeros.  Returns
        (basis, k): the first k e's are a basis of U.  The vectors are codes
        of F_p, computed on by linalg's kernel."""
        p, ar = self.p, FqContext.shared(self.p)._arith
        _require_totally_isotropic(self, first)
        es, fs = [], []
        pool = [v for v in (_vec_mod(u, p) for u in first) if any(v)]
        k, in_u = 0, len(pool)  # in_u: the pool's leading vectors of U
        pool += linalg._identity(self.dim)
        while len(es) < self.n:
            e = pool[0]
            for v in pool:
                c = self.pairing(e, v)
                if c:
                    break
            else:
                raise SympError("form must be nondegenerate")
            f = tuple(ar.mul(ar.inv(c), x) for x in v)
            es.append(e)
            fs.append(f)
            k += in_u > 0
            if len(es) == self.n:
                break
            # reduce the pool modulo the found hyperbolic pair
            new_pool = []
            for v in pool:
                # v - <v, f> e - <e, v> f, one dot per coordinate
                w = (1, -self.pairing(v, f), -self.pairing(e, v))
                new_pool.append(tuple(ar.dot(w, t) for t in zip(v, e, f)))
            in_u = sum(map(any, new_pool[:in_u]))
            pool = [w for w in new_pool if any(w)]
        return tuple(es) + tuple(fs), k

    def _coordinate_matrix(self, basis):
        """The matrix of v -> v's coordinates in the symplectic basis
        (e_1..e_n, f_1..f_n): v = sum_i <v, f_i> e_i + <e_i, v> f_i, so
        its rows are F f_i, then F^T e_i."""
        es, fs = basis[:self.n], basis[self.n:]
        ar = FqContext.shared(self.p)._arith
        return (linalg._mul(ar, fs, linalg.transpose(self.form))
                + linalg._mul(ar, es, self.form))

    def coordinates(self, v):
        """Coordinates of v in the distinguished symplectic basis."""
        if len(v) != self.dim:
            raise SympError("vector outside the space")
        return linalg.mat_vec(self._to_coordinates, v, self.p)

    def vectors(self):
        p = self.p
        for idx in range(p ** self.dim):
            yield _digits(idx, p, self.dim)

    def is_symplectic_matrix(self, g):
        p = self.p
        gt = tuple(zip(*g))
        lhs = linalg.mat_mul(linalg.mat_mul(gt, self.form, p), g, p)
        return lhs == self.form

    def __eq__(self, other):
        return (isinstance(other, SymplecticSpace)
                and (self.p, self.form) == (other.p, other.form))

    def __hash__(self):
        return hash((self.p, self.form))


class HeisenbergElement:
    """(v, a) in the Heisenberg group V# = V x F_p."""

    __slots__ = ("space", "v", "a")

    def __init__(self, space, v, a):
        if len(v) != space.dim:
            raise SympError("vector outside the space")
        self.space = space
        self.v = _vec_mod(v, space.p)
        self.a = a % space.p

    def __mul__(self, other):
        if self.space != other.space:
            raise SympError("space mismatch")
        p = self.space.p
        half = (p + 1) // 2
        pairing = self.space.pairing(self.v, other.v)
        return HeisenbergElement(
            self.space, linalg.vec_add(self.v, other.v, p),
            (self.a + other.a + half * pairing) % p)

    def inv(self):
        p = self.space.p
        return HeisenbergElement(self.space,
                                 tuple((-x) % p for x in self.v),
                                 (-self.a) % p)

    def __eq__(self, other):
        return (isinstance(other, HeisenbergElement)
                and self.space == other.space
                and self.v == other.v and self.a == other.a)

    def __hash__(self):
        return hash((self.space, self.v, self.a))

    def __repr__(self):
        return f"H({self.v}, {self.a})"


class CentralCharacterChoice:
    """An isomorphism iota: mu_p -> F_p, pinned by iota(zeta_p) = unit."""

    def __init__(self, p, unit=1):
        if not _is_prime(p) or p == 2:
            raise SympError("p must be an odd prime")
        if unit % p == 0:
            raise SympError("iota must be a bijection")
        self.p = p
        self.unit = unit % p
        self.unit_inv = pow(self.unit, p - 2, p)


@lru_cache(maxsize=None)
def _monomial_terms(p, n, unit_inv):
    """HeisenbergRep's read-only table for psi = iota^-1, iota^-1(1) =
    zeta_p^unit_inv.  Let v have e-part x and f-part y in the symplectic
    basis: column s of rho(v, a) is the point t = s + y with phase
    a + x t - x y / 2, that is a + x s + x y / 2 mod p.  Both are sums over
    the coordinates i, so entry [i, x_i, y_i] holds, for every point s, the
    digit ((s_i + y_i) mod p) p^i of t and 4 psi_exp(x_i s_i + x_i y_i / 2)."""
    s = _digit_array(p, n).T[:, None, None]
    x, y = np.indices((p, p))[..., None]
    terms = np.stack(((s + y) % p * p ** np.arange(n)[:, None, None, None],
                      4 * (unit_inv * x * (s + (p + 1) // 2 * y) % p)), 3)
    terms.setflags(write=False)
    return terms


class HeisenbergRep:
    """The Schroedinger model on functions on F_p^n for the Lagrangian
    spanned by e_1..e_n, with central character (0, a) -> iota^{-1}(a)."""

    def __init__(self, space, iota=None):
        self.space = space
        p = space.p
        self.iota = iota or CentralCharacterChoice(p)
        if self.iota.p != p:
            raise SympError("iota must be a character of F_p for the "
                            "space's p")
        self.cyclo = CycloContext.shared(4 * p)
        self.dim = p ** space.n
        self._half = (p + 1) // 2
        # row vectors times this are their coordinates
        self._coordinates_t = np.array(space._to_coordinates, dtype=np.int64
                                       ).reshape(space.dim, space.dim).T
        self._terms = _monomial_terms(p, space.n, self.iota.unit_inv)
        self._digits = np.arange(space.n)

    def _psi_exp(self, a):
        """Exponent e with psi(a) = zeta_{4p}^{4e}."""
        return (a * self.iota.unit_inv) % self.space.p

    def psi(self, a):
        return self.cyclo.zeta_pow(4 * self._psi_exp(a))

    def _monomials(self, vs, a=0):
        """rho(v, a) is monomial: column s holds the single entry
        zeta_{4p}^{exps[s]} in row rows[s].  Returns the int64 arrays (rows,
        exps), one row each per vector of vs (ambient coordinates), exps in
        0 .. 4p - 1: sums of the entries of _terms at v's coordinates."""
        p, n = self.space.p, self.space.n
        c = np.asarray(vs, dtype=np.int64) @ self._coordinates_t % p
        terms = self._terms[self._digits, c[:, :n], c[:, n:]].sum(axis=1)
        return terms[:, 0], (terms[:, 1] + 4 * self._psi_exp(a)) % (4 * p)

    def operator(self, elem):
        """Exact matrix of rho(v, a), built as a monomial."""
        rows, exps = self._monomials([elem.v], elem.a)
        return CycloMatrix.monomial(self.cyclo, rows[0], exps[0])

    def character(self, elem):
        """Trace of rho(v, a): p^n psi(a) on the center, 0 elsewhere."""
        if any(self.space.coordinates(elem.v)):
            return self.cyclo.zero()
        return self.psi(elem.a) * self.dim

    def trace_with(self, mat, elem):
        """Trace of mat . rho(v, a): the trace of the product with the
        monomial operator."""
        return (mat @ self.operator(elem)).trace()


# ---------------------------------------------------------------------------
# Weil representation of SL_2(F_p)


@lru_cache(maxsize=None)
def _weil_tables(p, unit):
    """WeilSL2's read-only tables for psi = iota^-1, iota(zeta_p) = unit: the
    points t; the grid (t, s, t^2, 2ts, s^2) of their pairs; True at the
    nonzero squares of F_p (FqContext(p)'s table); psi_exp(1 / 2c) (0 at
    c = 0); psi_exp(1 / 2); and kappa."""
    ctx, t, u = CycloContext.shared(4 * p), np.arange(p), pow(unit, p - 2, p)
    # squares[t] = 4 psi_exp(t^2), so that G = sum_t zeta^squares[t] is the
    # quadratic Gauss sum.  The constant of omega(w) is forced by W U(b) W =
    # U(-1/b) W D(b) U(-1/b) (complete the square; the quadratic sum
    # contributes sgn(b/2) G); 1/G = conj(G)/p since G conj(G) = p, so
    # p kappa = sgn(2) sum_t zeta^(-squares[t])
    squares, (r, s) = 4 * (t * t * u % p), np.indices((p, p))
    fp = FqContext.shared(p)
    kappa = sum(map(ctx.zeta_pow, (-squares).tolist()), ctx.zero()) * (
        Fraction(int(sgn(fp.elem(2))), p))
    tables = (t, np.stack((r, s, r * r, 2 * r * s, s * s)),
              fp._tables.squares, (p + 1) // 2 * u * fp._tables.inv(t) % p)
    for table in tables:
        table.setflags(write=False)
    return tables + ((p + 1) // 2 * u % p, kappa)


class WeilSL2:
    """The genuine Weil representation of SL_2(F_p) on the Schroedinger
    model, one closed formula per Bruhat cell of g = ((a, b), (c, d))
    (Gerardin, J. Algebra 46 (1977)):

        c != 0:  omega(g)[t, s] = kappa sgn(c) psi((a t^2 - 2ts + d s^2) / 2c)
        c == 0:  (omega(g) phi)(t) = sgn(a) psi(ab t^2 / 2) phi(at)

    with kappa = sgn(2) conj(G) / p and G the quadratic Gauss sum of psi.
    They are the products u(a/c) w diag(c, 1/c) u(d/c) and diag(a, 1/a)
    u(b/a) of the generator operators multiplied out; the tests keep that
    product as their oracle (_oracle_weil).  The cell c = 0 is built as a
    monomial (CycloMatrix.monomial).  In the cell c != 0 every entry is
    kappa zeta^e, so it is described by the rows t, the exponents e and
    the scale kappa; its planes, one gather of the rows p kappa zeta^e of
    kappa's table, are built only when read.  The cache keeps these
    descriptions, 2 p^2 ints per omega(g).  Products of cells are computed
    on their exponents (CycloMatrix.__matmul__), and so is the equality of
    two described operators.
    Multiplicativity is verified empirically by the test suite, not
    assumed."""

    def __init__(self, rep):
        if rep.space.n != 1:
            raise SympError("weil_sl2 needs a 2-dimensional space")
        self.rep, self.p, self.cyclo = rep, rep.space.p, rep.cyclo
        (self._t, self._grid, self._square, self._half_inv, self._half,
         self._kappa) = _weil_tables(self.p, rep.iota.unit)
        self._cache = {}

    def _cell(self, g):
        """omega(g)'s exponents on the (t, s) grid, for g = (a, b, c, d),
        ints or int arrays that broadcast against it: the entry [t, s] is
        kappa zeta^e where c != 0, zeta^e where c = 0 and s = a t, and 0
        where e is _ABSENT.  An int c evaluates its own cell only, and an
        array c picks each g's cell from both."""
        p, (a, b, c, d) = self.p, g
        t, s, tt, ts2, ss = self._grid

        # psi_exp's argument: (a t^2 - 2ts + d s^2) / 2c, or ab t^2 / 2
        # where c = 0
        def upper():
            return self._half_inv[c] * (a * tt - ts2 + d * ss)

        def lower():
            return a * b * self._half % p * tt

        # the cell's entries lie where c != 0 or s = a t
        if np.ndim(c):
            x, phase = np.where(c, c, a), np.where(c, upper(), lower())
            support = (c != 0) | (s == a * t % p)
        elif c:
            x, phase, support = c, upper(), None
        else:
            x, phase, support = a, lower(), s == a * t % p
        # sgn(c), or sgn(a) where c = 0; the sign -1 is zeta_{4p}^{2p}
        e = np.where(self._square[x], 0, 2 * p) + 4 * (phase % p)
        return e if support is None else np.where(support, e, _ABSENT)

    def __call__(self, g):
        if len(g) != 2 or any(len(row) != 2 for row in g):
            raise SympError("g must be a 2x2 matrix")
        p = self.p
        a, b = g[0][0] % p, g[0][1] % p
        c, d = g[1][0] % p, g[1][1] % p
        if (a * d - b * c) % p != 1:
            raise SympError("determinant must be 1")
        key = (a, b, c, d)
        if key not in self._cache:
            if c:
                # entry [t, s] is kappa zeta^e: row t of column s; _cell's
                # exponents reach 6p - 4, beyond N = 4p
                self._cache[key] = CycloMatrix._described(
                    self.cyclo, self._grid[0], self._cell(key) % self.cyclo.n,
                    self._kappa)
            else:
                # a monomial: column s holds its entry at row t = s / a
                s = self._t
                t = d * s % p
                self._cache[key] = CycloMatrix.monomial(
                    self.cyclo, t, self._cell(key)[t, s])
        return self._cache[key]


def sl2_elements(p):
    for (a, b), (c, d) in _sl2_array(p).tolist():
        yield ((a, b), (c, d))


def projective_weil(rep, g):
    """A nonzero intertwiner T with T rho(v,a) T^{-1} = rho(gv,a),
    normalized so its (0, 0) entry is 1.  Unique up to scalar; the scalar
    normalization for n >= 2 is deliberately not chosen to be anything more
    canonical."""
    space = rep.space
    if not space.is_symplectic_matrix(g):
        raise SympError("matrix is not symplectic")
    p = space.p
    vs = _digit_array(p, space.dim)
    # rho(gv) and rho(-v) = rho(v)^-1 as monomials, one row per v
    g_rows, g_exps = rep._monomials(vs @ np.array(g, dtype=np.int64).T % p)
    v_rows, v_exps = rep._monomials(-vs % p)
    # T = sum_v rho(gv) E_00 rho(-v), where rho(gv) E_00 rho(-v) is column
    # 0 of rho(gv) times row 0 of rho(-v).  T[0, 0] != 0: rho(u)[0, 0] is 1
    # when u lies in the model's Lagrangian L (y(u) = 0) and 0 otherwise, so
    # T[0, 0] = |L cap g^-1 L| >= 1, which is T's denominator
    v, s = np.nonzero(v_rows == 0)
    meet = int(np.count_nonzero((v_rows[:, 0] == 0) & (g_rows[:, 0] == 0)))
    return CycloMatrix.from_zeta_powers(rep.cyclo, rep.dim, g_rows[v, 0], s,
                                        g_exps[v, 0] + v_exps[v, s],
                                        den=meet)


def det_sign_character(space, g, u_basis):
    """sgn of det of g restricted to the stabilized totally isotropic
    subspace U spanned by u_basis.  The empty subspace gives +1.  In a
    symplectic basis whose first k e's are a basis of U, the matrix of g on
    U is (<g e_i, f_j>), and g stabilizes U exactly when every g e_i is
    sum_j <g e_i, f_j> e_j.  It stays public as the tests' oracle for
    _line_signs, which computes the same signs for a whole group at once."""
    p = space.p
    basis, k = space._symplectic_basis(u_basis)
    if not k:
        return SignValue(1)
    es, fs = basis[:k], basis[space.n:space.n + k]
    action = []
    for e in es:
        ge = linalg.mat_vec(g, e, p)
        column = [space.pairing(ge, f) for f in fs]
        if linalg.mat_vec(linalg.transpose(es), column, p) != ge:
            raise SympError("g does not stabilize the subspace")
        action.append(column)
    det = linalg.det(action, p)
    if det == 0:
        raise SympError("g is singular on the subspace")
    return sgn(FqContext.shared(p).elem(det))


def _require_totally_isotropic(space, u_basis):
    if any(len(u) != space.dim for u in u_basis):
        raise SympError("vector outside the space")
    for u in u_basis:
        for w in u_basis:
            if space.pairing(u, w):
                raise SympError("subspace is not totally isotropic")


def isotropic_reduction(space, u_basis):
    """Given totally isotropic U, return (basis of U-perp, the quotient
    U-perp/U as a SymplecticSpace, lifts of its basis to U-perp), read off a
    symplectic basis (e_1..e_n, f_1..f_n) whose first k e's are a basis of
    U: U-perp is spanned by the e's and f_{k+1..n}, and the lifts are the
    pairs past k, whose Gram matrix is the standard form."""
    basis, k = space._symplectic_basis(u_basis)
    n = space.n
    lifts = list(basis[k:n] + basis[n + k:])
    return (list(basis[:k]) + lifts, SymplecticSpace.standard(space.p, n - k),
            lifts)


def graded_symplectic_split(space, weights):
    """Split a weighted symplectic space into (negative, zero, positive)
    weight subspaces; the pairing must couple weight w only with -w."""
    if len(weights) != space.dim:
        raise SympError("one weight per basis line required")
    for i in range(space.dim):
        for j in range(space.dim):
            if space.form[i][j] % space.p and weights[i] + weights[j] != 0:
                raise SympError("pairing violates the weight constraint")
    units = linalg._identity(space.dim)
    v1 = [units[i] for i, w in enumerate(weights) if w < 0]
    v2 = [units[i] for i, w in enumerate(weights) if w == 0]
    v3 = [units[i] for i, w in enumerate(weights) if w > 0]
    return v1, v2, v3


# ---------------------------------------------------------------------------
# the induction identity


@lru_cache(maxsize=None)
def _sl2_array(p):
    """SL_2(F_p) in sl2_elements order, (a, b, c, d) ascending: a read-only
    (p^3 - p, 2, 2) array.  Where a = 0, c = -1/b and d is free; otherwise
    d = (1 + bc)/a."""
    inv = np.array([0] + [pow(x, p - 2, p) for x in range(1, p)])
    b, d = np.indices((p - 1, p)).reshape(2, -1) + [[1], [0]]
    a_zero = np.stack((0 * b, b, -inv[b] % p, d), 1)
    a, b, c = np.indices((p - 1, p, p)).reshape(3, -1) + [[1], [0], [0]]
    group = np.concatenate(
        (a_zero, np.stack((a, b, c, (1 + b * c) * inv[a] % p), 1)))
    group.setflags(write=False)
    return group.reshape(-1, 2, 2)


def _stabilizer_sl2(space, u_basis):
    """The (G, 2, 2) array of the g in SL_2(F_p), in sl2_elements order, that
    map the span of the independent u_basis (no vector or one) into itself:
    g u lies on the line of u exactly when det(u, g u) = 0."""
    group = _sl2_array(space.p)
    for x, y in u_basis:
        gu = group @ np.array((x, y))
        group = group[(x * gu[:, 1] - y * gu[:, 0]) % space.p == 0]
    return group


def _line_signs(space, group, e, f, square):
    """chi^U on a (G, 2, 2) stack that stabilizes the line of e, for a
    partner f with <e, f> = 1: the sgn, read off the table square of F_p,
    of the eigenvalue <g e, f> in g e = lambda e.  det_sign_character is
    its oracle."""
    return np.where(square[group @ np.array(e) @ np.array(space.form)
                           @ np.array(f) % space.p], 1, -1)


def _identity_entries(dim):
    """The identity's exponents for every g, as WeilSL2._cell gives omega's."""
    grid = np.where(np.eye(dim, dtype=bool), 0, _ABSENT)[None]
    return lambda at: grid


# gathered terms per block of the group: they bound the pass's arrays
_BLOCK_TERMS = 1 << 13


@lru_cache(maxsize=64)
def _induction_tables(space, prime, unit):
    """induction_identity_check's read-only tables that depend only on the
    space and on iota = (prime, unit), built once: the HeisenbergRep; the
    vectors v of V in code order and rho(v)'s monomials (rows, exps); the
    offsets of the entries [s, rows[s]] in an operator's grid; per
    coordinate i and x in F_p the codes (x + v_i) p^i and the products
    x v_i; the form; and the coordinate and basis matrices, which take g to
    the symplectic basis."""
    rep = HeisenbergRep(space, CentralCharacterChoice(prime, unit))
    p, d, vecs = space.p, space.dim, _digit_array(space.p, space.dim)
    rows, exps = rep._monomials(vecs)
    x = np.arange(p)[:, None]
    digit_sums = tuple((x + v) % p * p ** i for i, v in enumerate(vecs.T))
    digit_products = tuple(x * v for v in vecs.T)
    form, to_coordinates, basis = (
        np.array(m, dtype=np.int64).reshape(d, d)
        for m in (space.form, space._to_coordinates, space.basis))
    offsets = np.arange(rep.dim) * rep.dim + rows
    for table in (exps, offsets, *digit_sums, *digit_products, form,
                  to_coordinates, basis):
        table.setflags(write=False)
    return (rep, vecs, exps, offsets, digit_sums, digit_products, form,
            to_coordinates, basis)


def induction_identity_check(space, u_basis, mode="with_sl2_levi",
                             include_chi=True, iota=None):
    """Exact character comparison for the restriction-vs-induction identity
    of the Heisenberg(-Weil) representation along a totally isotropic U:
    for every g and v, the trace of omega(g) rho(v) against the induced
    trace of chi^U(g) sigma(g) on (U-perp)#.  heisenberg_only is the trivial
    group (g = 1, omega and sigma the identities; any dimension),
    with_sl2_levi the stabilizer of U in SL_2(F_p) with omega = sigma the
    Weil representation (dim V = 2).  sigma acts on U-perp/U; for a
    Lagrangian U that is the central character on one dimension.

    One batched pass runs over blocks of g.  Every entry of omega(g),
    sigma(g) and rho(v) is a zeta_{4p}-power, times kappa where c != 0
    (WeilSL2._cell), so each (g, v) gets one integer histogram over Z/4p,
    the induced side counted at -chi^U(g).  kappa cancels where both sides
    carry it (U = 0); where only the left side does (a line), its terms
    are counted apart.  cyclo._counted reduces the counts, and those of a
    (g, v) vanish mod Phi_4p exactly when the sides agree at (v, 0), and so
    at every (v, a), psi(a) being a unit.  The tests keep the per-g loop this
    replaced (_oracle_group_ring_check) and the character tables
    (_oracle_induction_check, _oracle_heisenberg_only) as oracles.

    Returns (equal, details): details carries the induced dimension (coset
    representatives times dim sigma), rep_dim, and the first witness
    (g, (v, 0)) of a difference in group order, or None.
    """
    p, n = space.p, space.n
    # a symplectic basis (e_1..e_n, f_1..f_n) whose first k e's are a basis
    # of U: the lifts of U-perp/U are the pairs past k
    basis, k = space._symplectic_basis(u_basis)
    quotient = SymplecticSpace.standard(p, n - k)
    iota = iota or CentralCharacterChoice(p)
    (rep, vecs, exps, offsets, digit_sums, digit_products, form,
     to_coordinates, symplectic_basis) = _induction_tables(space, iota.p,
                                                           iota.unit)
    qrep = HeisenbergRep(quotient, iota)
    reps = _coset_representatives(space, basis[n:n + k])
    details = {"induced_dim": len(reps) * qrep.dim, "rep_dim": rep.dim,
               "witness": None}
    if mode == "heisenberg_only":
        group = inverses_t = np.eye(space.dim, dtype=np.int64)[None]
        chi, kappa = np.ones(1, dtype=int), np.zeros(1, dtype=bool)
        omega, sigma = _identity_entries(rep.dim), _identity_entries(qrep.dim)
    elif mode == "with_sl2_levi":
        if quotient.dim not in (0, 2):
            raise SympError("with_sl2_levi requires dim(U-perp/U) in {0, 2}")
        if space.dim != 2:
            raise SympError("with_sl2_levi is implemented for dim V = 2")
        group = _stabilizer_sl2(space, basis[:k])
        # the transposed inverse of ((a, b), (c, d)) is ((d, -c), (-b, a))
        inverses_t = group[:, ::-1, ::-1] * np.array([[1, -1], [-1, 1]])
        weil = WeilSL2(rep)
        chi = (_line_signs(space, group, basis[0], basis[1], weil._square)
               if include_chi and k else np.ones(len(group), dtype=int))
        # omega(g)'s exponents on its grid, from g in the symplectic basis;
        # sigma(g) is omega(g) for U = 0, where the quotient is V itself, and
        # the identity on one dimension for a line
        cells = (to_coordinates @ group @ symplectic_basis.T % p
                 ).reshape(-1, 4).T
        omega = lambda at: weil._cell(cells[:, at, None, None])
        sigma = omega if quotient.dim else _identity_entries(1)
        kappa = (cells[2] != 0) & (quotient.dim == 0)
    else:
        raise SympError(f"unknown mode {mode!r}")

    ctx = rep.cyclo
    # coordinates in the adapted basis: those on the lifts name v's image in
    # U-perp/U, and a v with a nonzero coordinate <e_i, v> on f_1..f_k lies
    # outside U-perp and adds no induced term
    coords = vecs @ np.array(space._coordinate_matrix(basis),
                             dtype=np.int64).T % p
    q_rows, q_exps = qrep._monomials(
        coords[:, [*range(k, n), *range(n + k, 2 * n)]])
    q_exps[coords[:, n:n + k].any(axis=1)] = _ABSENT
    q_offsets = np.arange(qrep.dim) * qrep.dim + q_rows
    reps_f = reps @ form
    size, n = len(vecs), ctx.n
    # a (g, v) counts at most `terms` zeta^k per scale: 1, or p and kappa
    # where only the left side carries kappa (both numerators over p)
    scales = ((ctx.from_rational(p), weil._kappa) if kappa.any()
              else (ctx.one(),))
    tables, terms = len(scales), rep.dim + len(reps) * qrep.dim
    block = max(1, _BLOCK_TERMS // (size * terms))
    # per block: the columns of its (g, v), and the offsets of its g's
    # operator grids
    columns = np.arange(block * size).reshape(block, size, 1)
    g_at = np.arange(block)[:, None, None] * rep.dim ** 2
    q_at = np.arange(block)[:, None, None, None] * qrep.dim ** 2
    kappa_n, chi_n = kappa * n, (chi == 1) * (n // 2)  # -1 = zeta^{N/2}
    for start in range(0, len(group), block):
        at = slice(start, start + block)
        count = len(group[at])
        # zeta^e of table t counts at (t N + e mod N, column)
        col, width = columns[:count], count * size
        dump = tables * n * width
        # omega(g)[s, rows[s]] zeta^exps[s]; a zero entry goes to the dump bin
        grid = omega(at)
        e = grid.ravel()[g_at[:len(grid)] + offsets] + exps
        left = np.where(e < 0, dump, e % n * width
                        + (kappa_n[at, None, None] * width + col))
        # r = (1, (w, 0)):  r^{-1} (g, (v, a)) r = (g, (v + l + w, a + c))
        # with l = -g^{-1} w and c = half (<l - w, v> + <l, w>): the code
        # of each conjugate, and its phase exponent, per (g, w, v)
        ls = -reps @ inverses_t[at] % p
        lf = ls @ form
        shift, pair = (ls + reps) % p, (lf - reps_f) % p
        conj = sum(t[shift[..., i]] for i, t in enumerate(digit_sums))
        k = sum(t[pair[..., i]] for i, t in enumerate(digit_products))
        k = 4 * rep._psi_exp((p + 1) // 2 * (
            k + (lf * reps).sum(axis=2, keepdims=True)))
        k += chi_n[at, None, None]
        grid = sigma(at)
        e = grid.ravel()[q_at[:len(grid)] + q_offsets[conj]]
        e += q_exps[conj] + k[..., None]
        right = np.where(e < 0, dump, e % n * width + col[:, None])
        hist = np.bincount(np.concatenate((left.ravel(), right.ravel())),
                           minlength=dump + 1)[:dump].reshape(tables, n, width)
        sums = _counted(ctx, hist[0], scales[0], terms)
        if tables == 2:
            sums = sums + _counted(ctx, hist[1], scales[1], terms)
        if sums.any():
            g, v = divmod(int(np.flatnonzero(sums.any(axis=0))[0]), size)
            details["witness"] = (tuple(map(tuple, group[start + g].tolist())),
                                  (_digits(v, p, space.dim), 0))
            return False, details
    return details["induced_dim"] == rep.dim, details


def _coset_representatives(space, fs):
    """The combinations of f_1..f_k, in code order of their coefficients:
    one representative per coset of U-perp in V, U-perp being where every
    <e_i, .> with i <= k vanishes."""
    return _digit_array(space.p, len(fs)) @ np.array(
        fs, dtype=np.int64).reshape(-1, space.dim) % space.p
