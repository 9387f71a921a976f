"""Symplectic F_p-spaces, Heisenberg groups and their representations, the
Weil representation of SL_2(F_p) (projective intertwiners for higher rank),
the det-sign character on stabilized isotropic subspaces, and the exact
induction identity that witnesses the necessity of that character.

All representation matrices are exact, over Q(zeta_{4p}).
"""

from __future__ import annotations

import itertools

import numpy as np

from . import linalg
from .cyclo import CycloContext, CycloMatrix, CyclotomicNumber, _extent
from .ffield import SignValue, _digits, _is_prime


class SympError(ValueError):
    pass


def _sgn_mod_p(a, p):
    """The quadratic-residue sign of a nonzero residue."""
    a %= p
    if a == 0:
        raise SympError("sgn of zero")
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


# ---------------------------------------------------------------------------
# F_p linear algebra on int tuples

def _vec_mod(v, p):
    return tuple(x % p for x in v)


def _digit_array(p, m):
    """The digit tuples of the codes 0 .. p^m - 1, low digit first, as the
    rows of a (p^m, m) int64 array."""
    return np.arange(p ** m)[:, None] // p ** np.arange(m) % p


def _identity_matrix(d):
    """The d x d identity; its rows are the unit vectors of F_p^d."""
    return tuple(tuple(int(i == j) for j in range(d)) for i in range(d))


def _in_span(vectors, v, p):
    m = [[vec[i] for vec in vectors] for i in range(len(v))]
    return linalg.solve(m, v, p) is not None


def _span_basis(vectors, p):
    """The first independent vectors, in order: the pivot columns of the
    matrix whose columns are the vectors."""
    vectors = [_vec_mod(v, p) for v in vectors]
    if not vectors:
        return []
    _, pivots = linalg.rref(linalg.transpose(vectors), p)
    return [vectors[c] for c in pivots]


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
        if d and linalg.det(form, p) == 0:
            raise SympError("form must be nondegenerate")
        self.form = form
        self.dim = d
        self.n = d // 2
        self.basis = self._symplectic_basis()
        # coordinates(v) = B^-1 v, where the columns of B are the basis
        self._to_coordinates = linalg.mat_inv(linalg.transpose(self.basis), p)

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

    def _symplectic_basis(self):
        """Greedy symplectic Gram-Schmidt."""
        p = self.p
        es, fs = [], []
        pool = list(_identity_matrix(self.dim))
        used = []
        while len(es) < self.n:
            e = next(v for v in pool if not _in_span(used, v, p))
            # a partner from the pool, else from all of V (the form is
            # nondegenerate, so one exists)
            for v in itertools.chain(pool, self.vectors()):
                c = self.pairing(e, v)
                if c and not _in_span(used + [e], v, p):
                    break
            f = linalg.vec_scale(pow(c, p - 2, p), v, p)
            # reduce the pool modulo the found hyperbolic pair
            new_pool = []
            for v in pool:
                a = self.pairing(v, f)
                b = self.pairing(e, v)
                w = linalg.vec_sub(v, linalg.vec_scale(a, e, p), p)
                w = linalg.vec_sub(w, linalg.vec_scale(b, f, p), p)
                new_pool.append(w)
            es.append(e)
            fs.append(f)
            used.extend([e, f])
            pool = [w for w in new_pool if any(w)]
        return tuple(es) + tuple(fs)

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


def heisenberg_mul(x, y):
    return x * y


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
        self.cyclo = CycloContext(4 * p)
        self.dim = p ** space.n
        self._half = (p + 1) // 2
        # row vectors times this are their coordinates; the points s of
        # F_p^n, and the place values of their digits
        self._coordinates_t = np.array(space._to_coordinates, dtype=np.int64
                                       ).reshape(space.dim, space.dim).T
        self._points = _digit_array(p, space.n)
        self._place = p ** np.arange(space.n)

    def _psi_exp(self, a):
        """Exponent e with psi(a) = zeta_{4p}^{4e}."""
        return (a * self.iota.unit_inv) % self.space.p

    def psi(self, a):
        return self.cyclo.zeta_pow(4 * self._psi_exp(a))

    def _monomials(self, vs, a=0):
        """rho(v, a) is monomial: column s holds the single entry
        zeta_{4p}^{exps[s]} in row rows[s].  Returns the int64 arrays (rows,
        exps), one row each per vector of vs (ambient coordinates)."""
        p, n = self.space.p, self.space.n
        c = np.asarray(vs, dtype=np.int64) @ self._coordinates_t % p
        # x, y: the e- and f-parts in the symplectic basis; column s of
        # rho(v, a) is the point t = s + y with phase a + x t - x y / 2, that
        # is a + x s + x y / 2 mod p
        x, y = c[:, :n], c[:, n:]
        rows = (self._points + y[:, None]) % p @ self._place
        xy = (x * y).sum(axis=1, keepdims=True)
        return rows, 4 * self._psi_exp(a + x @ self._points.T
                                       + self._half * xy)

    def operator(self, elem):
        """Exact matrix of rho(v, a)."""
        rows, exps = self._monomials([elem.v], elem.a)
        return CycloMatrix.from_zeta_powers(
            self.cyclo, self.dim, rows[0], np.arange(self.dim), exps[0],
            distinct=True)

    def character(self, elem):
        """Trace of rho(v, a): p^n psi(a) on the center, 0 elsewhere."""
        if any(self.space.coordinates(elem.v)):
            return self.cyclo.zero()
        return self.psi(elem.a) * self.dim

    def trace_with(self, mat, elem):
        """Trace of mat . rho(v, a) = sum_s mat[s, rows[s]] zeta^{exps[s]}:
        one gather of mat's planes (_trace_sums)."""
        rows, exps = self._monomials([elem.v], elem.a)
        (num,) = _trace_sums(self.cyclo, 1, [(mat.planes, rows, exps, [0], 1)])
        return CyclotomicNumber(self.cyclo, tuple(int(x) for x in num),
                                mat.den)


# ---------------------------------------------------------------------------
# Weil representation of SL_2(F_p)


class WeilSL2:
    """The genuine Weil representation of SL_2(F_p) on the Schroedinger
    model, one closed formula per Bruhat cell of g = ((a, b), (c, d))
    (Gerardin, J. Algebra 46 (1977)):

        c != 0:  omega(g)[t, s] = kappa sgn(c) psi((a t^2 - 2ts + d s^2) / 2c)
        c == 0:  (omega(g) phi)(t) = sgn(a) psi(ab t^2 / 2) phi(at)

    with kappa = sgn(2) conj(G) / p and G the quadratic Gauss sum of psi.
    They are the products u(a/c) w diag(c, 1/c) u(d/c) and diag(a, 1/a)
    u(b/a) of the generator operators multiplied out; the tests keep that
    product as their oracle (_oracle_weil).  Multiplicativity is verified
    empirically by the test suite, not assumed."""

    def __init__(self, rep):
        if rep.space.n != 1:
            raise SympError("weil_sl2 needs a 2-dimensional space")
        self.rep = rep
        self.p = rep.space.p
        self.cyclo = rep.cyclo
        ctx = self.cyclo
        self._t = np.arange(self.p)
        self._grid = np.indices((self.p, self.p))
        # the quadratic Gauss sum G = sum_t psi(t^2) = sum_t zeta^squares[t];
        # its coefficients are sums of p rows of the power table, exact in
        # int64
        squares = 4 * rep._psi_exp(self._t * self._t)
        self._gauss = CyclotomicNumber(
            ctx, tuple(ctx._powers[squares].sum(axis=0).tolist()), 1)
        # the constant of omega(w) is forced by W U(b) W = U(-1/b) W D(b)
        # U(-1/b) (complete the square; the quadratic sum contributes
        # sgn(b/2) G); 1/G = conj(G)/p since G conj(G) = p.  Row e of the
        # table is p kappa zeta^e = sgn(2) sum_t zeta^(e - squares[t])
        self._kappa_powers = _sgn_mod_p(2, self.p) * ctx._powers[
            (np.arange(ctx.n)[:, None] - squares) % ctx.n].sum(axis=1)
        self._cache = {}

    def __call__(self, g):
        if len(g) != 2 or any(len(row) != 2 for row in g):
            raise SympError("g must be a 2x2 matrix")
        p = self.p
        a, b = g[0][0] % p, g[0][1] % p
        c, d = g[1][0] % p, g[1][1] % p
        if (a * d - b * c) % p != 1:
            raise SympError("determinant must be 1")
        key = (a, b, c, d)
        if key in self._cache:
            return self._cache[key]
        psi_exp = self.rep._psi_exp
        half = (p + 1) // 2
        # sgn(c), or sgn(a) when c = 0; the sign -1 is zeta_{4p}^{2p}
        sign = 0 if _sgn_mod_p(c or a, p) == 1 else 2 * p
        t = self._t
        if c == 0:
            m = CycloMatrix.from_zeta_powers(
                self.cyclo, p, t, a * t % p,
                sign + 4 * psi_exp(a * b * half * t * t))
        else:
            k = half * pow(c, p - 2, p)
            t, s = self._grid
            m = CycloMatrix.from_zeta_powers(
                self.cyclo, p, t, s,
                sign + 4 * psi_exp(k * (a * t * t - 2 * t * s + d * s * s)),
                self._kappa_powers, p)
        self._cache[key] = m
        return m


def weil_sl2(rep, g):
    return WeilSL2(rep)(g)


def sl2_elements(p):
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    if (a * d - b * c) % p == 1:
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
    # T[0, 0] = |L cap g^-1 L| >= 1
    v, s = np.nonzero(v_rows == 0)
    t = CycloMatrix.from_zeta_powers(rep.cyclo, rep.dim, g_rows[v, 0], s,
                                     g_exps[v, 0] + v_exps[v, s])
    return t.scale(t.entry(0, 0).inv())


def det_sign_character(space, g, u_basis):
    """sgn of det of g restricted to the stabilized totally isotropic
    subspace spanned by u_basis.  The empty subspace gives +1."""
    return _det_sign(space, g, _span_basis(u_basis, space.p))


def _det_sign(space, g, u_basis):
    """det_sign_character for linearly independent u_basis."""
    p = space.p
    _require_totally_isotropic(space, u_basis)
    if not u_basis:
        return SignValue(1)
    action = []
    m = linalg.transpose(u_basis)
    for u in u_basis:
        sol = linalg.solve(m, linalg.mat_vec(g, u, p), p)
        if sol is None:
            raise SympError("g does not stabilize the subspace")
        action.append(sol)
    det = linalg.det(linalg.transpose(action), p)
    if det == 0:
        raise SympError("g is singular on the subspace")
    return SignValue(_sgn_mod_p(det, p))


def _require_totally_isotropic(space, u_basis):
    for u in u_basis:
        for w in u_basis:
            if space.pairing(u, w):
                raise SympError("subspace is not totally isotropic")


def isotropic_reduction(space, u_basis):
    """Given totally isotropic U, return (basis of U-perp, the quotient
    U-perp/U as a SymplecticSpace, lifts of its basis to U-perp)."""
    p = space.p
    u_basis = _span_basis(u_basis, p)
    _require_totally_isotropic(space, u_basis)
    units = _identity_matrix(space.dim)
    if u_basis:
        # null space of the pairing rows
        perp = linalg.null_space(
            [[space.pairing(u, e) for e in units] for u in u_basis], p)
    else:
        perp = list(units)
    # complement of U inside U-perp
    lifts = _span_basis(u_basis + perp, p)[len(u_basis):]
    form = [[space.pairing(a, b) for b in lifts] for a in lifts]
    return perp, SymplecticSpace(p, form), lifts


def graded_symplectic_split(space, weights):
    """Split a weighted symplectic space into (negative, zero, positive)
    weight subspaces; the pairing must couple weight w only with -w."""
    if len(weights) != space.dim:
        raise SympError("one weight per basis line required")
    for i in range(space.dim):
        for j in range(space.dim):
            if space.form[i][j] % space.p and weights[i] + weights[j] != 0:
                raise SympError("pairing violates the weight constraint")
    units = _identity_matrix(space.dim)
    v1 = [units[i] for i, w in enumerate(weights) if w < 0]
    v2 = [units[i] for i, w in enumerate(weights) if w == 0]
    v3 = [units[i] for i, w in enumerate(weights) if w > 0]
    return v1, v2, v3


# ---------------------------------------------------------------------------
# the induction identity


def _stabilizer_sl2(space, u_basis):
    """The elements of SL_2(F_p), in sl2_elements order, that map the span
    of the independent u_basis (no vector or one) into itself: g u lies on
    the line of u exactly when det(u, g u) = 0."""
    p = space.p
    a, b, c, d = np.indices((p,) * 4).reshape(4, -1)
    keep = (a * d - b * c) % p == 1
    for x, y in u_basis:
        keep &= (x * (c * x + d * y) - y * (a * x + b * y)) % p == 0
    return [((g[0], g[1]), (g[2], g[3]))
            for g in np.stack((a, b, c, d), 1)[keep].tolist()]


def induction_identity_check(space, u_basis, mode="with_sl2_levi",
                             include_chi=True, iota=None):
    """Exact character comparison for the restriction-vs-induction identity
    of the Heisenberg(-Weil) representation along a totally isotropic U.

    For each triple (g, omega(g), sigma(g)) the check compares, at every v
    at once, the trace of omega(g) rho(v) with the induced trace of
    chi^U(g) sigma(g) on (U-perp)#.  Both sides are gathers of the
    operators' planes into one integer array with a row over the group ring
    Z[Z/4p] per v (_trace_sums); the first v whose row is nonzero mod
    Phi_4p is the witness.  sigma acts on U-perp/U, which is zero when U is
    Lagrangian: its Heisenberg representation is then the central
    character, on one dimension.  The mode chooses the group:
    heisenberg_only is the trivial group (g = 1, omega and sigma the
    identities; any dimension), with_sl2_levi the stabilizer of U in
    SL_2(F_p) with omega = sigma the Weil representation (dim V = 2).  The
    tests keep the entry-by-entry group-ring loop that the gathers replaced
    (_oracle_group_ring_check) and the character-table comparisons
    (_oracle_induction_check, _oracle_heisenberg_only) as oracles.

    Returns (equal, details): equal is the exact character equality;
    details carries the dimension bookkeeping (the induced dimension is the
    number of coset representatives times dim sigma) and the first witness
    (g, (v, 0)) of a difference, or None.
    """
    p = space.p
    u_basis = _span_basis(u_basis, p)
    _require_totally_isotropic(space, u_basis)
    perp, quotient, lifts = isotropic_reduction(space, u_basis)
    rep = HeisenbergRep(space, iota)
    qrep = HeisenbergRep(quotient, iota)
    ctx = rep.cyclo
    coset_reps = _complement_transversal(space, perp)
    induced_dim = len(coset_reps) * qrep.dim

    if mode == "heisenberg_only":
        triples = [(_identity_matrix(space.dim),
                    CycloMatrix.identity(ctx, rep.dim),
                    CycloMatrix.identity(ctx, qrep.dim))]
    elif mode == "with_sl2_levi":
        if quotient.dim not in (0, 2):
            raise SympError("with_sl2_levi requires dim(U-perp/U) in {0, 2}")
        if space.dim != 2:
            raise SympError("with_sl2_levi is implemented for dim V = 2")
        weil = WeilSL2(rep)
        # sigma(g) is omega(g) for U = 0, where the quotient is V itself,
        # and the identity of the one-dimensional quotient representation
        # for a line; omega is built lazily, as a failure stops early
        trivial = None if quotient.dim else CycloMatrix.identity(ctx, 1)
        triples = ((g, omega, omega if trivial is None else trivial)
                   for g in _stabilizer_sl2(space, u_basis)
                   for omega in [weil(_basis_coords(space, g))])
    else:
        raise SympError(f"unknown mode {mode!r}")

    vecs = _digit_array(p, space.dim)
    rows, exps = rep._monomials(vecs)
    # coordinates in the basis lifts + u_basis + a complement of U-perp: v
    # lies in U-perp when its complement coordinates vanish, and its lift
    # coordinates name its image in U-perp/U
    basis = _span_basis(lifts + u_basis + list(_identity_matrix(space.dim)),
                        p)
    coords = vecs @ np.array(linalg.mat_inv(linalg.transpose(basis), p),
                             dtype=np.int64).T % p
    in_perp = ~coords[:, len(perp):].any(axis=1)
    q_rows, q_exps = qrep._monomials(coords[:, :len(lifts)])
    reps = np.array(coset_reps, dtype=np.int64).reshape(-1, space.dim)
    form = np.array(space.form, dtype=np.int64)
    place = p ** np.arange(space.dim)
    every = np.arange(len(vecs))
    at = np.broadcast_to(every, (len(reps), len(vecs)))
    half = (p + 1) // 2

    def first_failure():
        for g, omega, sigma in triples:
            chi = 1
            if include_chi and u_basis:
                chi = int(_det_sign(space, g, u_basis))
            # r = (1, (w, 0)):  r^{-1} (g, (v, a)) r = (g, (v + l + w, a + c))
            # with l = -g^{-1} w and c = half (<l - w, v> + <l, w>): the code
            # of each conjugate, and its phase exponent, per (w, v)
            ls = -reps @ np.array(linalg.mat_inv(g, p), dtype=np.int64).T % p
            conj = (vecs + (ls + reps)[:, None]) % p @ place
            const = ((ls @ form) * reps).sum(axis=1, keepdims=True)
            k = 4 * rep._psi_exp(half * ((ls - reps) @ form @ vecs.T + const))
            inside = in_perp[conj]
            sums = _trace_sums(ctx, len(vecs), [
                (omega.planes, rows, exps, every, sigma.den),
                (sigma.planes, q_rows[conj[inside]],
                 q_exps[conj[inside]] + k[inside][:, None], at[inside],
                 -chi * omega.den)])
            # psi(a) multiplies both sides by a unit of Z[zeta_4p], so the
            # sides agree at every a exactly when they agree at a = 0
            bad = np.flatnonzero((sums != 0).any(axis=1))
            if len(bad):
                return g, (_digits(int(bad[0]), p, space.dim), 0)
        return None

    witness = first_failure()
    return witness is None and induced_dim == rep.dim, {
        "induced_dim": induced_dim, "rep_dim": rep.dim, "witness": witness}


def _trace_sums(ctx, size, terms):
    """Sums of traces as (size x degree) power-basis rows: each term
    (planes, rows, exps, at, scale) adds scale trace(mat . m_b) to row
    at[b], for the matrix mat with the integer planes and the monomials
    m_b whose column s holds zeta^exps[b, s] in row rows[b, s].

    The entry planes[d, s, rows[b, s]] is gathered to d + exps[b, s] in a
    (size x 2N) array over the group ring Z[Z/N] (exps read mod N), and one
    product with the table of x^k mod Phi_N, k < 2N, reduces its rows.
    This runs in int64 when an exact bound shows that no partial sum can
    overflow, and on Python ints otherwise.
    """
    width = 2 * ctx.n
    # 2N max|x^k| times the sum of all |terms| bounds every partial sum;
    # object planes hold an entry beyond int64, so they break it
    bound = width * ctx._powers_extent * sum(
        _extent(planes) * abs(scale) * len(planes) * rows.size
        for planes, rows, _, _, scale in terms)
    dtype = np.int64 if bound < 2 ** 63 else object
    acc = np.zeros(size * width, dtype=dtype)
    for planes, rows, exps, at, scale in terms:
        deg, dim, _ = planes.shape
        d = np.arange(deg)[:, None, None]
        cells = d * dim * dim + np.arange(dim) * dim + rows
        spots = d + (np.asarray(at)[:, None] * width + exps % ctx.n)
        np.add.at(acc, spots.ravel(), planes.astype(dtype, copy=False)
                  .ravel()[cells.ravel()] * scale)
    return acc.reshape(size, width) @ ctx._powers.astype(dtype)


def _complement_transversal(space, perp):
    """Coset representatives of U-perp in V: the first vector of each coset,
    told apart by the linear forms that vanish on U-perp."""
    p = space.p
    forms = linalg.null_space(perp, p)
    reps = {}
    for v in space.vectors():
        reps.setdefault(linalg.mat_vec(forms, v, p), v)
    return list(reps.values())


def _basis_coords(space, g):
    """Rewrite an ambient-coordinate matrix in the distinguished symplectic
    basis (in which WeilSL2's Bruhat formulas are stated)."""
    if space.dim == 0:
        return ()
    p = space.p
    c = linalg.transpose(space.basis)
    return linalg.mat_mul(linalg.mat_mul(space._to_coordinates, g, p), c, p)


def heisenberg_rep(space, iota=None):
    """The Schroedinger-model representation of V# (functional entry
    point)."""
    return HeisenbergRep(space, iota)
