"""Symplectic F_p-spaces, Heisenberg groups and their representations, the
Weil representation of SL_2(F_p) (projective intertwiners for higher rank),
the det-sign character on stabilized isotropic subspaces, and the exact
induction identity that witnesses the necessity of that character.

All representation matrices are exact, over Q(zeta_{4p}).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import linalg
from .cyclo import CycloContext, CycloMatrix, CyclotomicNumber
from .ffield import SignValue, _code, _digits, _is_prime


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
        remaining = []
        for idx in range(self.dim):
            v = [0] * self.dim
            v[idx] = 1
            remaining.append(tuple(v))
        es, fs = [], []
        pool = list(remaining)
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
        self.cyclo = CycloContext(4 * p)
        self.dim = p ** space.n
        self._half = (p + 1) // 2

    def _psi_exp(self, a):
        """Exponent e with psi(a) = zeta_{4p}^{4e}."""
        return (a * self.iota.unit_inv) % self.space.p

    def psi(self, a):
        return self.cyclo.zeta_pow(4 * self._psi_exp(a))

    def _coords(self, elem):
        """Split (v, a) into e-part x, f-part y in the symplectic basis."""
        c = self.space.coordinates(elem.v)
        n = self.space.n
        return c[:n], c[n:]

    def _monomial(self, elem):
        """rho(v, a) is monomial: column s holds the single entry
        zeta_{4p}^{exps[s]} in row rows[s].  Returns (rows, exps)."""
        p = self.space.p
        n = self.space.n
        x, y = self._coords(elem)
        base = elem.a - self._half * sum(xi * yi for xi, yi in zip(x, y))
        rows, exps = [], []
        for sidx in range(self.dim):
            t = [si + yi for si, yi in zip(_digits(sidx, p, n), y)]
            rows.append(_code(t, p))
            exps.append(4 * self._psi_exp(
                base + sum(xi * ti for xi, ti in zip(x, t))))
        return rows, exps

    def operator(self, elem):
        """Exact matrix of rho(v, a)."""
        rows, exps = self._monomial(elem)
        return CycloMatrix.from_zeta_powers(
            self.cyclo, self.dim, zip(rows, range(self.dim), exps))

    def character(self, elem):
        """Trace of rho(v, a): p^n psi(a) on the center, 0 elsewhere."""
        if any(self.space.coordinates(elem.v)):
            return self.cyclo.zero()
        return self.psi(elem.a) * self.dim

    def trace_with(self, mat, elem):
        """Trace of mat . rho(v, a) = sum_s mat[s, rows[s]] zeta^{exps[s]},
        accumulated in the group ring Z[Z/4p] and reduced mod Phi_{4p}
        once."""
        ctx = self.cyclo
        rows, exps = self._monomial(elem)
        entries = {(s, t): [(d, int(c))
                            for d, c in enumerate(mat.planes[:, s, t]) if c]
                   for s, t in enumerate(rows)}
        acc = [0] * ctx.n
        _add_trace(acc, entries, rows, exps)
        return CyclotomicNumber(ctx, ctx.reduce(acc), mat.den)


# ---------------------------------------------------------------------------
# Weil representation of SL_2(F_p)


@lru_cache(maxsize=None)
def _gauss_sum(p, unit_inv, conductor):
    ctx = CycloContext(conductor)
    g = ctx.zero()
    for t in range(p):
        g = g + ctx.zeta_pow(4 * ((t * t * unit_inv) % p))
    return g


class WeilSL2:
    """The genuine Weil representation of SL_2(F_p) on the Schroedinger
    model; multiplicativity is verified empirically by the test suite, not
    assumed."""

    def __init__(self, rep):
        if rep.space.n != 1:
            raise SympError("weil_sl2 needs a 2-dimensional space")
        self.rep = rep
        self.p = rep.space.p
        self.cyclo = rep.cyclo
        self._gauss = _gauss_sum(self.p, rep.iota.unit_inv, 4 * self.p)
        self._cache = {}
        self._weyl_matrix = None

    def _upper(self, b):
        """omega(u(b)) = multiplication by psi(b t^2 / 2)."""
        p = self.p
        half = (p + 1) // 2
        return CycloMatrix.from_zeta_powers(
            self.cyclo, p, ((t, t, 4 * self.rep._psi_exp(b * half * t * t))
                            for t in range(p)))

    def _diag(self, alpha):
        """omega(diag(alpha, 1/alpha)) = sgn(alpha) . (phi -> phi(alpha t));
        the sign -1 is zeta_{4p}^{2p}."""
        p = self.p
        e = 0 if _sgn_mod_p(alpha, p) == 1 else 2 * p
        ainv = pow(alpha, p - 2, p)
        return CycloMatrix.from_zeta_powers(
            self.cyclo, p, ((s * ainv % p, s, e) for s in range(p)))

    def _weyl(self):
        """omega(w), w = [[0,-1],[1,0]]: normalized Fourier transform,
        built once per instance."""
        if self._weyl_matrix is None:
            self._weyl_matrix = self._build_weyl()
        return self._weyl_matrix

    def _build_weyl(self):
        p = self.p
        m = CycloMatrix.from_zeta_powers(
            self.cyclo, p, ((t, s, 4 * self.rep._psi_exp(-s * t))
                            for t in range(p) for s in range(p)))
        # the constant sgn(2)/G is forced by W U(b) W = U(-1/b) W D(b) U(-1/b)
        # (complete the square; the quadratic sum contributes sgn(b/2) G);
        # 1/G = conj(G)/p since G conj(G) = p
        return (m.scale(self._gauss.conj())
                .scale(Fraction(_sgn_mod_p(2, p), p)))

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
        if c == 0:
            # g = diag(a, 1/a) . u(b/a)
            m = self._diag(a) @ self._upper(b * pow(a, p - 2, p))
        else:
            # g = u(a/c) . w . diag(c, 1/c) . u(d/c)
            cinv = pow(c, p - 2, p)
            m = (self._upper(a * cinv) @ self._weyl()
                 @ self._diag(c) @ self._upper(d * cinv))
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
    normalized so the first nonzero entry (row-major) is 1.  Unique up to
    scalar; the scalar normalization for n >= 2 is deliberately not chosen
    to be anything more canonical."""
    space = rep.space
    if not space.is_symplectic_matrix(g):
        raise SympError("matrix is not symplectic")
    p = space.p
    dim = rep.dim
    # rho(gv) and rho(-v) = rho(v)^-1 as monomials, once per v
    terms = [(rep._monomial(HeisenbergElement(space, linalg.mat_vec(g, v, p),
                                              0)),
              rep._monomial(HeisenbergElement(space, [-x for x in v], 0)))
             for v in space.vectors()]
    for seed in range(dim * dim):
        i, j = divmod(seed, dim)
        # rho(gv) E_ij rho(-v) is column i of rho(gv) times row j of rho(-v)
        t = CycloMatrix.from_zeta_powers(rep.cyclo, dim, (
            (g_rows[i], s, g_exps[i] + v_exps[s])
            for (g_rows, g_exps), (v_rows, v_exps) in terms
            for s in range(dim) if v_rows[s] == j))
        if not t.is_zero():
            _, _, e = t.first_nonzero()
            return t.scale(e.inv())
    raise SympError("no nonzero intertwiner found")


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
    if u_basis:
        rows = [[space.pairing(u, tuple(1 if i == j else 0
                                        for i in range(space.dim)))
                 for j in range(space.dim)] for u in u_basis]
        # null space of the pairing rows
        perp = linalg.null_space(rows, p)
    else:
        perp = [tuple(1 if i == j else 0 for i in range(space.dim))
                for j in range(space.dim)]
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
    def unit(i):
        return tuple(1 if k == i else 0 for k in range(space.dim))
    v1 = [unit(i) for i, w in enumerate(weights) if w < 0]
    v2 = [unit(i) for i, w in enumerate(weights) if w == 0]
    v3 = [unit(i) for i, w in enumerate(weights) if w > 0]
    return v1, v2, v3


# ---------------------------------------------------------------------------
# the induction identity


def _stabilizer_sl2(space, u_basis):
    p = space.p
    out = []
    for g in sl2_elements(p):
        try:
            _det_sign(space, g, u_basis)
            out.append(g)
        except SympError:
            continue
    return out


def induction_identity_check(space, u_basis, mode="with_sl2_levi",
                             include_chi=True, iota=None):
    """Exact character comparison for the restriction-vs-induction identity
    of the Heisenberg(-Weil) representation along a totally isotropic U.

    Returns (equal, details): equal is the exact character equality; details
    carries the dimension bookkeeping and the two character tables.
    """
    p = space.p
    u_basis = _span_basis(u_basis, p)
    _require_totally_isotropic(space, u_basis)
    perp, quotient, lifts = isotropic_reduction(space, u_basis)
    u = len(u_basis)
    n = space.n
    rep = HeisenbergRep(space, iota)
    qrep = HeisenbergRep(quotient, iota) if quotient.dim else None
    ctx = rep.cyclo
    psi = rep.psi

    induced_dim = p ** u * p ** ((space.dim - 2 * u) // 2)
    dims_ok = induced_dim == p ** n

    perp_cols = linalg.transpose(lifts + u_basis)

    def quotient_coords(v):
        """Coordinates of v-bar in the lifted basis of U-perp/U, or None
        when v is not in U-perp."""
        sol = linalg.solve(perp_cols, v, p)
        return None if sol is None else sol[:len(lifts)]

    if mode == "heisenberg_only":
        # compare chi of rho|_{V#} with the character induced from the
        # pullback of the quotient Heisenberg representation on (U-perp)#
        transversal = _complement_transversal(space, perp)
        table_lhs, table_rhs = [], []
        equal = True
        for v in space.vectors():
            for a in range(p):
                h = HeisenbergElement(space, v, a)
                lhs = rep.character(h)
                rhs = ctx.zero()
                for w in transversal:
                    r = HeisenbergElement(space, w, 0)
                    conj = r.inv() * h * r
                    qv = quotient_coords(conj.v)
                    if qv is None:
                        continue
                    if qrep is None:
                        rhs = rhs + psi(conj.a)
                    else:
                        rhs = rhs + qrep.character(
                            HeisenbergElement(quotient, qv, conj.a))
                table_lhs.append(lhs)
                table_rhs.append(rhs)
                if lhs != rhs:
                    equal = False
        return equal and dims_ok, {
            "induced_dim": induced_dim, "rep_dim": p ** n,
            "lhs": table_lhs, "rhs": table_rhs}

    if mode != "with_sl2_levi":
        raise SympError(f"unknown mode {mode!r}")
    if quotient.dim not in (0, 2):
        raise SympError("with_sl2_levi requires dim(U-perp/U) in {0, 2}")
    if space.dim != 2:
        raise SympError("with_sl2_levi is implemented for dim V = 2")

    stab = _stabilizer_sl2(space, u_basis)
    weil = WeilSL2(rep)
    big_n = ctx.n
    half = (p + 1) // 2
    vectors = list(space.vectors())
    columns = [rep._monomial(HeisenbergElement(space, v, 0)) for v in vectors]
    # the sigma-term of each vector of U-perp at central part 0: the
    # monomial columns of the quotient representation, or None for psi
    sigma_columns = {}
    for v in vectors:
        qv = quotient_coords(v)
        if qv is not None:
            sigma_columns[v] = None if qrep is None else qrep._monomial(
                HeisenbergElement(quotient, qv, 0))
    coset_reps = _complement_transversal(space, perp)

    def first_failure():
        for g in stab:
            ginv = linalg.mat_inv(g, p)
            weil_g = weil(_basis_coords(space, g))
            chi = 1
            if include_chi and u_basis:
                chi = int(_det_sign(space, g, u_basis))
            # compare lhs / weil_g.den with rhs / sigma_den crosswise
            if qrep is None:
                sigma_den, sigma_g = 1, None
            else:
                # qrep exists only for U = 0 (dim V = 2), where the quotient
                # is V itself and its Weil operator is weil_g
                sigma_den = weil_g.den
                sigma_g = _sparse_entries(weil_g, chi * weil_g.den)
            lhs_g = _sparse_entries(weil_g, sigma_den)
            # r = (1, (w, 0)):  r^{-1} (g, (v, a)) r = (g, (v + l + w, a + c))
            # with l = -g^{-1} w and c = half (<l - w, v> + <l, w>)
            shifts = []
            for w in coset_reps:
                l = tuple((-x) % p for x in linalg.mat_vec(ginv, w, p))
                lw = linalg.vec_sub(l, w, p)
                row = [sum(lw[i] * space.form[i][j] for i in range(space.dim))
                       for j in range(space.dim)]
                shifts.append((linalg.vec_add(l, w, p), row,
                               space.pairing(l, w)))
            for v, (rows, exps) in zip(vectors, columns):
                lhs = [0] * big_n
                _add_trace(lhs, lhs_g, rows, exps)
                rhs = [0] * big_n
                for shift, row, const in shifts:
                    conj_v = linalg.vec_add(v, shift, p)
                    if conj_v not in sigma_columns:
                        continue
                    k = 4 * rep._psi_exp(
                        half * (sum(r * x for r, x in zip(row, v)) + const))
                    if sigma_g is None:
                        rhs[k] += chi * weil_g.den
                    else:
                        _add_trace(rhs, sigma_g, *sigma_columns[conj_v], k)
                # psi(a) multiplies both sides by a unit of Z[zeta_4p], so
                # the sides agree at every a exactly when they agree at a = 0
                if any(ctx.reduce([x - y for x, y in zip(lhs, rhs)])):
                    return g, (v, 0)
        return None

    witness = first_failure()
    return witness is None and dims_ok, {
        "induced_dim": induced_dim, "rep_dim": p ** n, "witness": witness}


def _sparse_entries(mat, scale=1):
    """The nonzero entries of scale * mat's planes: {(s, t): [(d, c), ...]}
    with int c, meaning mat[s, t] = sum c zeta^d / mat.den."""
    out = {}
    planes = mat.planes
    for d, s, t in zip(*np.nonzero(planes)):
        out.setdefault((int(s), int(t)), []).append(
            (int(d), scale * int(planes[d, s, t])))
    return out


def _add_trace(acc, entries, rows, exps, shift=0):
    """acc += zeta^shift trace(mat . m) in the group ring Z[Z/len(acc)],
    for mat given by its sparse entries and m monomial with column s
    holding zeta^exps[s] in row rows[s]."""
    n = len(acc)
    for s, (t, e) in enumerate(zip(rows, exps)):
        for d, c in entries.get((s, t), ()):
            acc[(d + e + shift) % n] += c


def _quotient_action(space, quotient, lifts, u_basis, g):
    """Matrix of the action induced by g on U-perp/U in the lifted basis."""
    p = space.p
    m = linalg.transpose(lifts + u_basis)
    out = []
    for lv in lifts:
        sol = linalg.solve(m, linalg.mat_vec(g, lv, p), p)
        if sol is None:
            raise SympError("g does not stabilize U-perp")
        out.append(sol[:len(lifts)])
    return tuple(zip(*out))


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
    return linalg.mat_mul(linalg.mat_mul(linalg.mat_inv(c, p), g, p), c, p)


def heisenberg_rep(space, iota=None):
    """The Schroedinger-model representation of V# (functional entry
    point)."""
    return HeisenbergRep(space, iota)
