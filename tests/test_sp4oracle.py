"""Unit tests for the truncated-series Iwahori convolution oracle, with a
per-coefficient FqElement series as the oracle of the code arithmetic."""

import itertools
import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heckeforge import (FqContext, OracleError, TruncContext, TruncSeries,
                        Mat2, weyl_s, upper_u, coroot, iwahori_member,
                        bruhat_decompose, epsilon_char, convolve_s,
                        convolve_e, welldefinedness_check,
                        quadratic_relation, SignValue)
from heckeforge import sp4oracle
from heckeforge.ffield import SMALL_FIELD_BOUND, _PolyArith, _PrimeArith
from heckeforge.sp4oracle import (TWISTS, _coset_phis, _phi_rows,
                                  _prime_power, phi, random_iwahori)


def test_trunc_context_validation():
    with pytest.raises(ValueError):
        TruncContext.for_q(4)  # 4 = 2^2 is even (rejected at the field level)
    with pytest.raises(OracleError):
        TruncContext.for_q(6)  # not a prime power
    with pytest.raises(OracleError):
        TruncContext.for_q(3, trunc=1)
    ctx = TruncContext.for_q(9)
    assert ctx.fq.q == 9


def test_for_q_is_shared():
    assert TruncContext.for_q(9, 2) is TruncContext.for_q(9, 2)
    assert TruncContext.for_q(9) is TruncContext.for_q(9, trunc=3)
    assert TruncContext.for_q(9, 2) is not TruncContext.for_q(9, 3)
    # one field per q: a second N does not search for a modulus again
    assert TruncContext.for_q(9, 2).fq is TruncContext.for_q(9, 3).fq


def test_series_ring():
    ctx = TruncContext.for_q(3, trunc=4)
    t = ctx.t
    a = ctx.one + t + t * t
    b = ctx.scalar(2) + t
    assert a * b == b * a
    assert (a + b) - b == a
    assert t.val() == 1 and ctx.zero.val() == 4
    assert not t.is_unit()
    assert a.is_unit()
    assert a * a.inv() == ctx.one
    with pytest.raises(OracleError):
        t.inv()
    assert (ctx.scalar(2) + t).residue() == ctx.fq.elem(2)
    # truncation: t^4 = 0
    assert (t * t * t * t).is_zero()


def test_mat2_enforces_determinant():
    ctx = TruncContext.for_q(3)
    with pytest.raises(OracleError):
        Mat2(ctx, 1, 0, 0, 2)
    m = Mat2(ctx, 1, 1, 0, 1)
    assert m * m.inv() == Mat2.identity(ctx)
    assert coroot(ctx, 2) == Mat2(ctx, 2, 0, 0, 2)  # 2^{-1} = 2 mod 3


def test_mat2_rejects_series_of_another_context():
    ctx3, ctx5 = TruncContext.for_q(3), TruncContext.for_q(5)
    with pytest.raises(OracleError):
        Mat2(ctx3, ctx5.one, 0, 0, 1)
    with pytest.raises(OracleError):
        Mat2(ctx3, 1, 0, 0, TruncContext.for_q(3, trunc=2).one)
    assert Mat2(ctx3, TruncContext.for_q(3).one, 0, 0, 1) == \
        Mat2.identity(ctx3)


def test_iwahori_membership_pattern():
    ctx = TruncContext.for_q(3)
    assert iwahori_member(Mat2.identity(ctx))
    assert iwahori_member(upper_u(ctx, ctx.one))
    assert iwahori_member(Mat2(ctx, 1, 0, [0, 1], 1))  # c = t
    assert not iwahori_member(weyl_s(ctx))
    assert not iwahori_member(Mat2(ctx, 1, 0, 1, 1))  # c a unit


def test_bruhat_decompose_on_all_of_sl2_over_f3_mod_t_squared():
    """Every g lies in InI, or g = k1 s k2 with both factors in I."""
    ctx = TruncContext.for_q(3, 2)
    s = weyl_s(ctx)
    series = [ctx.series(list(cs)) for cs
              in itertools.product(ctx.fq.elements(), repeat=2)]
    group = []
    for a, b, c, d in itertools.product(series, repeat=4):
        if a * d - b * c == ctx.one:
            group.append(Mat2(ctx, a, b, c, d))
    # |SL_2(F_3)| = 24 times the 3^3 elements of the kernel of reduction
    assert len(group) == 648
    cells = []
    for g in group:
        cell, data = bruhat_decompose(g)
        cells.append(cell)
        if cell == "InI":
            assert iwahori_member(g) and data == g
        else:
            k1, k2 = data
            assert iwahori_member(k1) and iwahori_member(k2)
            assert k1 * s * k2 == g
    # I has 6 * 9 * 3 = 162 elements (a a unit, b any, c in tO, d fixed by
    # the determinant) and IsI has q |I|
    assert (cells.count("InI"), cells.count("IsI")) == (162, 486)


def test_bruhat_decompose_reconstructs():
    ctx = TruncContext.for_q(5)
    s = weyl_s(ctx)
    rng = random.Random(3)
    for _ in range(50):
        k1 = random_iwahori(ctx, rng)
        k2 = random_iwahori(ctx, rng)
        g = k1 * s * k2
        cell, data = bruhat_decompose(g)
        assert cell == "IsI"
        d1, d2 = data
        assert iwahori_member(d1) and iwahori_member(d2)
        assert d1 * s * d2 == g
    k = random_iwahori(ctx, rng)
    cell, data = bruhat_decompose(k)
    assert cell == "InI" and data == k


def test_epsilon_char():
    ctx = TruncContext.for_q(3)
    k = upper_u(ctx, ctx.one)
    assert epsilon_char(k, "trivial") == SignValue(1)
    assert epsilon_char(k, "sign") == SignValue(1)
    k2 = coroot(ctx, 2)  # upper-left residue 2, a nonsquare mod 3
    assert epsilon_char(k2, "sign") == SignValue(-1)
    with pytest.raises(OracleError):
        epsilon_char(weyl_s(ctx), "sign")
    with pytest.raises(OracleError):
        epsilon_char(k, "bogus")


def test_phi_supported_on_isi():
    ctx = TruncContext.for_q(3)
    assert phi(Mat2.identity(ctx), "trivial") == 0
    assert phi(weyl_s(ctx), "trivial") == 1
    assert phi(weyl_s(ctx), "sign") == 1


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27, 49, 81, 121, 125, 243])
def test_convolution_values(q):
    assert convolve_s("trivial", q) == q - 1
    assert convolve_s("sign", q) == 0
    assert convolve_e("trivial", q) == q
    # (phi_2 * phi_2)(e) counts units weighted by sgn(-1/x . x) = sgn(-1)
    sgn_minus_one = 1 if q % 4 == 1 else -1
    assert convolve_e("sign", q) == sgn_minus_one * q


def test_truncation_independence():
    for twist in ("trivial", "sign"):
        vals = {(convolve_s(twist, 3, N), convolve_e(twist, 3, N))
                for N in (2, 3, 4)}
        assert len(vals) == 1


def test_welldefinedness():
    ok, witness = welldefinedness_check(3, samples=200)
    assert ok and witness is None


def test_quadratic_relation_pairs():
    assert quadratic_relation("trivial", 3) == (3, 2)
    assert quadratic_relation("sign", 3) == (-3, 0)
    assert quadratic_relation("trivial", 5) == (5, 4)
    assert quadratic_relation("sign", 5) == (5, 0)


@pytest.mark.parametrize("ell,matched", [(3, True), (5, False)])
def test_twist_separation_needs_ell_prime_to_q_minus_one(ell, matched):
    # T_s -> lam T_s maps T_s^2 = c_e + c_s T_s onto T_s^2 = d_e + d_s T_s
    # iff c_e = lam^2 d_e and c_s lam = lam^2 d_s.  At q = 7 over F_ell^2
    # that has a solution iff ell | q - 1 (then c_s = d_s = 0), and the
    # solution is a square root of -1, outside F_ell for ell = 3
    (c_e, c_s), (d_e, d_s) = (quadratic_relation(twist, 7)
                              for twist in ("trivial", "sign"))
    assert (c_e, c_s, d_e, d_s) == (7, 6, -7, 0)
    field = FqContext(ell, 2)
    c_e, c_s, d_e, d_s = map(field.elem, (c_e, c_s, d_e, d_s))
    lams = [lam for lam in field.units()
            if c_e == lam * lam * d_e and c_s * lam == lam * lam * d_s]
    if matched:
        assert len(lams) == 2
        assert all(lam * lam == -1 and lam.coeffs[1] != 0 for lam in lams)
    else:
        assert lams == []


@pytest.mark.parametrize("q", [3, 9])
def test_convolution_on_given_context(q, monkeypatch):
    # both convolutions run on the context TruncContext.for_q gives
    used, coset_phis = [], sp4oracle._coset_phis

    def spy(ctx, twist):
        used.append(ctx)
        return coset_phis(ctx, twist)
    monkeypatch.setattr(sp4oracle, "_coset_phis", spy)
    for twist in ("trivial", "sign"):
        convolve_s(twist, q, 2)
        convolve_e(twist, q, 2)
    assert used == [TruncContext.for_q(q, 2)] * 4
    assert all(ctx is used[0] for ctx in used)


# ---------------------------------------------------------------------------
# the batched pass against the per-x sums it replaced


def _oracle_convolve_s(twist, q, trunc):
    """(phi * phi)(s) as the sum over x in F_q of
    phi(u(x)s) . phi((u(x)s)^-1 s), one Mat2 at a time."""
    ctx = TruncContext.for_q(q, trunc)
    s = weyl_s(ctx)
    total = 0
    for x in ctx.fq.elements():
        h = upper_u(ctx, ctx.scalar(x)) * s
        total += phi(h, twist) * phi(h.inv() * s, twist)
    return total


def _oracle_convolve_e(twist, q, trunc):
    """(phi * phi)(e) over the same representatives."""
    ctx = TruncContext.for_q(q, trunc)
    s = weyl_s(ctx)
    total = 0
    for x in ctx.fq.elements():
        h = upper_u(ctx, ctx.scalar(x)) * s
        total += phi(h, twist) * phi(h.inv(), twist)
    return total


@pytest.mark.parametrize("trunc", [2, 3, 4])
@pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27, 49])
def test_batched_pass_matches_the_per_x_oracle(q, trunc):
    ctx = TruncContext.for_q(q, trunc)
    s = weyl_s(ctx)
    reps = [upper_u(ctx, ctx.scalar(x)) * s for x in ctx.fq.elements()]
    for twist in TWISTS:
        # the pass's phi values, representative by representative
        rows = _coset_phis(ctx, twist)
        assert rows.tolist() == [
            [phi(h, twist) for h in reps],
            [phi(h.inv(), twist) for h in reps],
            [phi(h.inv() * s, twist) for h in reps]]
        expected = (_oracle_convolve_e(twist, q, trunc),
                    _oracle_convolve_s(twist, q, trunc))
        got_s, got_e = (convolve_s(twist, q, trunc),
                        convolve_e(twist, q, trunc))
        assert (got_e, got_s) == expected
        assert quadratic_relation(twist, q, trunc) == expected
        assert type(got_s) is int and type(got_e) is int


def test_a_wrong_series_inverse_fails_the_determinant_check(monkeypatch):
    """k2 = [[c, d], [0, 1/c]] has determinant c . (1/c), so the pass's
    check catches an inverse that is off."""
    true_inv = sp4oracle._series_inv

    def off_by_t(tab, x):
        out = true_inv(tab, x)
        out[..., 1] = tab.add(out[..., 1], np.ones_like(out[..., 1]))
        return out
    monkeypatch.setattr(sp4oracle, "_series_inv", off_by_t)
    with pytest.raises(OracleError, match="determinant must be 1"):
        convolve_s("sign", 5, 2)


def test_phi_rows_rejects_a_matrix_outside_both_cells():
    # s = [[0, 1], [-1, 0]] lies in IsI; [[0, 1], [0, 0]] has c in tO but
    # a and d are not units, so it lies in no cell
    ctx = TruncContext.for_q(5, 2)
    s = [[(0, 0), (1, 0)], [(4, 0), (0, 0)]]
    stray = [[(0, 0), (1, 0)], [(0, 0), (0, 0)]]
    assert _phi_rows(ctx.fq._tables, np.array([s]), "sign").tolist() == [
        phi(weyl_s(ctx), "sign")]
    with pytest.raises(OracleError, match="escapes both cells"):
        _phi_rows(ctx.fq._tables, np.array([s, stray]), "sign")


# ---------------------------------------------------------------------------
# the lookup tables against the field's own code arithmetic

# a prime field, a Zech-table field and a polynomial field past the bound
TABLE_FIELDS = ((10007, 1), (3, 5), (101, 2))


@lru_cache(maxsize=None)
def _field(p, m):
    return FqContext(p, m)


def test_table_fields_cover_every_arithmetic():
    kinds = {type(_field(p, m)._arith).__name__ for p, m in TABLE_FIELDS}
    assert kinds == {"_PrimeArith", "_CodeTables", "_PolyArith"}
    assert _field(101, 2).q > SMALL_FIELD_BOUND


def _defining_arith(fq):
    """The arithmetic the field is defined by, independent of the tables
    that small extension fields also compute with."""
    return _PrimeArith(fq.p) if fq.m == 1 else _PolyArith(fq)


@st.composite
def _code_arrays(draw):
    p, m = draw(st.sampled_from(TABLE_FIELDS))
    fq = _field(p, m)
    # zero-heavy, so that sums and products with 0 occur
    code = st.one_of(st.just(0), st.just(1), st.just(fq.q - 1),
                     st.integers(0, fq.q - 1))
    size = draw(st.integers(1, 12))
    return (fq, draw(st.lists(code, min_size=size, max_size=size)),
            draw(st.lists(code, min_size=size, max_size=size)))


@settings(max_examples=300, deadline=None)
@given(_code_arrays())
def test_tables_match_the_field_arithmetic(case):
    fq, xs, ys = case
    tab, ar = fq._tables, _defining_arith(fq)
    a, b = np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)
    assert tab.add(a, b).tolist() == list(map(ar.add, xs, ys))
    assert tab.sub(a, b).tolist() == list(map(ar.sub, xs, ys))
    assert tab.mul(a, b).tolist() == list(map(ar.mul, xs, ys))
    assert tab.neg(a).tolist() == list(map(ar.neg, xs))
    units = [x for x in xs if x]
    u = np.array(units, dtype=np.int64)
    assert tab.inv(u).tolist() == list(map(ar.inv, units))
    assert tab.is_square(u).tolist() == list(map(ar.is_square, units))


@pytest.mark.parametrize("q", [3, 7, 9, 27, 49])
def test_tables_match_the_field_arithmetic_on_every_pair(q):
    """Exhaustive where random codes of a large field would rarely meet a
    given Zech entry."""
    fq = TruncContext.for_q(q, 2).fq
    tab, ar = fq._tables, _defining_arith(fq)
    xs, ys = (c.ravel() for c in np.meshgrid(np.arange(q), np.arange(q)))
    pairs = list(zip(xs.tolist(), ys.tolist()))
    assert tab.add(xs, ys).tolist() == [ar.add(x, y) for x, y in pairs]
    assert tab.sub(xs, ys).tolist() == [ar.sub(x, y) for x, y in pairs]
    assert tab.mul(xs, ys).tolist() == [ar.mul(x, y) for x, y in pairs]
    units = list(range(1, q))
    assert tab.inv(np.arange(1, q)).tolist() == list(map(ar.inv, units))
    assert tab.is_square(np.arange(1, q)).tolist() == list(
        map(ar.is_square, units))
    assert tab.neg(np.arange(q)).tolist() == list(map(ar.neg, range(q)))


def test_tables_are_read_only():
    tab = _field(3, 5)._tables
    with pytest.raises(ValueError):
        tab.exp[0] = 2


# ---------------------------------------------------------------------------
# the code-level series against a per-coefficient FqElement reference


class RefSeries:
    """c_0 + ... + c_{N-1} t^{N-1} as a tuple of FqElements, each operation
    done coefficient by coefficient in FqElement arithmetic."""

    def __init__(self, ctx, coeffs):
        fq = ctx.fq
        coeffs = [fq.elem(c) for c in coeffs[:ctx.trunc]]
        self.ctx = ctx
        self.coeffs = tuple(coeffs + [fq.zero] * (ctx.trunc - len(coeffs)))

    def __add__(self, other):
        return RefSeries(self.ctx, [a + b for a, b
                                    in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return RefSeries(self.ctx, [a - b for a, b
                                    in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return RefSeries(self.ctx, [-a for a in self.coeffs])

    def __mul__(self, other):
        n = self.ctx.trunc
        out = [self.ctx.fq.zero] * n
        for i, a in enumerate(self.coeffs):
            for j in range(n - i):
                out[i + j] = out[i + j] + a * other.coeffs[j]
        return RefSeries(self.ctx, out)

    def val(self):
        return next((i for i, c in enumerate(self.coeffs) if not c.is_zero()),
                    self.ctx.trunc)

    def inv(self):
        out = [self.coeffs[0].inv()]
        for k in range(1, self.ctx.trunc):
            acc = self.ctx.fq.zero
            for i in range(1, k + 1):
                acc = acc + self.coeffs[i] * out[k - i]
            out.append(-out[0] * acc)
        return RefSeries(self.ctx, out)


SERIES_FIELDS = (3, 7, 9, 25, 27)


@lru_cache(maxsize=None)
def _trunc_ctx(q, trunc):
    return TruncContext.for_q(q, trunc)


@st.composite
def _series_pairs(draw):
    ctx = _trunc_ctx(draw(st.sampled_from(SERIES_FIELDS)),
                     draw(st.sampled_from((2, 3, 4))))
    elements = list(ctx.fq.elements())

    def coeffs():
        # zero-heavy, so that units, non-units and zero series all occur
        return draw(st.lists(st.one_of(st.just(ctx.fq.zero),
                                       st.sampled_from(elements)),
                             min_size=ctx.trunc, max_size=ctx.trunc))
    return ctx, coeffs(), coeffs()


def _agrees(series, ref):
    assert isinstance(series, TruncSeries)
    assert series.coeffs == ref.coeffs
    assert series.codes == tuple(c.code for c in ref.coeffs)


@settings(max_examples=300, deadline=None)
@given(_series_pairs())
def test_series_codes_match_reference(case):
    ctx, xs, ys = case
    a, b = ctx.series(xs), ctx.series(ys)
    ra, rb = RefSeries(ctx, xs), RefSeries(ctx, ys)
    _agrees(a, ra)
    _agrees(a + b, ra + rb)
    _agrees(a - b, ra - rb)
    _agrees(-a, -ra)
    _agrees(a * b, ra * rb)
    assert a.val() == ra.val()
    assert a.is_unit() == (ra.val() == 0)
    assert a.is_zero() == (ra.val() == ctx.trunc)
    assert a.residue() == ra.coeffs[0]
    assert a.residue().ctx is ctx.fq
    if ra.val() == 0:
        _agrees(a.inv(), ra.inv())
    else:
        with pytest.raises(OracleError):
            a.inv()


# ---------------------------------------------------------------------------
# SL_2 is closed under products and inverses, which is why they skip the
# constructor's determinant check


def _det_is_one(g):
    return g.a * g.d - g.b * g.c == g.ctx.one


@pytest.mark.parametrize("q,trunc", [(3, 2), (5, 3), (9, 2), (25, 3),
                                     (27, 4)])
def test_products_and_inverses_keep_determinant_one(q, trunc):
    ctx = TruncContext.for_q(q, trunc)
    s = weyl_s(ctx)
    rng = random.Random(q * trunc)
    for _ in range(25):
        g, h = random_iwahori(ctx, rng), random_iwahori(ctx, rng)
        k1, k2 = bruhat_decompose(g * s * h)[1]
        for x in (g, h, k1, k2, g * s, s * h, g * s * h):
            assert _det_is_one(x) and _det_is_one(x.inv())
        for x, y in ((g, h), (k1, k2), (k1, s), (g * s * h, k2.inv())):
            assert _det_is_one(x * y)


def _iwahori_elements(ctx):
    """Every element of the Iwahori subgroup: a a unit, c in tO, d fixed by
    the determinant."""
    series = [ctx.series(list(cs)) for cs
              in itertools.product(ctx.fq.elements(), repeat=ctx.trunc)]
    units = [a for a in series if a.is_unit()]
    tails = [c for c in series if c.val() >= 1]
    return [Mat2(ctx, a, b, c, (ctx.one + b * c) * a.inv())
            for a in units for b in series for c in tails]


def test_phi_well_defined_on_every_pair_of_iwahori_elements():
    """phi(k1 s k2) = eps(k1) eps(k2) for all (k1, k2) in I x I at
    (q, N) = (3, 2); welldefinedness_check samples the same identity."""
    ctx = TruncContext.for_q(3, 2)
    s = weyl_s(ctx)
    iwahori = _iwahori_elements(ctx)
    assert len(iwahori) == 2 * 3 * 9 * 3
    eps = [int(epsilon_char(k, "sign")) for k in iwahori]
    for k1, e1 in zip(iwahori, eps):
        k1s = k1 * s
        for k2, e2 in zip(iwahori, eps):
            assert phi(k1s * k2, "sign") == e1 * e2


def _oracle_prime_power(q):
    """(p, m) with q = p^m by trial division over 2 .. q."""
    for p in range(2, q + 1):
        if q % p == 0:
            m, n = 0, q
            while n % p == 0:
                n //= p
                m += 1
            if n != 1:
                raise OracleError(f"{q} is not a prime power")
            return p, m
    raise OracleError(f"{q} is not a prime power")


def test_prime_power_matches_trial_division():
    for q in range(-3, 3001):
        try:
            want = _oracle_prime_power(q)
        except OracleError as e:
            with pytest.raises(OracleError) as got:
                _prime_power(q)
            assert str(got.value) == str(e)
        else:
            assert _prime_power(q) == want
