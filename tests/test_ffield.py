"""Unit tests for the F_q layer: sgn, square roots, zeta adjunction, and
the integer-coded arithmetic against the polynomial path as its oracle."""

import random
import time
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from heckeforge import (FieldError, FqContext, SignValue, sgn, square_root,
                        adjoin_zeta)
from heckeforge import ffield
from heckeforge.ffield import (SMALL_FIELD_BOUND, FqElement, _CodeTables,
                               _PolyArith, _PrimeArith, _is_irreducible,
                               _least_irreducible)
from heckeforge.gradedorth import GradedQuadraticSpace


FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2)]


def _ctx(p, m):
    return FqContext(p, m)


def test_rejects_even_characteristic_and_composites():
    with pytest.raises(FieldError):
        FqContext(2)
    with pytest.raises(FieldError):
        FqContext(9)
    with pytest.raises(FieldError):
        FqContext(3, 0)


def test_modulus_validation_and_default():
    assert FqContext(3, 2, (1, 0, 1)).modulus == (1, 0, 1)
    assert FqContext(3, 2, (4, 3, 4)).modulus == (1, 0, 1)
    for bad in [(2, 0, 1), (1, 1), (1, 0, 2)]:
        # x^2 - 1 is reducible; the others are not monic of degree 2
        with pytest.raises(FieldError):
            FqContext(3, 2, bad)
    for (p, m), modulus in {(3, 2): (1, 0, 1), (5, 2): (1, 1, 1),
                            (3, 3): (1, 0, 2, 1),
                            (3, 4): (1, 0, 1, 1, 1)}.items():
        ctx = FqContext(p, m)
        assert ctx.modulus == modulus
        assert FqContext(p, m, modulus) == ctx


def _oracle_least_irreducible(p, m):
    """The modulus search over every monic candidate of degree m, constant
    term 0 included, in increasing order (low degree first)."""
    for idx in range(p ** m):
        cand = [(idx // p ** (m - 1 - i)) % p for i in range(m)] + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_modulus_search_matches_the_full_scan(p):
    m = 2
    while p ** m <= 2500:
        assert _least_irreducible(p, m) == _oracle_least_irreducible(p, m)
        m += 1


@pytest.mark.parametrize("p,m", [(3, 14), (5, 8)])
def test_modulus_search_skips_the_candidates_divisible_by_x(
        monkeypatch, p, m):
    # the full scan ran a Rabin test on each of the p^(m-1) candidates with
    # constant term 0 before the first one that can be irreducible
    tests = []

    def spy(modulus, q):
        tests.append(modulus)
        return is_irreducible(modulus, q)
    is_irreducible = ffield._is_irreducible
    monkeypatch.setattr(ffield, "_is_irreducible", spy)
    ctx = FqContext(p, m)
    assert len(tests) < 100
    assert ctx.modulus[0] != 0 and is_irreducible(list(ctx.modulus), p)


def test_linear_modulus_is_validated_and_presents_the_prime_field():
    for good in [(0, 1), (1, 1), (2, 4), (-1, 1)]:
        ctx = FqContext(3, 1, good)
        assert ctx.modulus == (0, 1) and ctx == FqContext(3)
    for bad in [(1, 0, 1), (0, 0, 0, 5), (1,), (0, 2), (0, 3)]:
        # not monic of degree 1 once reduced mod 3
        with pytest.raises(FieldError, match="monic of degree m"):
            FqContext(3, 1, bad)


def test_field_axioms_small():
    ctx = FqContext(3, 2)
    els = list(ctx.elements())
    assert len(els) == 9
    for a in els:
        assert a + ctx.zero == a
        assert a * ctx.one == a
        if not a.is_zero():
            assert a * a.inv() == ctx.one
    # commutativity / distributivity spot check over the whole field
    for a in els:
        for b in els:
            assert a * b == b * a
            for c in els[:3]:
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("p,m", [(3, 2), (7, 2), (3, 5)])
def test_codes_stay_python_ints(p, m):
    # an np.int64 code would break json.dumps of the CLI's output
    ctx = FqContext(p, m)
    els = list(ctx.elements())
    for a in els:
        out = [-a, a ** 0, a ** 3, a ** ctx.q]
        if a.code:
            out += [a.inv(), a ** -1, a ** -5]
        root = square_root(a)
        if root is not None:
            out.append(root)
        for b in els:
            out += [a + b, a - b, a * b]
        assert all(type(c.code) is int for c in out)
    a = ctx.elem([1, 1])
    assert ctx.zero ** 0 == ctx.one and ctx.zero ** 3 == ctx.zero
    assert a ** -1 == a.inv() and a ** -3 * a ** 3 == ctx.one
    assert a ** -(ctx.q - 1) == ctx.one
    with pytest.raises(FieldError):
        ctx.zero ** -1


@pytest.mark.parametrize("p,m", FIELDS)
def test_sgn_multiplicative_exhaustive(p, m):
    ctx = _ctx(p, m)
    units = list(ctx.units())
    for a in units:
        for b in units:
            assert sgn(a * b) == sgn(a) * sgn(b)


@pytest.mark.parametrize("p,m", FIELDS)
def test_square_count_and_cancellation(p, m):
    ctx = _ctx(p, m)
    units = list(ctx.units())
    squares = [a for a in units if int(sgn(a)) == 1]
    assert len(squares) == (ctx.q - 1) // 2
    assert sum(int(sgn(a)) for a in units) == 0


@pytest.mark.parametrize("p,m", FIELDS)
def test_sgn_minus_one_iff_q_mod_4(p, m):
    ctx = _ctx(p, m)
    expected = 1 if ctx.q % 4 == 1 else -1
    assert int(sgn(-ctx.one)) == expected


@pytest.mark.parametrize("p,m", FIELDS)
def test_square_root_correct_and_deterministic(p, m):
    ctx = _ctx(p, m)
    assert square_root(ctx.zero) == ctx.zero
    for a in ctx.units():
        r = square_root(a)
        if int(sgn(a)) == 1:
            assert r is not None and r * r == a
            # determinism: repeated calls agree
            assert square_root(a) == r
        else:
            assert r is None


def test_sgn_of_zero_raises():
    ctx = FqContext(5)
    with pytest.raises(FieldError):
        sgn(ctx.zero)


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_adjoin_zeta(p, m):
    ctx = _ctx(p, m)
    big, embed, zeta = adjoin_zeta(ctx)
    assert zeta * zeta == -big.one
    if int(sgn(-ctx.one)) == 1:
        assert big is ctx
    else:
        assert big.q == ctx.q ** 2
    # embed is a ring homomorphism
    els = list(ctx.elements())
    for a in els:
        for b in els[:4]:
            assert embed(a + b) == embed(a) + embed(b)
            assert embed(a * b) == embed(a) * embed(b)
    assert embed(ctx.one) == big.one


def test_shared_field_is_built_once_per_p_and_m():
    assert FqContext.shared(3, 2) is FqContext.shared(3, 2)
    assert FqContext.shared(3, 2) == FqContext(3, 2)
    assert FqContext.shared(7) is FqContext.shared(7, 1)
    with pytest.raises(FieldError):
        FqContext.shared(9)


def _oracle_embedding(ctx, big):
    """The embedding of ctx into big that sends x to the least root (in
    code order) of ctx's modulus, evaluated by Horner's rule: the first
    root of a scan of big in code order."""
    root = next(r for r in big.elements()
                if _horner(big, [big.elem(c) for c in ctx.modulus], r)
                .is_zero())
    return lambda a: _horner(big, [big.elem(c) for c in a.coeffs], root)


def _horner(big, coeffs, x):
    acc = big.zero
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@pytest.mark.parametrize("p,m", [(3, 1), (7, 1), (3, 3), (3, 5), (7, 3)])
def test_adjoin_zeta_shares_the_extension_of_equal_fields(p, m):
    # two equal fields, built apart, get one F_{q^2} and one embedding
    first, second = FqContext(p, m), FqContext(p, m)
    big, embed, zeta = adjoin_zeta(first)
    big2, embed2, zeta2 = adjoin_zeta(second)
    assert big is big2 is FqContext.shared(p, 2 * m)
    assert embed is embed2 and zeta == zeta2
    oracle = _oracle_embedding(first, big)
    assert all(embed(a) == embed2(second.elem(a.coeffs)) == oracle(a)
               for a in first.elements())


@pytest.mark.parametrize("p,m", [(3, 7), (11, 3)])
def test_adjoin_zeta_finds_the_least_root_without_a_scan_of_the_big_field(
        p, m):
    # a scan of F_{q^2} took a minute at F_{3^7}: the root search runs over
    # the q - 1 units of F_q's image, and the build is linear in q
    ctx = FqContext(p, m)
    start = time.perf_counter()
    big, embed, zeta = ffield._zeta_extension.__wrapped__(ctx)
    assert time.perf_counter() - start < 2
    assert big is FqContext.shared(p, 2 * m) and zeta * zeta == -big.one
    root = embed(ctx.elem([0, 1]))
    modulus = [big.elem(c) for c in ctx.modulus]
    # the roots of the modulus are the m Frobenius conjugates of root
    conjugates = [root ** (p ** j) for j in range(m)]
    assert len({c.code for c in conjugates}) == m
    assert all(_horner(big, modulus, c).is_zero() for c in conjugates)
    assert root.code == min(c.code for c in conjugates)
    rng = random.Random(p * m)
    sample = [ctx.elem([rng.randrange(p) for _ in range(m)])
              for _ in range(20)]
    for a, b in zip(sample, sample[1:]):
        assert embed(a + b) == embed(a) + embed(b)
        assert embed(a * b) == embed(a) * embed(b)
    assert embed(ctx.one) == big.one


def test_zeta_extension_makes_no_field_element_arithmetic(monkeypatch):
    # the root search, the embedding and the extended Gram matrix of a
    # graded space run on codes
    def refuse(*args):
        raise AssertionError("FqElement arithmetic")
    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__",
                 "inv"):
        monkeypatch.setattr(FqElement, name, refuse)
    ctx = FqContext(3, 5)
    big, embed, _ = ffield._zeta_extension.__wrapped__(ctx)
    assert [embed(ctx.elem([0, 1])).code, embed(ctx.elem([1, 2, 1])).code] \
        == [9, 100]
    space = GradedQuadraticSpace(FqContext(3, 3), [("a", 2, "asym")],
                                 [[0, 1], [1, 0]])
    assert space.ext_ctx.q == 3 ** 6 and space._ext_gram == ((0, 1), (1, 0))


def test_sign_value_arithmetic():
    assert SignValue(1) * SignValue(-1) == SignValue(-1)
    assert int(SignValue(-1)) == -1
    with pytest.raises(ValueError):
        SignValue(0)


# ---------------------------------------------------------------------------
# integer codes against the polynomial path


TABLE_FIELDS = [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (11, 2)]


def _least_root_table(ctx):
    """The old exhaustive square-root table: for each square, its root with
    the least coefficient tuple."""
    table = {}
    for x in ctx.elements():
        sq = x * x
        if sq not in table or x.coeffs < table[sq].coeffs:
            table[sq] = x
    return table


def test_codes_and_coefficient_tuples():
    for p, m in [(7, 1)] + TABLE_FIELDS:
        ctx = FqContext(p, m)
        els = list(ctx.elements())
        # elements() keeps its order: the first coefficient varies fastest
        assert [a.coeffs for a in els] == [
            tuple(idx // p ** i % p for i in range(m))
            for idx in range(ctx.q)]
        assert all(type(a.coeffs) is tuple for a in els)
        assert all(ctx.elem(list(a.coeffs)) == a for a in els)
        assert ctx.zero.coeffs == (0,) * m
        assert ctx.one.coeffs == (1,) + (0,) * (m - 1)


@pytest.mark.parametrize("p,m", TABLE_FIELDS)
def test_zech_tables_match_polynomial_path(p, m):
    ctx = FqContext(p, m)
    assert type(ctx._arith) is _CodeTables
    poly = _PolyArith(ctx)
    els = list(ctx.elements())
    roots = _least_root_table(ctx)
    for a in els:
        x = a.code
        assert (-a).code == poly.neg(x)
        if x:
            assert a.inv().code == poly.inv(x)
            square = poly.is_square(x)
            assert sgn(a) == (1 if square else -1)
            r = square_root(a)
            assert (r.code if r is not None else None) == (
                poly.sqrt(x) if square else None)
            assert r == roots.get(a)
        for b in els:
            y = b.code
            assert (a + b).code == poly.add(x, y)
            assert (a - b).code == poly.sub(x, y)
            assert (a * b).code == poly.mul(x, y)
            assert (a == b) == (a.coeffs == b.coeffs)
            if a == b:
                assert hash(a) == hash(b)


def test_equal_contexts_share_equality_and_hashes():
    # sp4 builds a fresh context on every call
    one, two = FqContext(5, 2), FqContext(5, 2)
    assert one is not two and one == two and hash(one) == hash(two)
    for a, b in zip(one.elements(), two.elements()):
        assert a == b and hash(a) == hash(b)
        assert a + b == a * 2 == b + a
    assert {a: a.code for a in one.elements()}[two.elem([3, 4])] == 23
    with pytest.raises(FieldError):
        FqContext(5, 1).one + one.one


def test_arithmetic_is_chosen_by_the_field():
    assert type(FqContext(10007)._arith) is _PrimeArith
    assert type(FqContext(3, 2)._arith) is _CodeTables
    big = FqContext(101, 2)
    assert big.q > SMALL_FIELD_BOUND
    assert type(big._arith) is _PolyArith


LARGE_PRIME = 10007


@lru_cache(maxsize=None)
def _large_prime():
    ctx = FqContext(LARGE_PRIME)
    return ctx, _PolyArith(ctx)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, LARGE_PRIME - 1), st.integers(0, LARGE_PRIME - 1))
def test_large_prime_field_matches_polynomial_path(x, y):
    ctx, poly = _large_prime()
    a, b = ctx.elem(x), ctx.elem(y)
    assert (a + b).code == poly.add(x, y)
    assert (a - b).code == poly.sub(x, y)
    assert (a * b).code == poly.mul(x, y)
    if x:
        assert a.inv().code == poly.inv(x)
        assert int(sgn(a)) == (1 if poly.is_square(x) else -1)
        r = square_root(a)
        if poly.is_square(x):
            assert r.code == poly.sqrt(x) == min(r.code, LARGE_PRIME - r.code)
            assert r * r == a
        else:
            assert r is None


@lru_cache(maxsize=None)
def _past_the_bound():
    """F_{101^2}, which computes with polynomials, and the scalar view of
    tables for it built anyway as the reference."""
    ctx = FqContext(101, 2)
    return ctx, _CodeTables(_PolyArith(ctx)).scalar()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 101 ** 2 - 1), st.integers(0, 101 ** 2 - 1))
def test_field_past_the_bound_matches_tables(x, y):
    ctx, tables = _past_the_bound()
    a, b = ctx.elem([x % 101, x // 101]), ctx.elem([y % 101, y // 101])
    assert (a.code, b.code) == (x, y)
    assert (a + b).code == tables.add(x, y)
    assert (a - b).code == tables.sub(x, y)
    assert (a * b).code == tables.mul(x, y)
    if x:
        assert a.inv().code == tables.inv(x)
        square = tables.is_square(x)
        assert int(sgn(a)) == (1 if square else -1)
        r = square_root(a)
        assert (r.code if r is not None else None) == (
            tables.sqrt(x) if square else None)
