"""Unit tests for the truncated-series Iwahori convolution oracle."""

import random

import pytest

from heckeforge import (OracleError, TruncContext, Mat2, weyl_s, upper_u,
                        coroot, iwahori_member, bruhat_decompose,
                        epsilon_char, convolve_s, convolve_e,
                        welldefinedness_check, quadratic_relation, SignValue)
from heckeforge.sp4oracle import phi, random_iwahori


def test_trunc_context_validation():
    with pytest.raises(ValueError):
        TruncContext.for_q(4)  # 4 = 2^2 is even (rejected at the field level)
    with pytest.raises(OracleError):
        TruncContext.for_q(6)  # not a prime power
    with pytest.raises(OracleError):
        TruncContext.for_q(3, trunc=1)
    ctx = TruncContext.for_q(9)
    assert ctx.fq.q == 9


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


def test_iwahori_membership_pattern():
    ctx = TruncContext.for_q(3)
    assert iwahori_member(Mat2.identity(ctx))
    assert iwahori_member(upper_u(ctx, ctx.one))
    assert iwahori_member(Mat2(ctx, 1, 0, [0, 1], 1))  # c = t
    assert not iwahori_member(weyl_s(ctx))
    assert not iwahori_member(Mat2(ctx, 1, 0, 1, 1))  # c a unit


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


@pytest.mark.parametrize("q", [3, 5, 7, 9])
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


@pytest.mark.parametrize("q", [3, 9])
def test_convolution_on_given_context(q):
    ctx = TruncContext.for_q(q, 2)
    for twist in ("trivial", "sign"):
        assert (convolve_s(twist, q, 2, ctx=ctx)
                == convolve_s(twist, q, 2))
        assert (convolve_e(twist, q, 2, ctx=ctx)
                == convolve_e(twist, q, 2))
