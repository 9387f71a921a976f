"""Unit tests for graded quadratic spaces and the mu_4-valued extended
character."""

import itertools
import random

import pytest

from heckeforge import (FqContext, GradedError, GradedQuadraticSpace,
                        Mu4Value, zeta_scaling, glplus_membership,
                        otilde_membership, extended_sn, QuadSpaceError,
                        OrthogonalMap, sgn_spinor, random_orthogonal)
from heckeforge import linalg


def _one_orbit_space(p):
    ctx = FqContext(p)
    return GradedQuadraticSpace(ctx, [("a", 2, "asym")], [[0, 1], [1, 0]])


def _orthogonal_matrices(space):
    """All of O(V) for a tiny 2-dimensional space (brute force)."""
    ctx = space.ctx
    els = list(ctx.elements())
    out = []
    for flat in itertools.product(els, repeat=4):
        rows = [flat[:2], flat[2:]]
        try:
            out.append(OrthogonalMap(space.space, rows))
        except QuadSpaceError:
            continue
    return out


@pytest.mark.parametrize("p,m", [(3, 1), (7, 1), (3, 3)])
def test_spaces_over_equal_fields_share_the_extension(p, m):
    # -1 is a nonsquare in each field, so ext_ctx is F_{q^2}
    first, second = (GradedQuadraticSpace(FqContext(p, m), [("b", 1, "sym")],
                                          [[1]]) for _ in range(2))
    assert first.ctx is not second.ctx
    assert first.ext_ctx is second.ext_ctx
    assert first.ext_ctx.q == (p ** m) ** 2


@pytest.mark.parametrize("q", [3, 7, 9, 27])
def test_retraction_matches_the_embedding_table(q):
    # F_27 (m = 3, -1 a nonsquare) embeds into F_729 off the constants
    ctx = FqContext(3, 2) if q == 9 else (
        FqContext(3, 3) if q == 27 else FqContext(q))
    space = GradedQuadraticSpace(ctx, [("b", 1, "sym")], [[2]])
    table = {space.embed(a): a for a in ctx.elements()}
    assert len(table) == q
    for x in space.ext_ctx.elements():
        assert space.is_rational(x) == (x in table)
        if x in table:
            assert space.retract(x) == table[x]
        else:
            with pytest.raises(GradedError):
                space.retract(x)


def test_block_shape_validation():
    ctx = FqContext(3)
    with pytest.raises(GradedError):
        # asym block of odd dimension
        GradedQuadraticSpace(ctx, [("a", 1, "asym")], [[2]])
    with pytest.raises(GradedError):
        # asym block with a nonzero half-diagonal sub-block
        GradedQuadraticSpace(ctx, [("a", 2, "asym")], [[2, 0], [0, 2]])
    with pytest.raises(GradedError):
        # gram couples two distinct orbit-blocks
        GradedQuadraticSpace(ctx, [("a", 1, "sym"), ("b", 1, "sym")],
                             [[2, 1], [1, 1]])


def test_sqrt_sign_choice_validated():
    ctx = FqContext(3)  # sgn(-1) = -1, so the root must be +-i
    with pytest.raises(GradedError):
        GradedQuadraticSpace(ctx, [("a", 2, "asym")], [[0, 1], [1, 0]],
                             sqrt_sign_of_minus_one=Mu4Value(0))
    sp = GradedQuadraticSpace(ctx, [("a", 2, "asym")], [[0, 1], [1, 0]],
                              sqrt_sign_of_minus_one=Mu4Value(3))
    assert sp.sqrt_sign == Mu4Value(3)


def test_zeta_scaling_asym_only():
    ctx = FqContext(3)
    sp = GradedQuadraticSpace(ctx, [("a", 2, "asym"), ("b", 1, "sym")],
                              [[0, 1, 0], [1, 0, 0], [0, 0, 2]])
    z = zeta_scaling(sp, "a")
    assert z[0][0] == sp.zeta and z[2][2] == sp.ext_ctx.one
    with pytest.raises(GradedError):
        zeta_scaling(sp, "b")


def test_glplus_membership_block_permutation():
    ctx = FqContext(3)
    sp = GradedQuadraticSpace(
        ctx, [("a", 1, "sym"), ("b", 1, "sym")], [[2, 0], [0, 2]])
    swap = sp.embed_matrix([[0, 1], [1, 0]])
    ok, perm = glplus_membership(sp, swap)
    assert ok and perm == {"a": "b", "b": "a"}
    # a matrix mixing the two blocks is rejected
    mix = sp.embed_matrix([[1, 1], [1, 2]])
    ok, perm = glplus_membership(sp, mix)
    assert not ok and perm is None


def test_otilde_membership_factors_zeta_scaling():
    sp = _one_orbit_space(3)
    z = zeta_scaling(sp, "a")
    fact = otilde_membership(sp, z)
    assert fact is not None
    h, exps = fact
    assert h.is_identity()
    assert exps == {"a": 1}
    # a non-member: a shear is not orthogonal up to zeta-scalings
    assert otilde_membership(sp, sp.embed_matrix([[1, 1], [0, 1]])) is None


def test_otilde_membership_lets_bugs_through(monkeypatch):
    from heckeforge import gradedorth

    def broken(*args, **kwargs):
        raise RuntimeError("deliberate bug")
    sp = _one_orbit_space(3)
    z = zeta_scaling(sp, "a")
    monkeypatch.setattr(gradedorth, "OrthogonalMap", broken)
    with pytest.raises(RuntimeError):
        otilde_membership(sp, z)


@pytest.mark.parametrize("p,expected", [(3, Mu4Value(1)), (5, Mu4Value(0))])
def test_extended_sn_of_zeta_scaling(p, expected):
    sp = _one_orbit_space(p)
    assert extended_sn(sp, zeta_scaling(sp, "a")) == expected


@pytest.mark.parametrize("p", [3, 5])
def test_extended_sn_homomorphism_exhaustive(p):
    sp = _one_orbit_space(p)
    z = zeta_scaling(sp, "a")
    group = []
    for h in _orthogonal_matrices(sp):
        m = sp.embed_matrix(h.matrix)
        group.append(m)
        group.append(linalg.mat_mul(m, z))
    values = {}

    def key(m):
        return tuple(tuple(x.coeffs for x in row) for row in m)

    for g in group:
        values[key(g)] = extended_sn(sp, g)
    for g1 in group:
        for g2 in group:
            prod = linalg.mat_mul(g1, g2)
            assert values[key(prod)] == values[key(g1)] * values[key(g2)]


@pytest.mark.parametrize("p", [3, 5])
def test_extended_sn_restriction_agrees(p):
    sp = _one_orbit_space(p)
    for h in _orthogonal_matrices(sp):
        assert (extended_sn(sp, sp.embed_matrix(h.matrix))
                == Mu4Value.from_sign(sgn_spinor(h)))


def test_extended_sn_quadratic_when_minus_one_square():
    # over F_5 sgn(-1) = +1, so the character is {+-1}-valued
    sp = _one_orbit_space(5)
    z = zeta_scaling(sp, "a")
    for h in _orthogonal_matrices(sp):
        for m in (sp.embed_matrix(h.matrix),
                  linalg.mat_mul(sp.embed_matrix(h.matrix), z)):
            assert extended_sn(sp, m).is_quadratic()


@pytest.mark.parametrize("p", [3, 5])
def test_consistency_square_identity(p):
    # sn~(zeta-scaling)^2 = sgn o sn(zeta-scaling^2), the latter rational
    sp = _one_orbit_space(p)
    z = zeta_scaling(sp, "a")
    z2 = linalg.mat_mul(z, z)
    lhs = extended_sn(sp, z) * extended_sn(sp, z)
    assert lhs == extended_sn(sp, z2)
    h, exps = otilde_membership(sp, z2)
    assert exps == {"a": 0}
    assert lhs == Mu4Value.from_sign(sgn_spinor(h))


def test_mu4_group():
    i = Mu4Value(1)
    assert i * i == Mu4Value(2)
    assert i ** 4 == Mu4Value(0)
    assert not i.is_quadratic() and Mu4Value(2).is_quadratic()
    assert Mu4Value.parse("-i") == Mu4Value(3)
    assert repr(Mu4Value(2)) == "-1"


def test_random_mixed_space_restriction():
    ctx = FqContext(3)
    sp = GradedQuadraticSpace(
        ctx, [("a", 2, "asym"), ("b", 1, "sym")],
        [[0, 1, 0], [1, 0, 0], [0, 0, 2]])
    rng = random.Random(0)
    for _ in range(10):
        h = random_orthogonal(sp.space, rng)
        m = sp.embed_matrix(h.matrix)
        if glplus_membership(sp, m)[0]:
            assert (extended_sn(sp, m)
                    == Mu4Value.from_sign(sgn_spinor(h)))


def _mixed_space(p):
    # an asym plane and a sym line
    return GradedQuadraticSpace(FqContext(p),
                                [("a", 2, "asym"), ("b", 1, "sym")],
                                [[0, 1, 0], [1, 0, 0], [0, 0, 1]])


def test_a_singular_matrix_is_not_a_member():
    # otilde_membership once raised "singular matrix" through
    # glplus_membership, which still refuses a singular matrix
    sp = _mixed_space(3)
    g = sp.embed_matrix([[0, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert otilde_membership(sp, g) is None
    with pytest.raises(GradedError, match="singular matrix"):
        glplus_membership(sp, g)
    with pytest.raises(GradedError, match="not in the extended orthogonal"):
        extended_sn(sp, g)


def _brute_force_membership(space, g):
    """The factorization of g, found by trying every zeta-exponent e on the
    asym blocks: h = g . z_e^-1 must be f-rational, permute the blocks
    (an invertible matrix) and preserve the form."""
    g = space.ext_matrix(g)
    asym = [b.label for b in space.blocks if b.kind == "asym"]
    for es in itertools.product((0, 1), repeat=len(asym)):
        z = linalg.identity(space.ext_ctx, space.dim)
        for label, e in zip(asym, es):
            if e:
                z = linalg.mat_mul(z, zeta_scaling(space, label))
        h = linalg.mat_mul(g, linalg.mat_inv(z))
        if not all(space.is_rational(x) for row in h for x in row):
            continue
        try:
            if not glplus_membership(space, h)[0]:
                continue
            h_map = OrthogonalMap(space.space, [[space.retract(x) for x in row]
                                                for row in h])
        except (GradedError, QuadSpaceError):
            continue
        return h_map, dict(zip(asym, es))
    return None


def _assert_same_factorizations(space, matrices):
    members = 0
    for g in matrices:
        fact, want = otilde_membership(space, g), _brute_force_membership(
            space, g)
        assert (fact is None) == (want is None), g
        if fact is not None:
            assert fact[0].matrix == want[0].matrix and fact[1] == want[1]
            members += 1
    return members


@pytest.mark.parametrize("p,blocks,gram,rational,members", [
    # every 2 x 2 matrix over F_9, 801 of them singular: O(V) has 4 and
    # 8 elements, and the plane's ones also carry exponent 1
    (3, [("a", 2, "asym")], [[0, 1], [1, 0]], False, 8),
    (3, [("a", 1, "sym"), ("b", 1, "sym")], [[1, 0], [0, 1]], False, 8),
    # -1 is a square in F_5, so zeta = 2 is rational: every 2 x 2 matrix
    # over F_5, 145 of them singular
    (5, [("a", 2, "asym")], [[0, 1], [1, 0]], True, 16)])
def test_otilde_membership_matches_brute_force_exhaustive(
        p, blocks, gram, rational, members):
    sp = GradedQuadraticSpace(FqContext(p), blocks, gram)
    els = list((sp.ctx if rational else sp.ext_ctx).elements())
    matrices = [[flat[:2], flat[2:]]
                for flat in itertools.product(els, repeat=4)]
    if rational:
        matrices = [sp.embed_matrix(m) for m in matrices]
    assert _assert_same_factorizations(sp, matrices) == members


@pytest.mark.parametrize("p", [3, 7])
def test_otilde_membership_matches_brute_force_on_the_mixed_space(p):
    # seeded 3 x 3 matrices over f': uniform ones, ones that keep the
    # blocks, and members h . z_e with, half the time, one entry redrawn
    sp = _mixed_space(p)
    ext = list(sp.ext_ctx.elements())
    zero = sp.ext_ctx.zero
    plane = [h.matrix for h in _orthogonal_matrices(
        GradedQuadraticSpace(sp.ctx, [("a", 2, "asym")], [[0, 1], [1, 0]]))]
    rng = random.Random(p)
    matrices = []
    for n in range(2400):
        kind = n % 3
        if kind == 0:
            g = [[rng.choice(ext) for _ in range(3)] for _ in range(3)]
        elif kind == 1:
            g = [[rng.choice(ext) if (i < 2) == (j < 2) else zero
                  for j in range(3)] for i in range(3)]
        else:
            a = rng.choice(plane)
            h = sp.embed_matrix([[a[0][0], a[0][1], 0], [a[1][0], a[1][1], 0],
                                 [0, 0, rng.choice((1, -1))]])
            g = [list(row) for row in h]
            if rng.randrange(2):
                g = [list(row) for row in
                     linalg.mat_mul(h, zeta_scaling(sp, "a"))]
            if rng.randrange(2):
                g[rng.randrange(3)][rng.randrange(3)] = rng.choice(ext)
        matrices.append(g)
    assert _assert_same_factorizations(sp, matrices) >= 400


def test_otilde_membership_is_one_pass(monkeypatch):
    # no elimination (so no determinant), no glplus_membership, no form
    # check of h, and the two code-matrix products of the pulled-back Gram
    # matrix are the only ones
    from heckeforge import gradedorth
    sp = _mixed_space(3)
    assert vars(sp)["ext_gram"] == sp.embed_matrix(sp.gram)
    z = zeta_scaling(sp, "a")
    inputs = [z, linalg.mat_mul(z, z),
              sp.embed_matrix([[0, 0, 0], [0, 1, 0], [0, 0, 1]]),
              sp.embed_matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
              sp.embed_matrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]])]
    products, checks = [], []
    mat_mul, orthogonal_map = linalg._mul, gradedorth.OrthogonalMap

    def counted(*args):
        products.append(args)
        return mat_mul(*args)

    def spied(space, matrix, check=True):
        checks.append(check)
        return orthogonal_map(space, matrix, check=check)

    def refuse(*args, **kwargs):
        raise AssertionError("not a one-pass membership test")
    monkeypatch.setattr(linalg, "_mul", counted)
    monkeypatch.setattr(linalg, "_eliminate", refuse)
    monkeypatch.setattr(gradedorth, "glplus_membership", refuse)
    monkeypatch.setattr(GradedQuadraticSpace, "embed_matrix", refuse)
    monkeypatch.setattr(gradedorth, "OrthogonalMap", spied)
    decided = []
    for g in inputs:
        products.clear()
        decided.append(otilde_membership(sp, g) is not None)
        # the last input mixes the blocks: no product is formed
        assert len(products) == (0 if g is inputs[-1] else 2)
    assert decided == [True, True, False, False, False]
    assert checks == [False, False]
