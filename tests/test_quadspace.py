"""Unit tests for quadratic spaces, reflections, Cartan-Dieudonne, and the
spinor norm."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from heckeforge import (FqContext, QuadSpaceError, QuadraticSpace,
                        OrthogonalMap, SquareClass, TRIVIAL, NONSQUARE,
                        reflection, factor_into_reflections, spinor_norm,
                        sgn_spinor, orthogonal_sum, block_embed,
                        random_orthogonal)
from heckeforge import linalg
from heckeforge.ffield import sgn


def _orthogonal_group(space):
    """Brute-force enumeration of O(V) for tiny spaces."""
    ctx = space.ctx
    els = list(ctx.elements())
    out = []
    import itertools
    n = space.dim
    for flat in itertools.product(els, repeat=n * n):
        rows = [flat[i * n:(i + 1) * n] for i in range(n)]
        try:
            out.append(OrthogonalMap(space, rows))
        except QuadSpaceError:
            continue
    return out


def test_form_evaluation_examples():
    # hyperbolic plane over F_3: phi((1,1)) = B((1,1),(1,1))/2 = 1
    ctx = FqContext(3)
    hyp = QuadraticSpace.hyperbolic_plane(ctx)
    assert hyp.evaluate_form((1, 1)) == ctx.one
    # gram [[2]] over F_5: phi((2)) = 2*2*2/2 = 4
    ctx5 = FqContext(5)
    line = QuadraticSpace(ctx5, [[2]])
    assert line.evaluate_form((2,)) == ctx5.elem(4)


def test_constructor_validation():
    ctx = FqContext(3)
    with pytest.raises(QuadSpaceError):
        QuadraticSpace(ctx, [[0, 1], [2, 0]])  # not symmetric
    with pytest.raises(QuadSpaceError):
        QuadraticSpace(ctx, [[0, 0], [0, 2]])  # degenerate
    with pytest.raises(QuadSpaceError):
        QuadraticSpace(ctx, [[1, 0]])  # not square


def test_reflection_example_hyperbolic_f3():
    ctx = FqContext(3)
    hyp = QuadraticSpace.hyperbolic_plane(ctx)
    r = reflection(hyp, (1, 1))
    # r_(1,1) swaps the isotropic basis vectors with a sign: e -> -f, f -> -e
    assert r((1, 0)) == (ctx.zero, -ctx.one)
    assert r((0, 1)) == (-ctx.one, ctx.zero)
    assert (r * r).is_identity()
    assert r.det() == -ctx.one


def test_reflection_requires_anisotropic():
    ctx = FqContext(3)
    hyp = QuadraticSpace.hyperbolic_plane(ctx)
    with pytest.raises(QuadSpaceError):
        reflection(hyp, (1, 0))  # isotropic


def test_reflection_spinor_value_law():
    # sn(r_v) is the square class of phi(v)
    for p in (3, 5):
        ctx = FqContext(p)
        space = QuadraticSpace.hyperbolic_plane(ctx)
        for v in space.nonzero_vectors():
            phi_v = space.evaluate_form(v)
            if phi_v.is_zero():
                continue
            assert spinor_norm(reflection(space, v)) == SquareClass.of(phi_v)


def test_spinor_norm_examples():
    ctx = FqContext(3)
    hyp = QuadraticSpace.hyperbolic_plane(ctx)
    # r_(1,2): phi((1,2)) = 2, a nonsquare mod 3
    assert spinor_norm(reflection(hyp, (1, 2))) == NONSQUARE
    # -id on the hyperbolic plane over F_3
    neg = OrthogonalMap(hyp, [[-1, 0], [0, -1]])
    assert spinor_norm(neg) == NONSQUARE
    assert sgn_spinor(neg) == -1


def test_factorization_composes_and_is_short():
    rng = random.Random(7)
    for p in (3, 5):
        ctx = FqContext(p)
        for gram in ([[0, 1], [1, 0]], [[2, 0], [0, 2]]):
            space = QuadraticSpace(ctx, gram)
            for _ in range(15):
                g = random_orthogonal(space, rng)
                vs = factor_into_reflections(g)
                assert len(vs) <= space.dim + 2
                acc = OrthogonalMap.identity(space)
                for v in vs:
                    acc = acc * reflection(space, v)
                assert acc == g


def test_spinor_multiplicative_exhaustive_dim2():
    for p in (3, 5):
        ctx = FqContext(p)
        space = QuadraticSpace.hyperbolic_plane(ctx)
        group = _orthogonal_group(space)
        values = {g: sgn_spinor(g) for g in group}
        for a in group:
            for b in group:
                assert values[a * b] == values[a] * values[b]


def test_orthogonal_sum_and_block_embed():
    ctx = FqContext(3)
    v1 = QuadraticSpace.hyperbolic_plane(ctx)
    v2 = QuadraticSpace.diagonal(ctx, [ctx.one, ctx.one])
    s = orthogonal_sum(v1, v2)
    assert s.dim == 4
    rng = random.Random(1)
    for _ in range(10):
        g1 = random_orthogonal(v1, rng)
        g2 = random_orthogonal(v2, rng)
        g = block_embed(s, g1, g2)
        assert sgn_spinor(g) == sgn_spinor(g1) * sgn_spinor(g2)


def test_orthogonal_map_rejects_nonisometry():
    ctx = FqContext(3)
    hyp = QuadraticSpace.hyperbolic_plane(ctx)
    with pytest.raises(QuadSpaceError):
        OrthogonalMap(hyp, [[1, 1], [0, 1]])


@pytest.mark.parametrize("matrix", [
    [[1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0], [0]], [[1, 0]], []])
def test_orthogonal_map_rejects_a_matrix_of_another_size(matrix):
    hyp = QuadraticSpace.hyperbolic_plane(FqContext(3))
    with pytest.raises(QuadSpaceError, match="dim x dim"):
        OrthogonalMap(hyp, matrix)


def test_square_class_group():
    assert TRIVIAL * NONSQUARE == NONSQUARE
    assert NONSQUARE * NONSQUARE == TRIVIAL
    assert NONSQUARE.sign() == -1


# --- oracles: the reflection search and the column-by-column reflection ---

def _field(q):
    return FqContext(3, 2) if q == 9 else FqContext(q)


def _oracle_spinor_norm(g):
    """The product of phi-values over a Cartan-Dieudonne factorization."""
    cls = TRIVIAL
    for v in factor_into_reflections(g):
        cls = cls * SquareClass.of(g.space.evaluate_form(v))
    return cls


def _oracle_reflection(space, v):
    """r_v column by column: column j is e_j - B(e_j,v)/phi(v) * v."""
    v = tuple(space.ctx.elem(c) for c in v)
    inv = space.evaluate_form(v).inv()
    cols = []
    for j in range(space.dim):
        e = tuple(space.ctx.one if i == j else space.ctx.zero
                  for i in range(space.dim))
        c = space.bilinear(e, v) * inv
        cols.append(linalg.vec_sub(e, linalg.vec_scale(c, v)))
    return OrthogonalMap(space, linalg.transpose(cols), check=False)


def _anisotropic_plane(ctx):
    """x^2 - eps y^2 with eps a nonsquare."""
    eps = next(a for a in ctx.units() if int(sgn(a)) == -1)
    return QuadraticSpace.diagonal(ctx, [ctx.one, -eps])


def _eichler(ctx, a):
    """On H + H with basis e1, f1, e2, f2: f1 -> f1 + a e2, f2 -> f2 - a e1.
    im(1-g) = <e1, e2> is totally isotropic, so g is exceptional."""
    space = QuadraticSpace(ctx, [[0, 1, 0, 0], [1, 0, 0, 0],
                                 [0, 0, 0, 1], [0, 0, 1, 0]])
    return OrthogonalMap(space, [[1, 0, 0, -a], [0, 1, 0, 0],
                                 [0, a, 1, 0], [0, 0, 0, 1]])


def test_factorization_length_on_exceptional_and_cycling_maps():
    # a search that may leave an exceptional remainder cycles on this g of
    # rank 5 over F_3: an auxiliary reflection, then the step undoing it
    space = QuadraticSpace(FqContext(3), [
        [2, 1, 1, 0, 0], [1, 2, 2, 0, 1], [1, 2, 0, 1, 0], [0, 0, 1, 0, 0],
        [0, 1, 0, 0, 2]])
    cases = [(OrthogonalMap(space, [
        [2, 1, 0, 2, 0], [1, 2, 2, 2, 1], [0, 0, 0, 0, 2], [2, 0, 2, 1, 1],
        [2, 1, 2, 1, 0]]), 5)]
    # exceptional of rank(1-g) = 2, so two reflections more than the rank
    for q in (3, 5):
        ctx = FqContext(q)
        cases += [(_eichler(ctx, a), 4) for a in ctx.units()]
    for g, length in cases:
        vs = factor_into_reflections(g)
        assert len(vs) == length
        acc = OrthogonalMap.identity(g.space)
        for v in vs:
            acc = acc * reflection(g.space, v)
        assert acc == g
        assert spinor_norm(g) == _oracle_spinor_norm(g)


@pytest.mark.parametrize("q,gram", [
    (3, [[1, 1, 0], [1, 2, 1], [0, 1, 0]]),
    (5, [[1, 1], [1, 2]]),
    (9, [[[0, 1], 1], [1, 2]]),
])
def test_reflection_matches_columnwise_construction(q, gram):
    space = QuadraticSpace(_field(q), gram)
    count = 0
    for v in space.nonzero_vectors():
        if space.evaluate_form(v).is_zero():
            continue
        assert reflection(space, v) == _oracle_reflection(space, v)
        count += 1
    assert count > 0


@pytest.mark.parametrize("q", [3, 5, 9])
@pytest.mark.parametrize("kind", ["hyperbolic", "anisotropic"])
def test_spinor_norm_matches_oracle_exhaustive_dim2(q, kind):
    ctx = _field(q)
    if kind == "hyperbolic":
        space = QuadraticSpace.hyperbolic_plane(ctx)
    else:
        space = _anisotropic_plane(ctx)
    group = _orthogonal_group(space)
    # |O(V)| = 2(q - 1) on the hyperbolic plane, 2(q + 1) on the other
    assert len(group) == 2 * (q - 1 if kind == "hyperbolic" else q + 1)
    for g in group:
        assert spinor_norm(g) == _oracle_spinor_norm(g)


@st.composite
def _reflection_products(draw):
    """A random product of reflections on a space with a random
    nondegenerate, non-diagonal Gram matrix."""
    ctx = _field(draw(st.sampled_from([3, 5, 7, 9])))
    dim = draw(st.integers(2, 5))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    els = list(ctx.elements())
    while True:
        gram = [[None] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                gram[i][j] = gram[j][i] = rng.choice(els)
        if (not linalg.det(gram).is_zero()
                and any(not gram[0][j].is_zero() for j in range(1, dim))):
            break
    return random_orthogonal(QuadraticSpace(ctx, gram), rng)


@settings(max_examples=60, deadline=None)
@given(_reflection_products())
def test_spinor_norm_matches_oracle_on_reflection_products(g):
    assert spinor_norm(g) == _oracle_spinor_norm(g)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_spinor_norm_of_minus_identity_and_identity(q):
    # -id is the product of the reflections in an orthogonal basis, so
    # sn(-id) = prod B(e_i,e_i)/2, the class of 2^dim det(Gram).
    ctx = _field(q)
    units = list(ctx.units())
    for dim in range(1, 7):
        space = QuadraticSpace.diagonal(
            ctx, [units[i % len(units)] for i in range(dim)])
        neg = OrthogonalMap(space, tuple(
            tuple(-x for x in row) for row in linalg.identity(ctx, dim)))
        expected = SquareClass.of(ctx.elem(2 ** dim) * linalg.det(space.gram))
        assert spinor_norm(neg) == expected
        assert _oracle_spinor_norm(neg) == expected
        assert spinor_norm(OrthogonalMap.identity(space)) == TRIVIAL
