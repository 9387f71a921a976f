"""Differential tests of linalg's integer-code kernel, and of the isometry
check, spinor_norm, otilde_membership and extended_sn that run on it,
against the FqElement model in fq_oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import fq_oracle as oracle
from heckeforge import (FqContext, GradedQuadraticSpace, OrthogonalMap,
                        QuadraticSpace, QuadSpaceError, extended_sn,
                        orthogonal_sum, otilde_membership, random_orthogonal,
                        reflection, spinor_norm, zeta_scaling)
from heckeforge import linalg
from heckeforge.ffield import FieldError, FqElement

# F_3, F_5, F_7 (prime codes), F_9, F_25, F_49 (tables) and F_{101^2}
# (polynomial arithmetic)
FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (7, 2), (101, 2)]
PRIMES = [3, 5, 7, 11]


@st.composite
def _matrices(draw, rows=None, cols=None):
    """(ctx, p, m): an m of rows x cols FqElements of ctx (p None) or of
    unreduced ints mod p (ctx the prime field), n <= 5.  Entries lean to 0,
    and a row may repeat a multiple of an earlier one, so that singular
    matrices are common in every field."""
    if draw(st.booleans()):
        ctx, p = FqContext.shared(*draw(st.sampled_from(FIELDS))), None
    else:
        p = draw(st.sampled_from(PRIMES))
        ctx = FqContext.shared(p)
    entry = _entries(ctx, p)
    rows = rows or draw(st.integers(1, 5))
    cols = cols or draw(st.integers(1, 5))
    m = [tuple(draw(entry) for _ in range(cols)) for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        c = draw(entry)
        m[i] = tuple(c * x for x in m[j])
    return ctx, p, tuple(m)


def _entries(ctx, p):
    if p is None:
        return st.one_of(st.just(0), st.integers(0, ctx.q - 1)).map(
            lambda c: FqElement(ctx, c))
    return st.integers(-2 * p, 3 * p)


def _same_field(data, ctx, p, rows, cols=None):
    """A rows x cols matrix over the field of (ctx, p)."""
    entry = _entries(ctx, p)
    cols = cols or data.draw(st.integers(1, 5))
    return tuple(tuple(data.draw(entry) for _ in range(cols))
                 for _ in range(rows))


def _elements(ctx, p, x):
    """The oracle's view of x: FqElements as they are, ints as elements of
    the prime field."""
    if isinstance(x, tuple):
        return tuple(_elements(ctx, p, y) for y in x)
    return ctx.elem(x)


def _codes(x):
    if isinstance(x, tuple):
        return tuple(_codes(y) for y in x)
    return x.code


def _public(ctx, p, x):
    """The oracle's FqElement result as the public function returns it."""
    return x if p is None else _codes(x)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_products_match_the_oracle(data):
    ctx, p, a = data.draw(_matrices())
    b = _same_field(data, ctx, p, len(a[0]))
    v = _same_field(data, ctx, p, 1, len(a[0]))[0]
    u, w = (_same_field(data, ctx, p, 1, len(a))[0] for _ in range(2))
    c = _same_field(data, ctx, p, 1, 1)[0][0]
    ea, eb, ev, eu, ew, ec = (_elements(ctx, p, x) for x in (a, b, v, u, w, c))
    assert linalg.mat_mul(a, b, p) == _public(ctx, p, oracle.mat_mul(ea, eb))
    assert linalg.mat_vec(a, v, p) == _public(ctx, p, oracle.mat_vec(ea, ev))
    assert linalg.vec_add(u, w, p) == _public(ctx, p, oracle.vec_add(eu, ew))
    assert linalg.vec_sub(u, w, p) == _public(ctx, p, oracle.vec_sub(eu, ew))
    assert linalg.vec_scale(c, u, p) == _public(ctx, p,
                                                oracle.vec_scale(ec, eu))
    # the kernel itself, on codes
    ar = ctx._arith
    assert linalg._mul(ar, _codes(ea), _codes(eb)) == _codes(
        oracle.mat_mul(ea, eb))
    assert linalg._vec(ar, _codes(ea), _codes(ev)) == _codes(
        oracle.mat_vec(ea, ev))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_eliminations_match_the_oracle(data):
    ctx, p, m = data.draw(_matrices())
    em = _elements(ctx, p, m)
    rows, pivots, d = oracle.eliminate(em)
    assert linalg._eliminate(_codes(em), ctx._arith) == (
        _codes(rows), pivots, _codes(ctx.elem(d)))
    assert linalg.rref(m, p) == (_public(ctx, p, rows), pivots)
    b = _same_field(data, ctx, p, 1, len(m))[0]
    want = oracle.solve(em, _elements(ctx, p, b))
    assert linalg.solve(m, b, p) == (None if want is None
                                     else _public(ctx, p, want))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_square_eliminations_match_the_oracle(data):
    n = data.draw(st.integers(1, 5))
    ctx, p, m = data.draw(_matrices(rows=n, cols=n))
    em = _elements(ctx, p, m)
    assert linalg.det(m, p) == _public(ctx, p, oracle.det(em))
    try:
        want = oracle.mat_inv(em)
    except FieldError:
        with pytest.raises(FieldError):
            linalg.mat_inv(m, p)
    else:
        assert linalg.mat_inv(m, p) == _public(ctx, p, want)


# ---------------------------------------------------------------------------
# the orthogonal group


SMALL_FIELDS = {3: (3, 1), 5: (5, 1), 7: (7, 1), 9: (3, 2)}


def _space(rng, q, dim):
    """A nondegenerate space over F_q: a random symmetric Gram matrix,
    redrawn until nondegenerate."""
    ctx = FqContext.shared(*SMALL_FIELDS[q])
    while True:
        gram = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                gram[i][j] = gram[j][i] = FqElement(ctx, rng.randrange(q))
        try:
            return QuadraticSpace(ctx, gram)
        except QuadSpaceError:
            continue


def _nearly_orthogonal(rng, space):
    """A product of reflections, with one entry changed half the time."""
    g = [list(row) for row in random_orthogonal(space, rng).matrix]
    if rng.randrange(2):
        g[rng.randrange(space.dim)][rng.randrange(space.dim)] = FqElement(
            space.ctx, rng.randrange(space.ctx.q))
    return g


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_orthogonal_map_accepts_exactly_the_oracle_isometries(q):
    rng = random.Random(q)
    seen = set()
    for dim in (1, 2, 3, 4, 5):
        for _ in range(40):
            space = _space(rng, q, dim)
            g = (_nearly_orthogonal(rng, space) if rng.randrange(4) else
                 [[FqElement(space.ctx, rng.randrange(q)) for _ in range(dim)]
                  for _ in range(dim)])
            want = oracle.is_isometry(space, g)
            seen.add(want)
            try:
                OrthogonalMap(space, g)
                got = True
            except QuadSpaceError:
                got = False
            assert got == want
    assert seen == {True, False}


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_spinor_norm_matches_the_oracle(q):
    rng = random.Random(100 + q)
    seen = set()
    for dim in (2, 3, 4, 5):
        for _ in range(30):
            space = _space(rng, q, dim)
            g = random_orthogonal(space, rng)
            want = oracle.spinor_trivial(space, g.matrix)
            seen.add(want)
            assert spinor_norm(g).trivial is want
    assert seen == {True, False}


@pytest.mark.parametrize("q", [3, 9])
def test_orthogonal_sums_keep_both_gram_matrices(q):
    # over F_9 a code above 2 is no constant: the sum reads the summands'
    # elements, not their codes
    rng = random.Random(300 + q)
    v1, v2 = _space(rng, q, 2), _space(rng, q, 1)
    zero = v1.ctx.zero
    assert orthogonal_sum(v1, v2).gram == (
        v1.gram[0] + (zero,), v1.gram[1] + (zero,), (zero, zero) + v2.gram[0])


# block layouts of total dimension 2..5
LAYOUTS = [[("a", 2, "asym")], [("a", 2, "asym"), ("b", 1, "sym")],
           [("b", 1, "sym"), ("c", 1, "sym"), ("a", 2, "asym")],
           [("a", 4, "asym")], [("a", 2, "asym"), ("d", 2, "asym")],
           [("a", 2, "asym"), ("b", 1, "sym"), ("d", 2, "asym")],
           [("a", 4, "asym"), ("b", 1, "sym")]]


def _graded_space(rng, q, layout):
    """An asym block of dimension 2h has the Gram matrix [[0, A], [A^T, 0]]
    with A invertible; a sym line has a random unit."""
    ctx = FqContext.shared(*SMALL_FIELDS[q])
    dim = sum(b[1] for b in layout)
    gram = [[ctx.zero] * dim for _ in range(dim)]
    start = 0
    for _, n, kind in layout:
        if kind == "sym":
            gram[start][start] = FqElement(ctx, rng.randrange(1, q))
        else:
            h = n // 2
            while True:
                a = [[FqElement(ctx, rng.randrange(q)) for _ in range(h)]
                     for _ in range(h)]
                if not oracle.det(a).is_zero():
                    break
            for i in range(h):
                for j in range(h):
                    gram[start + i][start + h + j] = a[i][j]
                    gram[start + h + j][start + i] = a[i][j]
        start += n
    return GradedQuadraticSpace(ctx, layout, gram)


def _graded_inputs(rng, sp):
    """Members h . zeta^e with h a product of reflections inside the
    blocks, the same with one entry changed, and random matrices."""
    ext = sp.ext_ctx
    out = []
    for _ in range(12):
        h = OrthogonalMap.identity(sp.space)
        for b in sp.blocks:
            for _ in range(rng.randrange(3)):
                v = [FqElement(sp.ctx, rng.randrange(sp.ctx.q))
                     if i in b.cols else sp.ctx.zero for i in range(sp.dim)]
                if not sp.space.evaluate_form(v).is_zero():
                    h = h * reflection(sp.space, v)
        g = sp.embed_matrix(h.matrix)
        for b in sp.blocks:
            if b.kind == "asym" and rng.randrange(2):
                g = linalg.mat_mul(g, zeta_scaling(sp, b.label))
        g = [list(row) for row in g]
        if rng.randrange(3) == 0:
            g[rng.randrange(sp.dim)][rng.randrange(sp.dim)] = FqElement(
                ext, rng.randrange(ext.q))
        out.append(g)
    for _ in range(4):
        out.append([[FqElement(ext, rng.randrange(ext.q))
                     for _ in range(sp.dim)] for _ in range(sp.dim)])
    return out


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_otilde_membership_and_extended_sn_match_the_oracle(q):
    rng = random.Random(200 + q)
    members = 0
    for layout in LAYOUTS:
        for _ in range(3):
            sp = _graded_space(rng, q, layout)
            for g in _graded_inputs(rng, sp):
                want = oracle.otilde_factor(sp, g)
                got = otilde_membership(sp, g)
                assert (got is None) == (want is None)
                if got is None:
                    continue
                members += 1
                assert (got[0].matrix, got[1]) == want
                assert extended_sn(sp, g).k == oracle.extended_value_k(sp, g)
    assert members >= 100


# ---------------------------------------------------------------------------
# the route


def test_the_checks_make_no_field_element_arithmetic(monkeypatch):
    # the isometry check, spinor_norm and extended_sn run on codes: not one
    # FqElement sum, difference, product or inverse
    rng = random.Random(5)
    cases = []
    for q in (3, 5, 7, 9):
        space = _space(rng, q, 4)
        g = random_orthogonal(space, rng)
        sp = _graded_space(rng, q, [("a", 2, "asym"), ("b", 1, "sym")])
        members = [x for x in _graded_inputs(rng, sp)
                   if oracle.otilde_factor(sp, x) is not None]
        cases.append((space, [list(r) for r in g.matrix], sp, members[0]))

    def refuse(*args):
        raise AssertionError("FqElement arithmetic")
    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__",
                 "inv"):
        monkeypatch.setattr(FqElement, name, refuse)
    for space, matrix, sp, member in cases:
        spinor_norm(OrthogonalMap(space, matrix))
        extended_sn(sp, member)
