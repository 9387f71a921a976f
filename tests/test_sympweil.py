"""Unit tests for symplectic spaces, Heisenberg groups, the Weil
representation, the det-sign character, and the induction identity."""

import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heckeforge import (SympError, SymplecticSpace, HeisenbergElement,
                        CentralCharacterChoice, HeisenbergRep, heisenberg_rep,
                        heisenberg_mul, WeilSL2, weil_sl2, projective_weil,
                        det_sign_character, isotropic_reduction,
                        graded_symplectic_split, induction_identity_check,
                        sl2_elements, SignValue, CycloMatrix)
from heckeforge import checks, linalg, sympweil
from heckeforge.sympweil import (
    _span_basis, _det_sign,
    _stabilizer_sl2, _complement_transversal,
    _basis_coords)


def _all_heisenberg(space):
    for v in space.vectors():
        for a in range(space.p):
            yield HeisenbergElement(space, v, a)


def test_symplectic_space_validation():
    with pytest.raises(SympError):
        SymplecticSpace(2, [[0, 1], [1, 0]])
    with pytest.raises(SympError):
        SymplecticSpace(3, [[0, 1], [1, 0]])  # not alternating
    with pytest.raises(SympError):
        SymplecticSpace(3, [[0, 0], [0, 0]])  # degenerate
    V = SymplecticSpace.standard(3, 2)
    assert V.dim == 4 and V.n == 2
    # the distinguished basis is symplectic
    for i in range(2):
        for j in range(2):
            assert V.pairing(V.basis[i], V.basis[2 + j]) == (1 if i == j
                                                             else 0)
            assert V.pairing(V.basis[i], V.basis[j]) == 0


def test_nonstandard_form_gets_symplectic_basis():
    V = SymplecticSpace(5, [[0, 2], [3, 0]])
    e, f = V.basis
    assert V.pairing(e, f) == 1


@pytest.mark.parametrize("p,change", [
    (3, ((1, 1, 0, 2), (0, 1, 1, 0), (1, 0, 1, 1), (0, 0, 0, 1))),
    (5, ((2, 1), (1, 4)))])
def test_coordinates_match_a_fresh_solve(p, change):
    # the form A^T J A of an invertible A is alternating, nondegenerate and
    # has a symplectic basis other than the unit vectors
    J = SymplecticSpace.standard(p, len(change) // 2).form
    at = tuple(zip(*change))
    V = SymplecticSpace(p, linalg.mat_mul(linalg.mat_mul(at, J, p), change, p))
    assert V.basis != tuple(tuple(int(i == j) for j in range(V.dim))
                            for i in range(V.dim))
    for v in V.vectors():
        c = V.coordinates(v)
        assert c == linalg.solve(linalg.transpose(V.basis), v, p)
        assert linalg.mat_vec(linalg.transpose(V.basis), c, p) == v
    for bad in ((1,) * (V.dim - 1), (1,) * (V.dim + 1)):
        with pytest.raises(SympError):
            V.coordinates(bad)


def test_heisenberg_group_axioms():
    V = SymplecticSpace.standard(3, 1)
    els = list(_all_heisenberg(V))
    assert len(els) == 27
    ident = HeisenbergElement(V, (0, 0), 0)
    for x in els:
        assert x * x.inv() == ident
        for y in els[:9]:
            for z in els[:5]:
                assert (x * y) * z == x * (y * z)
    # commutator lands in the center with exponent <v, w>
    x = HeisenbergElement(V, (1, 0), 0)
    y = HeisenbergElement(V, (0, 1), 0)
    comm = x * y * x.inv() * y.inv()
    assert comm.v == (0, 0) and comm.a == V.pairing((1, 0), (0, 1)) % 3
    assert heisenberg_mul(x, y) == x * y


def test_heisenberg_element_requires_a_vector_of_the_space():
    V = SymplecticSpace.standard(3, 1)
    for bad in ((1, 2, 0), (1,), ()):
        with pytest.raises(SympError):
            HeisenbergElement(V, bad, 0)
    # a zero-dimensional space takes the empty vector only
    Z = SymplecticSpace(3, [])
    assert HeisenbergElement(Z, (), 2).a == 2
    with pytest.raises(SympError):
        HeisenbergElement(Z, (0,), 0)


def test_heisenberg_rep_multiplicative():
    V = SymplecticSpace.standard(3, 1)
    rep = heisenberg_rep(V)
    els = list(_all_heisenberg(V))
    ops = {h: rep.operator(h) for h in els}
    for x in els:
        for y in els:
            assert ops[x] @ ops[y] == ops[x * y]


def test_central_character_needs_an_odd_prime():
    for p in (4, 2, 9, 1):
        with pytest.raises(SympError, match="odd prime"):
            CentralCharacterChoice(p, 2)


def test_heisenberg_rep_rejects_iota_for_another_prime():
    # iota for p = 5 on a space over F_3 made psi identically 1
    V = SymplecticSpace.standard(3, 1)
    with pytest.raises(SympError, match="iota"):
        HeisenbergRep(V, CentralCharacterChoice(5, 2))
    with pytest.raises(SympError, match="iota"):
        heisenberg_rep(SymplecticSpace.standard(5, 1),
                       CentralCharacterChoice(3, 1))


def test_heisenberg_central_character_and_nondefault_iota():
    for unit in (1, 2):
        V = SymplecticSpace.standard(3, 1)
        rep = HeisenbergRep(V, CentralCharacterChoice(3, unit))
        assert checks.weil_central(rep) == (True, None)
        # psi is the character a -> zeta_p^{a / unit}
        assert rep.psi(unit) == rep.cyclo.zeta_pow(4)


def test_character_matches_operator_traces():
    V = SymplecticSpace.standard(3, 1)
    rep = HeisenbergRep(V)
    for h in _all_heisenberg(V):
        assert rep.character(h) == rep.operator(h).trace()
        # trace_with(identity, h) is the same trace
        ident = CycloMatrix.identity(rep.cyclo, rep.dim)
        assert rep.trace_with(ident, h) == rep.character(h)


@pytest.mark.parametrize("p", [3, 5])
def test_weil_sl2_multiplicative_sample(p):
    V = SymplecticSpace.standard(p, 1)
    w = WeilSL2(HeisenbergRep(V))
    rng = random.Random(p)
    els = list(sl2_elements(p))
    pairs = [(rng.choice(els), rng.choice(els)) for _ in range(60)]
    assert checks.weil_mult(w, pairs) == (True, None)


def test_weil_sl2_genuine_not_projective_only():
    # omega(-I)^2 = omega(I) exactly, with no hidden scalar
    p = 3
    V = SymplecticSpace.standard(p, 1)
    w = WeilSL2(HeisenbergRep(V))
    neg = ((p - 1, 0), (0, p - 1))
    assert w(neg) @ w(neg) == w(((1, 0), (0, 1)))
    assert w(((1, 0), (0, 1))) == CycloMatrix.identity(w.cyclo, p)


def test_weil_intertwines_heisenberg():
    p = 3
    V = SymplecticSpace.standard(p, 1)
    rep = HeisenbergRep(V)
    w = WeilSL2(rep)
    for g in sl2_elements(p):
        wg = w(g)
        for v in [(1, 0), (0, 1), (1, 2)]:
            for a in (0, 1):
                lhs = wg @ rep.operator(HeisenbergElement(V, v, a))
                rhs = rep.operator(
                    HeisenbergElement(V, linalg.mat_vec(g, v, p), a)) @ wg
                assert lhs == rhs


def test_weil_sl2_requires_rank_one():
    V = SymplecticSpace.standard(3, 2)
    with pytest.raises(SympError):
        WeilSL2(HeisenbergRep(V))


def test_weil_sl2_requires_a_two_by_two_matrix():
    w = WeilSL2(HeisenbergRep(SymplecticSpace.standard(3, 1)))
    for bad in (((1, 0, 0), (0, 1, 0)), ((1, 0), (0, 1), (0, 0)), ((1,),),
                ((1, 0), (0,))):
        with pytest.raises(SympError):
            w(bad)


def _stored_canonically(m):
    """int64 planes when every entry fits, else an object array of Python
    ints with an entry beyond int64."""
    if m.planes.dtype == np.int64:
        return True
    values = list(m.planes.flat)
    return (m.planes.dtype == object and all(type(x) is int for x in values)
            and not all(-2 ** 63 <= x < 2 ** 63 for x in values))


def _sgn(a, p):
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


@lru_cache(maxsize=32)
def _oracle_upper(rep, b):
    """omega(u(b)) = multiplication by psi(b t^2 / 2)."""
    p = rep.space.p
    half = (p + 1) // 2
    return CycloMatrix.from_entries(
        rep.cyclo, [[rep.psi(b * half * t * t) if s == t else 0
                     for s in range(p)] for t in range(p)])


@lru_cache(maxsize=32)
def _oracle_diag(rep, a):
    """omega(diag(a, 1/a)) = sgn(a) . (phi -> phi(a t)): sgn(a) at (r, ar)."""
    p = rep.space.p
    return CycloMatrix.from_entries(
        rep.cyclo, [[_sgn(a, p) if s == a * r % p else 0 for s in range(p)]
                    for r in range(p)])


@lru_cache(maxsize=32)
def _oracle_fourier(rep):
    """omega(((0, -1), (1, 0))) = the Fourier matrix psi(-st) times
    sgn(2) conj(G) / p, with G = sum_t psi(t^2)."""
    p = rep.space.p
    gauss = sum((rep.psi(t * t) for t in range(p)), rep.cyclo.zero())
    const = gauss.conj() * Fraction(_sgn(2, p), p)
    return CycloMatrix.from_entries(
        rep.cyclo, [[rep.psi(-s * t) * const for s in range(p)]
                    for t in range(p)])


def _oracle_weil(rep, g):
    """omega(g) as the product of the generator operators along the Bruhat
    decomposition: g = diag(a, 1/a) u(b/a) when c = 0, else
    g = u(a/c) w diag(c, 1/c) u(d/c)."""
    p = rep.space.p
    (a, b), (c, d) = [[x % p for x in row] for row in g]
    if c == 0:
        return _oracle_diag(rep, a) @ _oracle_upper(rep, b * pow(a, -1, p) % p)
    cinv = pow(c, -1, p)
    return (_oracle_upper(rep, a * cinv % p) @ _oracle_fourier(rep)
            @ _oracle_diag(rep, c) @ _oracle_upper(rep, d * cinv % p))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_upper_and_diag_match_their_formulas(p):
    # omega(u(b))[t, t] = psi(b t^2 / 2); omega(diag(a, 1/a))[r, s] = sgn(a)
    # where s = a r
    rep = HeisenbergRep(SymplecticSpace.standard(p, 1))
    w = WeilSL2(rep)
    for b in range(p):
        got = w(((1, b), (0, 1)))
        assert got == _oracle_upper(rep, b) and _stored_canonically(got)
    for a in range(1, p):
        got = w(((a, 0), (0, pow(a, -1, p))))
        assert got == _oracle_diag(rep, a) and _stored_canonically(got)


def test_operators_are_stored_as_int64():
    rep = HeisenbergRep(SymplecticSpace.standard(5, 1))
    w = WeilSL2(rep)
    ops = [w(((0, 4), (1, 0))), w(((1, 2), (0, 1)))] + [
        rep.operator(h) for h in (HeisenbergElement(rep.space, (1, 3), 2),
                                  HeisenbergElement(rep.space, (0, 0), 0))]
    for m in ops:
        assert _stored_canonically(m) and m.planes.dtype == np.int64
    # the int64 kernel hands its products back as int64
    for a, b in zip(ops, ops[1:]):
        assert (a @ b).planes.dtype == np.int64


@pytest.mark.parametrize("p,unit", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1),
                                    (7, 2)])
def test_weil_matches_the_bruhat_product_oracle_exhaustive(p, unit):
    rep = HeisenbergRep(SymplecticSpace.standard(p, 1),
                        CentralCharacterChoice(p, unit))
    w = WeilSL2(rep)
    for g in sl2_elements(p):
        assert w(g) == _oracle_weil(rep, g), g


@pytest.mark.parametrize("p", [11, 13])
def test_weil_matches_the_bruhat_product_oracle_sampled(p):
    rng = random.Random(p)
    els = list(sl2_elements(p))
    for unit in (1, 2):
        rep = HeisenbergRep(SymplecticSpace.standard(p, 1),
                            CentralCharacterChoice(p, unit))
        w = WeilSL2(rep)
        # both Bruhat cells, plus a uniform sample
        sample = [((1, 3), (0, 1)), ((2, 0), (0, pow(2, -1, p))),
                  ((0, p - 1), (1, 0))] + rng.sample(els, 30)
        for g in sample:
            assert w(g) == _oracle_weil(rep, g), g


def test_projective_weil_matches_weil_sl2_up_to_scalar():
    p = 3
    V = SymplecticSpace.standard(p, 1)
    rep = HeisenbergRep(V)
    w = WeilSL2(rep)
    rng = random.Random(2)
    els = list(sl2_elements(p))
    for g in rng.sample(els, 6):
        t = projective_weil(rep, g)
        assert t.proportional_to(w(g)) is not None
    assert weil_sl2(rep, ((1, 1), (0, 1))) == w(((1, 1), (0, 1)))


def _oracle_seed_sum(rep, g, seed):
    """The dense sum sum_v rho(gv) E_ij rho(v)^-1, (i, j) = divmod(seed,
    dim)."""
    space = rep.space
    p = space.p
    dim = rep.dim
    c = CycloMatrix.from_entries(
        rep.cyclo, [[int(divmod(seed, dim) == (r, s)) for s in range(dim)]
                    for r in range(dim)])
    t = CycloMatrix.zeros(rep.cyclo, dim)
    for v in space.vectors():
        gv = rep.operator(
            HeisenbergElement(space, linalg.mat_vec(g, v, p), 0))
        rv_inv = rep.operator(HeisenbergElement(
            space, tuple((-x) % p for x in v), 0))
        t = t + gv @ c @ rv_inv
    return t


def _oracle_projective_weil(rep, g):
    """projective_weil as the dense seed sums over the seeds E_ij in
    row-major order, normalised by the first nonzero entry."""
    for seed in range(rep.dim * rep.dim):
        t = _oracle_seed_sum(rep, g, seed)
        if not t.is_zero():
            _, _, e = t.first_nonzero()
            return t.scale(e.inv())
    raise AssertionError("no nonzero intertwiner")


def _lagrangian_meet(space, g):
    """|L cap g^-1 L| for the model's Lagrangian L = {u : y(u) = 0}."""
    p, n = space.p, space.n
    return sum(1 for v in space.vectors()
               if not any(space.coordinates(v)[n:])
               and not any(space.coordinates(linalg.mat_vec(g, v, p))[n:]))


def _sp4_elements(p):
    """J, transvections, a Levi element m(A) = diag(A, A^-T) and products,
    in the coordinates (e_1, e_2, f_1, f_2) of the standard form."""
    J = ((0, 0, 1, 0), (0, 0, 0, 1), (p - 1, 0, 0, 0), (0, p - 1, 0, 0))
    t_e1 = ((1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (0, 0, 0, 1))
    n_s = ((1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    m_a = ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, p - 1, 1))
    prod = linalg.mat_mul
    return [J, t_e1, n_s, m_a, prod(J, t_e1, p),
            prod(prod(m_a, J, p), n_s, p)]


def test_projective_weil_matches_dense_oracle_sl2_f3_exhaustive():
    rep = HeisenbergRep(SymplecticSpace.standard(3, 1))
    for g in sl2_elements(3):
        t = projective_weil(rep, g)
        assert t == _oracle_projective_weil(rep, g)
        assert _stored_canonically(t)


def test_projective_weil_matches_dense_oracle_sl2_f5_sample():
    rep = HeisenbergRep(SymplecticSpace.standard(5, 1))
    els = random.Random(5).sample(list(sl2_elements(5)), 20)
    for g in els:
        assert projective_weil(rep, g) == _oracle_projective_weil(rep, g)


def test_projective_weil_matches_dense_oracle_sp4_f3():
    V = SymplecticSpace.standard(3, 2)
    rep = HeisenbergRep(V)
    for g in _sp4_elements(3):
        assert V.is_symplectic_matrix(g)
        assert projective_weil(rep, g) == _oracle_projective_weil(rep, g)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_e00_seed_sum_counts_the_lagrangian_meet_sl2(p):
    # projective_weil seeds only E_00: the (0, 0) entry of the dense sum
    # sum_v rho(gv) E_00 rho(-v), i.e. sum_v rho(gv)[0, 0] rho(-v)[0, 0], is
    # |L cap g^-1 L| >= 1 on all of SL_2(F_p)
    V = SymplecticSpace.standard(p, 1)
    rep = HeisenbergRep(V)
    corner = {v: rep.operator(HeisenbergElement(V, v, 0)).entry(0, 0)
              for v in V.vectors()}
    for g in sl2_elements(p):
        entry = rep.cyclo.zero()
        for v in V.vectors():
            entry = entry + (corner[linalg.mat_vec(g, v, p)]
                             * corner[tuple((-x) % p for x in v)])
        assert entry == _lagrangian_meet(V, g) >= 1
    # the full dense sum agrees with its corner on a few elements
    for g in list(sl2_elements(p))[::max(1, p * p)]:
        assert (_oracle_seed_sum(rep, g, 0).entry(0, 0)
                == _lagrangian_meet(V, g))


def test_e00_seed_sum_counts_the_lagrangian_meet_sp4_f3():
    p = 3
    V = SymplecticSpace.standard(p, 2)
    rep = HeisenbergRep(V)
    gens = _sp4_elements(p)[:4]
    rng = random.Random(4)
    meets = set()
    for _ in range(30):
        g = gens[0]
        for _ in range(rng.randrange(1, 6)):
            g = linalg.mat_mul(g, rng.choice(gens), p)
        assert V.is_symplectic_matrix(g)
        meet = _lagrangian_meet(V, g)
        assert _oracle_seed_sum(rep, g, 0).entry(0, 0) == meet >= 1
        meets.add(meet)
    # g^-1 L meets L in every dimension 0..2 among the samples
    assert meets == {1, 3, 9}


def test_projective_weil_intertwines_rank_two():
    p = 3
    V = SymplecticSpace.standard(p, 2)
    rep = HeisenbergRep(V)
    # an Sp(4)-element: symplectic transvection along e_1
    g = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]]
    g = tuple(tuple(r) for r in g)
    assert V.is_symplectic_matrix(g)
    t = projective_weil(rep, g)
    for v in [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]:
        lhs = t @ rep.operator(HeisenbergElement(V, v, 0))
        rhs = rep.operator(
            HeisenbergElement(V, linalg.mat_vec(g, v, p), 0)) @ t
        assert lhs == rhs


def test_det_sign_character_example():
    # diag(2,1,3,1) on standard Sp(4, F_5), U = span(e_1, e_2):
    # det on U is 2, a nonsquare mod 5
    V = SymplecticSpace.standard(5, 2)
    g = ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 3, 0), (0, 0, 0, 1))
    assert V.is_symplectic_matrix(g)
    u = [(1, 0, 0, 0), (0, 1, 0, 0)]
    assert det_sign_character(V, g, u) == SignValue(-1)
    assert det_sign_character(V, g, []) == SignValue(1)
    with pytest.raises(SympError):
        det_sign_character(V, g, [(1, 0, 0, 0), (0, 0, 1, 0)])  # not isotropic


def test_det_sign_character_reduces_a_dependent_spanning_set():
    # (1, 0) and (2, 0) span one line; the identity acts on it with det 1
    V = SymplecticSpace.standard(3, 1)
    ident = ((1, 0), (0, 1))
    assert det_sign_character(V, ident, [(1, 0), (2, 0)]) == SignValue(1)
    # diag(2, 2) acts on the line by 2, a nonsquare mod 3, however it is
    # spanned
    g = ((2, 0), (0, 2))
    assert (det_sign_character(V, g, [(1, 0), (2, 0)])
            == det_sign_character(V, g, [(1, 0)]) == SignValue(-1))
    assert det_sign_character(V, ident, [(0, 0)]) == SignValue(1)


def test_det_sign_requires_stabilized_subspace():
    V = SymplecticSpace.standard(3, 1)
    w = ((0, 2), (1, 0))  # swaps the two lines
    assert V.is_symplectic_matrix(w)
    with pytest.raises(SympError):
        det_sign_character(V, w, [(1, 0)])


def test_isotropic_reduction_dimensions():
    V = SymplecticSpace.standard(3, 2)
    perp, quotient, lifts = isotropic_reduction(V, [(1, 0, 0, 0)])
    assert len(perp) == 3
    assert quotient.dim == 2 and len(lifts) == 2
    # Lagrangian: quotient is zero
    perp, quotient, lifts = isotropic_reduction(
        V, [(1, 0, 0, 0), (0, 1, 0, 0)])
    assert len(perp) == 2 and quotient.dim == 0 and lifts == []


def test_graded_symplectic_split():
    V = SymplecticSpace.standard(3, 1)
    v1, v2, v3 = graded_symplectic_split(V, [1, -1])
    assert len(v1) == len(v3) == 1 and v2 == []
    v1, v2, v3 = graded_symplectic_split(V, [0, 0])
    assert v1 == [] and v3 == [] and len(v2) == 2
    with pytest.raises(SympError):
        graded_symplectic_split(V, [1, 0])  # pairing couples weights 1 and 0


def test_induction_identity_heisenberg_only():
    V = SymplecticSpace.standard(3, 1)
    ok, details = induction_identity_check(V, [(1, 0)], "heisenberg_only")
    assert ok and details["induced_dim"] == 3
    ok, _ = induction_identity_check(V, [], "heisenberg_only")
    assert ok


def test_induction_identity_needs_chi():
    V = SymplecticSpace.standard(3, 1)
    assert checks.induction_needs_chi(V, [(1, 0)]) == (True, None)
    _, details = induction_identity_check(V, [(1, 0)], "with_sl2_levi", False)
    assert details["witness"] is not None


def test_induction_identity_trivial_subspace():
    V = SymplecticSpace.standard(3, 1)
    ok, _ = induction_identity_check(V, [], "with_sl2_levi", True)
    assert ok


@pytest.mark.parametrize("p", [3, 5])
def test_induction_trivial_subspace_builds_each_weil_operator_once(
        p, monkeypatch):
    # for U = 0 the quotient Weil operator is omega(g) itself; building it
    # a second time doubled the count of builds below.  Each build of an
    # omega(g) (a cache miss) is one from_zeta_powers call, and the check
    # makes no other
    calls = []
    build = CycloMatrix.from_zeta_powers.__func__

    def counted(cls, *args):
        calls.append(1)
        return build(cls, *args)
    monkeypatch.setattr(CycloMatrix, "from_zeta_powers", classmethod(counted))
    V = SymplecticSpace.standard(p, 1)
    w = WeilSL2(HeisenbergRep(V))
    group = list(sl2_elements(p))
    for g in group + group:
        w(g)
    assert len(calls) == len(group)
    del calls[:]
    ok, _ = induction_identity_check(V, [], "with_sl2_levi")
    assert ok and len(calls) == len(group)


@pytest.mark.parametrize("p,unit", [(3, 1), (5, 1), (5, 2), (7, 3)])
def test_weyl_operator_is_the_normalized_fourier_matrix(p, unit):
    # omega(w)[t, s] = psi(-s t) sgn(2) conj(G) / p, built once per instance
    V = SymplecticSpace.standard(p, 1)
    rep = HeisenbergRep(V, CentralCharacterChoice(p, unit))
    w = WeilSL2(rep)
    weyl = ((0, p - 1), (1, 0))
    built = w(weyl)
    assert built == _oracle_fourier(rep)
    assert w(weyl) is built


def _oracle_stabilizer(space, u_basis):
    """The elements of SL_2(F_p) on which the det-sign character of U is
    defined, by trying each one."""
    out = []
    for g in sl2_elements(space.p):
        try:
            _det_sign(space, g, u_basis)
            out.append(g)
        except SympError:
            continue
    return out


@pytest.mark.parametrize("p", [3, 5, 7])
def test_stabilizer_matches_the_try_each_oracle(p):
    V = SymplecticSpace.standard(p, 1)
    for u_basis in [[]] + [[line] for line in _lines(p)]:
        got = _stabilizer_sl2(V, u_basis)
        assert got == _oracle_stabilizer(V, u_basis)
        # a line is stabilized by a Borel subgroup: p (p - 1) elements
        assert len(got) == (p ** 3 - p if not u_basis else p * (p - 1))


# ---------------------------------------------------------------------------
# oracles: the entrywise evaluation the group-ring kernel replaced


def _oracle_trace_with(rep, mat, elem):
    """Trace of mat . rho(v, a) summed entry by entry in Q(zeta_{4p})."""
    p = rep.space.p
    n = rep.space.n
    c = rep.space.coordinates(elem.v)
    x, y = c[:n], c[n:]
    acc = rep.cyclo.zero()
    for sidx in range(rep.dim):
        s = []
        k = sidx
        for _ in range(n):
            s.append(k % p)
            k //= p
        t = tuple((si + yi) % p for si, yi in zip(s, y))
        phase = elem.a
        phase += sum(xi * ti for xi, ti in zip(x, t))
        phase -= rep._half * sum(xi * yi for xi, yi in zip(x, y))
        tidx = sum(ti * p ** i for i, ti in enumerate(t))
        acc = acc + mat.entry(sidx, tidx) * rep.psi(phase)
    return acc


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


def _oracle_heisenberg_only(space, u_basis, transversal=None):
    """(equal, first differing (v, a)) of the heisenberg_only check: the
    character of rho against the character induced from the pullback of the
    quotient Heisenberg representation on (U-perp)#, as character values
    for every (v, a), over the given coset transversal of U-perp."""
    p = space.p
    u_basis = _span_basis(u_basis, p)
    perp, quotient, lifts = isotropic_reduction(space, u_basis)
    rep = HeisenbergRep(space)
    qrep = HeisenbergRep(quotient) if quotient.dim else None
    perp_cols = linalg.transpose(lifts + u_basis)
    if transversal is None:
        transversal = _complement_transversal(space, perp)
    for h in _all_heisenberg(space):
        rhs = rep.cyclo.zero()
        for w in transversal:
            r = HeisenbergElement(space, w, 0)
            conj = r.inv() * h * r
            sol = linalg.solve(perp_cols, conj.v, p)
            if sol is None:
                continue
            if qrep is None:
                rhs = rhs + rep.psi(conj.a)
            else:
                rhs = rhs + qrep.character(HeisenbergElement(
                    quotient, sol[:len(lifts)], conj.a))
        if rep.character(h) != rhs:
            return False, (h.v, h.a)
    return True, None


def _oracle_induction_check(space, u_basis, include_chi=True, iota=None):
    """(equal, witness) of the with_sl2_levi check, comparing every
    (g, v, a) as cyclotomic numbers built entry by entry."""
    p = space.p
    u_basis = _span_basis(u_basis, p)
    perp, quotient, lifts = isotropic_reduction(space, u_basis)
    rep = HeisenbergRep(space, iota)
    qrep = HeisenbergRep(quotient, iota) if quotient.dim else None
    weil = WeilSL2(rep)
    qweil = WeilSL2(qrep) if qrep is not None else None
    perp_ech, perp_piv = linalg.rref(perp, p)

    def in_perp(v):
        v = list(v)
        for row, c in zip(perp_ech, perp_piv):
            if v[c] % p:
                f = v[c]
                v = [(x - f * y) % p for x, y in zip(v, row)]
        return not any(x % p for x in v)

    def quotient_coords(v):
        cols = lifts + u_basis
        m = [[vec[i] for vec in cols] for i in range(space.dim)]
        return linalg.solve(m, list(v), p)[:len(lifts)]

    def sigma_char(qweil_g, h, chi):
        if not in_perp(h.v):
            return None
        if qrep is None:
            val = rep.psi(h.a)
        else:
            qh = HeisenbergElement(
                quotient, quotient_coords(h.v), h.a)
            val = _oracle_trace_with(qrep, qweil_g, qh)
        return val if chi == 1 else -val

    coset_reps = _complement_transversal(space, perp)
    for g in _oracle_stabilizer(space, u_basis):
        ginv = linalg.mat_inv(g, p)
        weil_g = weil(_basis_coords(space, g))
        qweil_g = None
        if qrep is not None:
            qg = _quotient_action(space, quotient, lifts, u_basis, g)
            qweil_g = qweil(_basis_coords(quotient, qg))
        chi = 1
        if include_chi and u_basis:
            chi = int(det_sign_character(space, g, u_basis))
        shifts = [(HeisenbergElement(
                      space,
                      tuple((-x) % p for x in linalg.mat_vec(ginv, w, p)), 0),
                   HeisenbergElement(space, w, 0)) for w in coset_reps]
        for v in space.vectors():
            for a in range(p):
                h = HeisenbergElement(space, v, a)
                lhs = _oracle_trace_with(rep, weil_g, h)
                rhs = rep.cyclo.zero()
                for left, right in shifts:
                    val = sigma_char(qweil_g, left * h * right, chi)
                    if val is not None:
                        rhs = rhs + val
                if lhs != rhs:
                    return False, (g, (v, a))
    return True, None


def _lines(p):
    """One spanning vector per line of F_p^2."""
    return [(1, 0)] + [(x, 1) for x in range(p)]


def test_trace_with_matches_dense_trace_exhaustive_p3():
    V = SymplecticSpace.standard(3, 1)
    rep = HeisenbergRep(V)
    w = WeilSL2(rep)
    for g in sl2_elements(3):
        wg = w(g)
        for h in _all_heisenberg(V):
            expected = (wg @ rep.operator(h)).trace()
            assert rep.trace_with(wg, h) == expected
            assert _oracle_trace_with(rep, wg, h) == expected


@pytest.mark.parametrize("p", [5, 7])
def test_trace_with_matches_dense_trace_sampled(p):
    V = SymplecticSpace.standard(p, 1)
    rep = HeisenbergRep(V)
    w = WeilSL2(rep)
    els = list(sl2_elements(p))

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(els), st.integers(0, p - 1),
           st.integers(0, p - 1), st.integers(0, p - 1))
    def check(g, x, y, a):
        h = HeisenbergElement(V, (x, y), a)
        assert rep.trace_with(w(g), h) == (w(g) @ rep.operator(h)).trace()

    check()


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("include_chi", [True, False])
def test_induction_check_matches_oracle_on_every_line(p, include_chi):
    V = SymplecticSpace.standard(p, 1)
    for line in _lines(p):
        equal, details = induction_identity_check(
            V, [line], "with_sl2_levi", include_chi)
        assert (equal, details["witness"]) == _oracle_induction_check(
            V, [line], include_chi)


@pytest.mark.parametrize("p", [3, 5])
def test_induction_check_matches_oracle_trivial_subspace(p):
    V = SymplecticSpace.standard(p, 1)
    equal, details = induction_identity_check(V, [], "with_sl2_levi")
    assert (equal, details["witness"]) == _oracle_induction_check(V, [])


def test_induction_check_matches_oracle_nondefault_iota():
    V = SymplecticSpace.standard(5, 1)
    iota = CentralCharacterChoice(5, 2)
    for include_chi in (True, False):
        equal, details = induction_identity_check(
            V, [(3, 1)], "with_sl2_levi", include_chi, iota)
        assert (equal, details["witness"]) == _oracle_induction_check(
            V, [(3, 1)], include_chi, iota)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_gauss_sum_square_and_norm(p):
    g = WeilSL2(HeisenbergRep(SymplecticSpace.standard(p, 1)))._gauss
    sign = 1 if p % 4 == 1 else -1  # sgn(-1)
    assert g * g == sign * p
    assert g * g.conj() == p


def _heisenberg_only_cases():
    """(p, n, U): U = 0 and every line of the plane at p = 3, 5; in rank 2
    at p = 3, U = 0, two lines and a Lagrangian."""
    cases = [(p, 1, u) for p in (3, 5) for u in [[]] + [[l] for l in _lines(p)]]
    return cases + [(3, 2, []), (3, 2, [(1, 0, 0, 0)]), (3, 2, [(0, 1, 1, 0)]),
                    (3, 2, [(1, 0, 0, 0), (0, 1, 0, 0)])]


@pytest.mark.parametrize("p,n,u_basis", _heisenberg_only_cases())
def test_heisenberg_only_matches_the_character_table_oracle(p, n, u_basis):
    V = SymplecticSpace.standard(p, n)
    assert _oracle_heisenberg_only(V, u_basis) == (True, None)
    for include_chi in (True, False):
        equal, details = induction_identity_check(
            V, u_basis, "heisenberg_only", include_chi)
        assert equal
        assert details == {"induced_dim": p ** n, "rep_dim": p ** n,
                           "witness": None}


@pytest.mark.parametrize("n,u_basis", [
    (1, []), (1, [(1, 0)]), (2, []), (2, [(0, 1, 1, 0)]),
    (2, [(1, 0, 0, 0), (0, 1, 0, 0)])])
def test_heisenberg_only_fails_on_a_short_transversal(monkeypatch, n,
                                                      u_basis):
    # dropping a coset representative loses part of the induced character
    # at v = 0; the witness is the one element g = 1 of the trivial group
    V = SymplecticSpace.standard(3, n)
    perp = isotropic_reduction(V, u_basis)[0]
    short = _complement_transversal(V, perp)[:-1]
    monkeypatch.setattr(sympweil, "_complement_transversal",
                        lambda space, perp: short)
    equal, details = induction_identity_check(V, u_basis, "heisenberg_only")
    zero = (0,) * V.dim
    ident = tuple(tuple(int(i == j) for j in range(V.dim))
                  for i in range(V.dim))
    assert not equal and details["witness"] == (ident, (zero, 0))
    # the induced dimension counts the representatives the check used
    assert details["induced_dim"] == 3 ** n - 3 ** (n - len(u_basis))
    assert _oracle_heisenberg_only(V, u_basis, transversal=short) == (
        False, (zero, 0))
    assert _oracle_group_ring_check(V, u_basis, "heisenberg_only",
                                    transversal=short) == (
        False, (ident, (zero, 0)))


# ---------------------------------------------------------------------------
# oracle: the loops over points and entries that the array gathers replaced


def _oracle_monomial(rep, elem):
    """rho(v, a)'s monomial columns (rows, exps), point by point: column s
    holds zeta^{exps[s]} in row rows[s]."""
    p, n = rep.space.p, rep.space.n
    c = rep.space.coordinates(elem.v)
    x, y = c[:n], c[n:]
    base = elem.a - rep._half * sum(xi * yi for xi, yi in zip(x, y))
    rows, exps = [], []
    for sidx in range(rep.dim):
        t = [(sidx // p ** i + yi) % p for i, yi in enumerate(y)]
        rows.append(sum(ti * p ** i for i, ti in enumerate(t)))
        exps.append(4 * rep._psi_exp(
            base + sum(xi * ti for xi, ti in zip(x, t))))
    return rows, exps


@pytest.mark.parametrize("p,n,unit", [(3, 1, 2), (5, 1, 3), (3, 2, 1),
                                      (5, 2, 2)])
def test_monomials_match_the_pointwise_oracle(p, n, unit):
    change = {1: ((2, 1), (1, 1)),
              2: ((1, 1, 0, 2), (0, 1, 1, 0), (1, 0, 1, 1), (0, 0, 0, 1))}[n]
    J = SymplecticSpace.standard(p, n).form
    at = tuple(zip(*change))
    for V in (SymplecticSpace.standard(p, n),
              SymplecticSpace(p, linalg.mat_mul(linalg.mat_mul(at, J, p),
                                                change, p))):
        rep = HeisenbergRep(V, CentralCharacterChoice(p, unit))
        vs = list(V.vectors())
        for a in (0, p - 1):
            rows, exps = rep._monomials(vs, a)
            for v, r, e in zip(vs, rows, exps):
                assert (r.tolist(), e.tolist()) == _oracle_monomial(
                    rep, HeisenbergElement(V, v, a))


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


def _oracle_group_ring_check(space, u_basis, mode="with_sl2_levi",
                             include_chi=True, iota=None, transversal=None):
    """(equal, witness) of induction_identity_check by one loop over the
    triples (g, omega(g), sigma(g)), the vectors v and the coset
    representatives, with each trace summed entry by entry in the group
    ring Z[Z/4p] and reduced mod Phi_4p."""
    p = space.p
    u_basis = _span_basis(u_basis, p)
    perp, quotient, lifts = isotropic_reduction(space, u_basis)
    rep = HeisenbergRep(space, iota)
    qrep = HeisenbergRep(quotient, iota) if quotient.dim else None
    ctx = rep.cyclo
    if mode == "heisenberg_only":
        ident = tuple(tuple(int(i == j) for j in range(space.dim))
                      for i in range(space.dim))
        triples = [(ident, CycloMatrix.identity(ctx, rep.dim),
                    None if qrep is None
                    else CycloMatrix.identity(ctx, qrep.dim))]
    else:
        weil = WeilSL2(rep)
        triples = ((g, omega, None if qrep is None else omega)
                   for g in _oracle_stabilizer(space, u_basis)
                   for omega in [weil(_basis_coords(space, g))])
    perp_cols = linalg.transpose(lifts + u_basis)
    big_n = ctx.n
    half = (p + 1) // 2
    vectors = list(space.vectors())
    columns = [_oracle_monomial(rep, HeisenbergElement(space, v, 0))
               for v in vectors]
    sigma_columns = {}
    for v in vectors:
        sol = linalg.solve(perp_cols, v, p)
        if sol is not None:
            sigma_columns[v] = None if qrep is None else _oracle_monomial(
                qrep, HeisenbergElement(quotient, sol[:len(lifts)], 0))
    if transversal is None:
        transversal = _complement_transversal(space, perp)
    for g, omega, sigma in triples:
        ginv = linalg.mat_inv(g, p)
        chi = 1
        if include_chi and u_basis:
            chi = int(_det_sign(space, g, u_basis))
        if sigma is None:
            sigma_den, sigma_g = 1, None
        else:
            sigma_den = sigma.den
            sigma_g = _sparse_entries(sigma, chi * omega.den)
        lhs_g = _sparse_entries(omega, sigma_den)
        shifts = []
        for w in transversal:
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
                    rhs[k] += chi * omega.den
                else:
                    _add_trace(rhs, sigma_g, *sigma_columns[conj_v], k)
            if any(ctx.reduce([x - y for x, y in zip(lhs, rhs)])):
                return False, (g, (v, 0))
    return True, None


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("include_chi", [True, False])
def test_induction_check_matches_the_group_ring_oracle_on_every_line(
        p, include_chi):
    V = SymplecticSpace.standard(p, 1)
    for line in _lines(p):
        equal, details = induction_identity_check(
            V, [line], "with_sl2_levi", include_chi)
        assert (equal, details["witness"]) == _oracle_group_ring_check(
            V, [line], include_chi=include_chi)
        assert equal is include_chi


@pytest.mark.parametrize("p", [3, 5, 7])
def test_induction_check_matches_the_group_ring_oracle_trivial_subspace(p):
    V = SymplecticSpace.standard(p, 1)
    equal, details = induction_identity_check(V, [], "with_sl2_levi")
    assert (equal, details["witness"]) == _oracle_group_ring_check(V, [])
    assert details == {"induced_dim": p, "rep_dim": p, "witness": None}


@pytest.mark.parametrize("p,unit", [(5, 2), (7, 3)])
def test_induction_check_matches_the_group_ring_oracle_nondefault_iota(
        p, unit):
    V = SymplecticSpace.standard(p, 1)
    iota = CentralCharacterChoice(p, unit)
    for u_basis in [[]] + [[line] for line in _lines(p)]:
        for include_chi in (True, False):
            equal, details = induction_identity_check(
                V, u_basis, "with_sl2_levi", include_chi, iota)
            assert (equal, details["witness"]) == _oracle_group_ring_check(
                V, u_basis, include_chi=include_chi, iota=iota)


@pytest.mark.parametrize("p,n,u_basis", _heisenberg_only_cases())
def test_heisenberg_only_matches_the_group_ring_oracle(p, n, u_basis):
    V = SymplecticSpace.standard(p, n)
    for include_chi in (True, False):
        equal, details = induction_identity_check(
            V, u_basis, "heisenberg_only", include_chi)
        assert (equal, details["witness"]) == _oracle_group_ring_check(
            V, u_basis, "heisenberg_only", include_chi) == (True, None)


# int64's edges and entries beyond it, which force Python ints; sums of a
# few 2^62 already leave int64
EDGE_ENTRIES = [2 ** 62, -2 ** 62, 2 ** 63 - 1, -2 ** 63, 2 ** 63,
                -2 ** 64 - 3]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 1), (5, 1), (3, 2)]), st.data())
def test_trace_with_matches_dense_trace_on_random_matrices(case, data):
    p, n = case
    V = SymplecticSpace.standard(p, n)
    rep = HeisenbergRep(V, CentralCharacterChoice(
        p, data.draw(st.integers(1, p - 1))))
    size = rep.cyclo.degree * rep.dim * rep.dim
    entry = st.one_of(st.integers(-9, 9), st.sampled_from(EDGE_ENTRIES))
    planes = np.array(data.draw(st.lists(entry, min_size=size,
                                         max_size=size)), dtype=object)
    mat = CycloMatrix(rep.cyclo, rep.dim,
                      planes.reshape(-1, rep.dim, rep.dim),
                      data.draw(st.integers(1, 5)))
    coordinate = st.integers(0, p - 1)
    h = HeisenbergElement(V, data.draw(st.tuples(*[coordinate] * V.dim)),
                          data.draw(coordinate))
    assert rep.trace_with(mat, h) == (mat @ rep.operator(h)).trace()


@pytest.mark.parametrize("entry", [2 ** 62, -2 ** 63, 2 ** 70])
def test_trace_with_leaves_int64_when_the_sums_do(entry):
    # every gathered entry is the same, so the trace at v = 0 is p entries
    # times a sum of zeta powers: a sum of p copies of 2^62 leaves int64
    V = SymplecticSpace.standard(5, 1)
    rep = HeisenbergRep(V)
    planes = np.full((rep.cyclo.degree, 5, 5), entry, dtype=object)
    mat = CycloMatrix(rep.cyclo, 5, planes, normalize=False)
    for v in ((0, 0), (1, 2)):
        h = HeisenbergElement(V, v, 3)
        assert rep.trace_with(mat, h) == (mat @ rep.operator(h)).trace()


def test_induction_check_keeps_its_errors():
    V = SymplecticSpace.standard(3, 2)
    with pytest.raises(SympError, match="not totally isotropic"):
        induction_identity_check(V, [(1, 0, 0, 0), (0, 0, 1, 0)],
                                 "heisenberg_only")
    with pytest.raises(SympError, match="unknown mode"):
        induction_identity_check(V, [], "heisenberg")
    with pytest.raises(SympError, match="implemented for dim V = 2"):
        induction_identity_check(V, [(1, 0, 0, 0), (0, 1, 0, 0)])
    with pytest.raises(SympError, match="requires dim"):
        induction_identity_check(V, [], "with_sl2_levi")
