"""Unit tests for symplectic spaces, Heisenberg groups, the Weil
representation, the det-sign character, and the induction identity."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from heckeforge import (SympError, SymplecticSpace, HeisenbergElement,
                        CentralCharacterChoice, HeisenbergRep, heisenberg_rep,
                        heisenberg_mul, WeilSL2, weil_sl2, projective_weil,
                        det_sign_character, isotropic_reduction,
                        graded_symplectic_split, induction_identity_check,
                        sl2_elements, SignValue, CycloMatrix)
from heckeforge import checks, linalg
from heckeforge.sympweil import (
    _span_basis,
    _stabilizer_sl2, _complement_transversal, _quotient_action,
    _basis_coords, _gauss_sum)


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


def test_heisenberg_rep_multiplicative():
    V = SymplecticSpace.standard(3, 1)
    rep = heisenberg_rep(V)
    els = list(_all_heisenberg(V))
    ops = {h: rep.operator(h) for h in els}
    for x in els:
        for y in els:
            assert ops[x] @ ops[y] == ops[x * y]


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
    # a second time doubled the count of products below
    calls = []
    matmul = CycloMatrix.__matmul__

    def counted(a, b):
        calls.append(1)
        return matmul(a, b)
    monkeypatch.setattr(CycloMatrix, "__matmul__", counted)
    V = SymplecticSpace.standard(p, 1)
    w = WeilSL2(HeisenbergRep(V))
    for g in sl2_elements(p):
        w(g)
    one_build = len(calls)
    del calls[:]
    ok, _ = induction_identity_check(V, [], "with_sl2_levi")
    assert ok and len(calls) == one_build


@pytest.mark.parametrize("p,unit", [(3, 1), (5, 1), (5, 2), (7, 3)])
def test_weyl_operator_is_the_normalized_fourier_matrix(p, unit):
    # omega(w)[t, s] = psi(-s t) sgn(2) conj(G) / p, built once per instance
    V = SymplecticSpace.standard(p, 1)
    rep = HeisenbergRep(V, CentralCharacterChoice(p, unit))
    w = WeilSL2(rep)
    sgn2 = 1 if pow(2, (p - 1) // 2, p) == 1 else -1
    const = w._gauss.conj() * Fraction(sgn2, p)
    want = CycloMatrix.from_entries(
        rep.cyclo, [[rep.psi(-s * t) * const for s in range(p)]
                    for t in range(p)])
    built = w._weyl()
    assert built == want
    w(((0, p - 1), (1, 0)))
    assert w._weyl() is built


# ---------------------------------------------------------------------------
# oracles: the entrywise evaluation the group-ring kernel replaced


def _oracle_trace_with(rep, mat, elem):
    """Trace of mat . rho(v, a) summed entry by entry in Q(zeta_{4p})."""
    p = rep.space.p
    n = rep.space.n
    x, y = rep._coords(elem)
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
        acc = acc + mat.entry(sidx, rep._index(t)) * rep.psi(phase)
    return acc


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

    def sigma_char(g, h, chi):
        if not in_perp(h.v):
            return None
        if qrep is None:
            val = rep.psi(h.a)
        else:
            qg = _quotient_action(space, quotient, lifts, u_basis, g)
            qh = HeisenbergElement(
                quotient, quotient_coords(h.v), h.a)
            val = _oracle_trace_with(
                qrep, qweil(_basis_coords(quotient, qg)), qh)
        return val if chi == 1 else -val

    coset_reps = _complement_transversal(space, perp)
    for g in _stabilizer_sl2(space, u_basis):
        ginv = linalg.mat_inv(g, p)
        weil_g = weil(_basis_coords(space, g))
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
                    val = sigma_char(g, left * h * right, chi)
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
    g = _gauss_sum(p, 1, 4 * p)
    sign = 1 if p % 4 == 1 else -1  # sgn(-1)
    assert g * g == sign * p
    assert g * g.conj() == p
