"""Unit tests for Coxeter normal forms, generic Hecke algebras, twisted
group algebras, and semidirect products."""

import itertools
import random

import pytest

from heckeforge import (HeckeError, CoxeterSystem, ParameterFunction,
                        LaurentPoly, HeckeAlgebra,
                        TwistedGroupAlgebraContext, twisted_mul,
                        SemidirectAlgebra,
                        length_zero_subgroup, support_preserving_map_check)
from heckeforge import checks
from heckeforge.heckealg import INFINITY, LengthCapError


# ---------------------------------------------------------------------------
# Coxeter systems


def test_normal_forms_a2():
    system = CoxeterSystem.from_type("A2")
    assert system.normal_form(("s", "t", "s")) == ("s", "t", "s")
    assert system.normal_form(("t", "s", "t")) == ("s", "t", "s")
    assert system.normal_form(("s", "s")) == ()
    assert system.normal_form(("t", "s", "s", "t")) == ()
    assert system.length(("s", "t", "s", "t")) == 2


def test_coxeter_systems_hash_once_and_by_value(monkeypatch):
    # the hash is computed at construction: hashing a word reads no entry
    # of the Coxeter matrix, and equal systems built apart hash alike
    system = CoxeterSystem.from_type("B2")
    twin = CoxeterSystem(("s", "t"), {("t", "s"): 4})
    assert system == twin and hash(system) == hash(twin)
    assert system != CoxeterSystem.from_type("A2")
    monkeypatch.setattr(system, "m", None)
    assert hash(system.word(("s", "t"))) == hash(twin.word(("s", "t")))


def test_coxeter_system_of_mixed_letters_hashes():
    # the hash once sorted the matrix's entries, so letters of two types
    # (which a Coxeter matrix file may give) raised TypeError on the first
    # hash of a word
    system = CoxeterSystem(("s", 1), {("s", 1): 3})
    algebra = HeckeAlgebra(system, ParameterFunction.constant(system))
    assert checks.hecke_braid(algebra) == (True, None)


def test_group_order_b2_g2():
    for tag, order in (("A2", 6), ("B2", 8), ("G2", 12)):
        system = CoxeterSystem.from_type(tag)
        seen = set()
        for k in range(7):
            for word in itertools.product(("s", "t"), repeat=k):
                seen.add(system.normal_form(word))
        assert len(seen) == order


def test_group_word_arithmetic():
    system = CoxeterSystem.from_type("B2")
    w = system.word(("s", "t", "s"))
    assert (w * w.inv()).is_identity()
    assert len(w) == 3
    assert w * system.word(()) == w


def test_affine_length_cap():
    system = CoxeterSystem.from_type("A1~", length_cap=8)
    # alternating words stay reduced forever in affine A1
    assert system.normal_form(tuple("s0 s1 s0 s1".split())) == (
        "s0", "s1", "s0", "s1")
    with pytest.raises(HeckeError):
        system.normal_form(tuple(["s0", "s1"] * 10))


@pytest.mark.parametrize("cap", [0, 1, 4, 7])
def test_length_cap_is_exact(cap):
    # alternating words are reduced in affine A1: length cap passes with
    # cap letters and raises with cap + 1, in the library and the oracle
    system = CoxeterSystem.from_type("A1~", length_cap=cap)
    at_cap = tuple(("s0", "s1")[i % 2] for i in range(cap))
    assert system.normal_form(at_cap) == at_cap
    assert _oracle_normal_form(system, at_cap) == at_cap
    over = at_cap + (("s0", "s1")[cap % 2],)
    with pytest.raises(LengthCapError):
        system.normal_form(over)
    with pytest.raises(LengthCapError):
        _oracle_normal_form(system, over)
    # a longer word that reduces to the cap still passes
    assert system.normal_form(("s1", "s1") + at_cap) == at_cap


# Cartan pairs (a_st, a_ts) of the dual root system, i.e. the transpose of
# the library's pairs: the coroots realize W with the same descents, so the
# oracle shares neither the library's matrices nor its arithmetic
_ORACLE_PAIRS = {2: (0, 0), 3: (-1, -1), 4: (-2, -1), 6: (-3, -1),
                 INFINITY: (-2, -2)}


def _oracle_reflections(system):
    """Row matrices of the simple reflections on the coroot lattice:
    s_i(x_j) = x_j - a_ij x_i, written as columns."""
    gens = system.generators
    n = len(gens)
    cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            cartan[i][j], cartan[j][i] = _ORACLE_PAIRS[system.m[gens[i],
                                                                gens[j]]]
    return {s: tuple(tuple(int(k == j) - int(k == i) * cartan[i][j]
                           for j in range(n)) for k in range(n))
            for i, s in enumerate(gens)}


def _oracle_mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col))
                       for col in zip(*b)) for row in a)


def _oracle_normal_form(system, letters):
    """normal_form driven by the word matrix w and its inverse together:
    peel the least s with w^{-1}(x_s) negative until w is the identity."""
    gens = _oracle_reflections(system)
    n = len(system.generators)
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    mat, inv = ident, ident
    for s in letters:
        mat = _oracle_mat_mul(mat, gens[s])
        inv = _oracle_mat_mul(gens[s], inv)
    out = []
    while mat != ident:
        if len(out) == system.length_cap:
            raise LengthCapError(
                f"word exceeds the length cap {system.length_cap}")
        i = next(i for i in range(n)
                 if all(row[i] <= 0 for row in inv)
                 and any(row[i] < 0 for row in inv))
        s = system.generators[i]
        out.append(s)
        mat = _oracle_mat_mul(gens[s], mat)
        inv = _oracle_mat_mul(inv, gens[s])
    return tuple(out)


# rank-3 systems written out as Coxeter matrices
_MATRICES = {
    "A3": (("s", "t", "u"), {("s", "t"): 3, ("t", "u"): 3, ("s", "u"): 2}),
    "B3": (("s", "t", "u"), {("s", "t"): 3, ("t", "u"): 4, ("s", "u"): 2}),
    "A2~": (("s0", "s1", "s2"),
            {("s0", "s1"): 3, ("s1", "s2"): 3, ("s0", "s2"): 3}),
}


@pytest.mark.parametrize("tag,cap", [("A2", 64), ("B2", 64), ("G2", 64),
                                     ("A1~", 64), ("A1~", 6),
                                     ("A3", 64), ("A3", 4), ("B3", 64),
                                     ("B3", 6), ("A2~", 64), ("A2~", 6)])
def test_normal_form_matches_the_two_matrix_oracle(tag, cap):
    if tag in _MATRICES:
        system = CoxeterSystem(*_MATRICES[tag], length_cap=cap)
    else:
        system = CoxeterSystem.from_type(tag, length_cap=cap)
    rng = random.Random(tag + str(cap))
    words = [tuple(rng.choice(system.generators)
                   for _ in range(rng.randrange(25))) for _ in range(150)]
    if tag in ("B2", "G2", "A1~"):
        words += [word for k in range(9)
                  for word in itertools.product(system.generators, repeat=k)]
    capped = 0
    for word in words:
        try:
            want = _oracle_normal_form(system, word)
        except LengthCapError:
            capped += 1
            with pytest.raises(LengthCapError):
                system.normal_form(word)
            continue
        assert system.normal_form(word) == want
    # with a small cap both raise on some words and agree on the rest
    assert (capped > 0) == (cap < 64)


def test_coxeter_validation():
    with pytest.raises(HeckeError):
        CoxeterSystem(("s", "s"), {})
    with pytest.raises(HeckeError):
        CoxeterSystem(("s", "t"), {("s", "t"): 5})  # non-crystallographic
    with pytest.raises(HeckeError):
        CoxeterSystem.from_type("E8")
    # a cap of -1 once switched the cap off: len(out) never equals it
    for cap in (-1, 2.5, None, "8"):
        with pytest.raises(HeckeError, match="length cap must be an int"):
            CoxeterSystem.from_type("A1~", length_cap=cap)


def test_coxeter_matrix_must_give_every_pair():
    # an omitted pair once read as m = infinity
    with pytest.raises(HeckeError, match=r"m\(s,u\) is missing"):
        CoxeterSystem(("s", "t", "u"), {("s", "t"): 3, ("t", "u"): 3})
    # infinity written out, in either order of the pair, is accepted
    for pair in (("s0", "s1"), ("s1", "s0")):
        system = CoxeterSystem(("s0", "s1"), {pair: INFINITY})
        assert system.m["s0", "s1"] is INFINITY


def test_coxeter_system_needs_generators_and_known_letters():
    with pytest.raises(HeckeError, match=r"\[\] are empty"):
        CoxeterSystem((), {})
    with pytest.raises(HeckeError, match=r"m\('s', 'u'\) names a letter"):
        CoxeterSystem(("s", "t"), {("s", "t"): 3, ("s", "u"): 2})
    with pytest.raises(HeckeError, match=r"m\('s', 't'\) names a letter"):
        CoxeterSystem((), {("s", "t"): 1})


# ---------------------------------------------------------------------------
# parameters and Laurent polynomials


def test_parameter_function_odd_m_constraint():
    a2 = CoxeterSystem.from_type("A2")
    with pytest.raises(HeckeError):
        ParameterFunction(a2, {"s": "qs", "t": "qt"})  # m = 3 is odd
    b2 = CoxeterSystem.from_type("B2")
    pf = ParameterFunction(b2, {"s": "qs", "t": "qt"})  # m = 4 is fine
    assert pf.parameters == ("qs", "qt")
    with pytest.raises(HeckeError):
        ParameterFunction(b2, {"s": "q"})  # does not cover S


def test_laurent_poly_ring():
    params = ("q",)
    q = LaurentPoly.variable(params, "q")
    qinv = LaurentPoly.variable(params, "q", -1)
    assert q * qinv == LaurentPoly.constant(params, 1)
    assert (q - 1) * (q + 1) == q * q - 1
    assert LaurentPoly.zero(params).is_zero()
    with pytest.raises(HeckeError):
        LaurentPoly.variable(params, "t")


# ---------------------------------------------------------------------------
# Hecke algebras


@pytest.mark.parametrize("tag,m,unequal", [("A2", 3, False), ("B2", 4, True),
                                           ("G2", 6, True)])
def test_braid_relations_symbolic(tag, m, unequal):
    system = CoxeterSystem.from_type(tag)
    params = (ParameterFunction(system, {"s": "qs", "t": "qt"})
              if unequal else ParameterFunction.constant(system))
    assert system.m["s", "t"] == m
    assert checks.hecke_braid(HeckeAlgebra(system, params)) == (True, None)


def test_quadratic_relation_symbolic():
    system = CoxeterSystem.from_type("B2")
    algebra = HeckeAlgebra(system,
                           ParameterFunction(system, {"s": "qs", "t": "qt"}))
    assert checks.hecke_quadratic(algebra) == (True, None)


def _oracle_mul_via_word(algebra, letters, b):
    """T_{s_1}...T_{s_k} . b letter by letter for any word, reduced or
    not: the oracle of reduced-word independence."""
    for s in reversed(tuple(letters)):
        b = algebra._mul_gen_left(s, b)
    return b


def test_mul_via_word_oracle_b2():
    system = CoxeterSystem.from_type("B2")
    algebra = HeckeAlgebra(system,
                           ParameterFunction(system, {"s": "qs", "t": "qt"}))
    elements = set()
    for k in range(5):
        for word in itertools.product(("s", "t"), repeat=k):
            elements.add(system.normal_form(word))
    basis = {w: algebra.basis(w) for w in elements}
    for k in range(5):
        for word in itertools.product(("s", "t"), repeat=k):
            if system.normal_form(word) != word:
                continue  # only reduced words multiply as T_w
            for w2, t2 in basis.items():
                assert (algebra.mul(basis[word], t2)
                        == _oracle_mul_via_word(algebra, word, t2))


def test_associativity_random():
    system = CoxeterSystem.from_type("B2")
    algebra = HeckeAlgebra(system,
                           ParameterFunction(system, {"s": "qs", "t": "qt"}))
    triples = checks.random_triples(system, random.Random(0), 100, 4)
    assert checks.hecke_assoc(algebra, triples) == (True, None)
    assert algebra.mul(algebra.one(), algebra.basis(("s",))) \
        == algebra.basis(("s",))


def test_mul_checks_both_algebras():
    # b was once multiplied under a's relation without a check
    system = CoxeterSystem.from_type("B2")
    default = HeckeAlgebra(system)
    twisted = HeckeAlgebra(system, relation={
        s: (0, default.q(s)) for s in system.generators})
    ts, tw = default.basis(("s",)), twisted.basis(("s",))
    for a, b in ((ts, tw), (tw, ts), (tw, tw)):
        with pytest.raises(HeckeError, match="algebra mismatch"):
            default.mul(a, b)


def test_element_arithmetic():
    algebra = HeckeAlgebra(CoxeterSystem.from_type("A2"))
    ts = algebra.basis(("s",))
    tt = algebra.basis(("t",))
    assert (ts + tt) - tt == ts
    assert ts.scale(0).is_zero()
    assert (ts + ts) == ts.scale(2)


# ---------------------------------------------------------------------------
# twisted group algebras


def _klein_four():
    els = ((0, 0), (0, 1), (1, 0), (1, 1))

    def mul(a, b):
        return ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2)

    return els, mul


def test_twisted_cocycle_validation():
    els, mul = _klein_four()
    ctx = TwistedGroupAlgebraContext.trivial(els, mul)
    assert ctx.identity == (0, 0)
    assert ctx.inverse((1, 1)) == (1, 1)
    # corrupt the cocycle identity
    bad = {(a, b): 1 for a in els for b in els}
    bad[(1, 0), (0, 1)] = -1
    with pytest.raises(HeckeError):
        TwistedGroupAlgebraContext(els, mul, bad)
    # un-normalized cocycle
    bad2 = {(a, b): -1 for a in els for b in els}
    with pytest.raises(HeckeError):
        TwistedGroupAlgebraContext(els, mul, bad2)


def test_nontrivial_cocycle_anticommutation():
    # the Heisenberg-type cocycle on Z/2 x Z/2: e_x e_y = - e_y e_x
    els, mul = _klein_four()
    cocycle = {(a, b): (-1) ** (a[1] * b[0]) for a in els for b in els}
    ctx = TwistedGroupAlgebraContext(els, mul, cocycle)
    x, y = (1, 0), (0, 1)
    lhs = twisted_mul(ctx, {x: 1}, {y: 1})
    rhs = twisted_mul(ctx, {y: 1}, {x: 1})
    assert lhs == {(1, 1): 1} and rhs == {(1, 1): -1}
    # associativity of the twisted product on all basis triples
    for a in els:
        for b in els:
            for c in els:
                left = twisted_mul(ctx, twisted_mul(ctx, {a: 1}, {b: 1}),
                                   {c: 1})
                right = twisted_mul(ctx, {a: 1},
                                    twisted_mul(ctx, {b: 1}, {c: 1}))
                assert left == right


# ---------------------------------------------------------------------------
# semidirect products


def _affine_semidirect():
    system = CoxeterSystem.from_type("A1~", length_cap=16)
    algebra = HeckeAlgebra(system)
    els = ("e", "f")

    def mul(a, b):
        return "e" if a == b else "f"

    ctx = TwistedGroupAlgebraContext.trivial(els, mul)
    act = {"e": {"s0": "s0", "s1": "s1"},
           "f": {"s0": "s1", "s1": "s0"}}
    return SemidirectAlgebra(algebra, ctx, act), algebra, ctx


def test_semidirect_conjugation_formula():
    sd, algebra, ctx = _affine_semidirect()
    # e_f T_{s0} e_f = T_{s1}
    prod = sd.mul(sd.mul(sd.basis("f", ()), sd.basis("e", ("s0",))),
                  sd.basis("f", ()))
    assert prod == sd.basis("e", ("s1",))


def test_semidirect_associativity():
    sd, algebra, ctx = _affine_semidirect()
    rng = random.Random(1)
    system = algebra.system

    def rnd():
        letters = tuple(rng.choice(system.generators)
                        for _ in range(rng.randrange(4)))
        return sd.basis(rng.choice(ctx.elements), letters)

    for _ in range(60):
        a, b, c = rnd(), rnd(), rnd()
        assert sd.mul(sd.mul(a, b), c) == sd.mul(a, sd.mul(b, c))


def test_semidirect_action_validation():
    system = CoxeterSystem.from_type("B2")
    algebra = HeckeAlgebra(system,
                           ParameterFunction(system, {"s": "qs", "t": "qt"}))
    els = ("e", "f")

    def mul(a, b):
        return "e" if a == b else "f"

    ctx = TwistedGroupAlgebraContext.trivial(els, mul)
    # the swap preserves m but not the unequal parameter function
    act = {"e": {"s": "s", "t": "t"}, "f": {"s": "t", "t": "s"}}
    with pytest.raises(HeckeError):
        SemidirectAlgebra(algebra, ctx, act)
    # not a homomorphism: f acts trivially but f*f = e forces nothing; break
    # act(e) instead
    act2 = {"e": {"s": "t", "t": "s"}, "f": {"s": "s", "t": "t"}}
    with pytest.raises(HeckeError):
        SemidirectAlgebra(HeckeAlgebra(system), ctx, act2)


def test_length_zero_subgroup():
    system = CoxeterSystem.from_type("A1~", length_cap=16)
    els = ("e", "f")

    def mul(a, b):
        return "e" if a == b else "f"

    act = {"e": {"s0": "s0", "s1": "s1"},
           "f": {"s0": "s1", "s1": "s0"}}
    ctx = length_zero_subgroup(system, els, mul, act)
    assert ctx.identity == "e"


# ---------------------------------------------------------------------------
# quadratic relations T_s^2 = a_s T_s + b_s


def _unequal(tag):
    system = CoxeterSystem.from_type(tag)
    return system, ParameterFunction(
        system, {s: f"q{s}" for s in system.generators})


def _twisted(tag):
    """The relation of the sign twist: a_s = 0, b_s = -q_s."""
    system, params = _unequal(tag)
    algebra = HeckeAlgebra(system, params)
    return HeckeAlgebra(system, params, relation={
        s: (0, -algebra.q(s)) for s in system.generators})


def _elements(system, max_len):
    return sorted({system.normal_form(word) for k in range(max_len + 1)
                   for word in itertools.product(system.generators,
                                                 repeat=k)})


def _rank1(c_e, c_s):
    """T_s^2 = c_e T_e + c_s T_s over Z[lam, 1/lam]."""
    a1 = CoxeterSystem.from_type("A1")
    return HeckeAlgebra(a1, ParameterFunction.constant(a1, "lam"),
                        relation={"s": (c_s, c_e)})


@pytest.mark.parametrize("tag", ["B2", "A1~"])
def test_default_relation_is_q_minus_one_and_q(tag):
    # written from q(s), not from algebra.relation, which the registry reads
    algebra = HeckeAlgebra(*_unequal(tag))
    for s in algebra.system.generators:
        ts, q = algebra.basis((s,)), algebra.q(s)
        assert algebra.mul(ts, ts) == ts.scale(q - 1) + algebra.one().scale(q)


@pytest.mark.parametrize("tag", ["B2", "G2"])
def test_twisted_relation_braid_and_quadratic(tag):
    algebra = _twisted(tag)
    for s in algebra.system.generators:
        ts = algebra.basis((s,))
        assert algebra.mul(ts, ts) == algebra.one().scale(-algebra.q(s))
    assert checks.hecke_quadratic(algebra) == (True, None)
    assert checks.hecke_braid(algebra) == (True, None)


def test_twisted_relation_associative_on_all_of_b2():
    algebra = _twisted("B2")
    elements = _elements(algebra.system, 4)
    assert len(elements) == 8
    triples = list(itertools.product(elements, repeat=3))
    assert checks.hecke_assoc(algebra, triples) == (True, None)


def test_twisted_relation_associative_certificate_g2():
    # (T_a T_b) T_s = T_a (T_b T_s) for all a, b in W and s in S gives
    # associativity on every triple, by induction on l(c)
    algebra = _twisted("G2")
    elements = _elements(algebra.system, 6)
    assert len(elements) == 12
    triples = [(a, b, (s,)) for a in elements for b in elements
               for s in algebra.system.generators]
    assert checks.hecke_assoc(algebra, triples) == (True, None)


def test_relation_must_agree_on_conjugate_generators():
    a2 = CoxeterSystem.from_type("A2")
    q = HeckeAlgebra(a2).q("s")
    with pytest.raises(HeckeError):
        HeckeAlgebra(a2, relation={"s": (0, -q), "t": (q - 1, q)})
    twisted = HeckeAlgebra(a2, relation={"s": (0, -q), "t": (0, -q)})
    assert twisted.relation["t"] == (0, -q)
    with pytest.raises(HeckeError):
        HeckeAlgebra(a2, relation={"s": (0, -q)})  # does not cover S
    lam = LaurentPoly.variable(("lam",), "lam")
    with pytest.raises(HeckeError):
        HeckeAlgebra(a2, relation={"s": (0, lam), "t": (0, lam)})


def test_relation_is_part_of_the_algebra():
    trivial, sign = _rank1(3, 2), _rank1(-3, 0)
    assert trivial == _rank1(3, 2) and hash(trivial) == hash(_rank1(3, 2))
    assert trivial != sign
    assert trivial.basis(("s",)) != sign.basis(("s",))


def test_semidirect_action_must_preserve_the_relation():
    system = CoxeterSystem.from_type("A1~", length_cap=16)
    q = HeckeAlgebra(system).q("s0")
    algebra = HeckeAlgebra(system, relation={"s0": (0, -q),
                                             "s1": (q - 1, q)})
    ctx = TwistedGroupAlgebraContext.trivial(
        ("e", "f"), lambda a, b: "e" if a == b else "f")
    with pytest.raises(HeckeError):
        SemidirectAlgebra(algebra, ctx, {"e": {"s0": "s0", "s1": "s1"},
                                         "f": {"s0": "s1", "s1": "s0"}})


# ---------------------------------------------------------------------------
# rank-1 convolution algebras and support-preserving maps


def test_quadratic_convolution_algebra_relation():
    alg = _rank1(3, 2)
    ts = alg.basis(("s",))
    assert alg.mul(ts, ts) == alg.one().scale(3) + ts.scale(2)


def test_support_preserving_identity_map():
    alg = _rank1(3, 2)
    assert support_preserving_map_check(alg, alg, lambda w: 1)


def test_support_preserving_rescaling_fails_across_twist():
    # (c_e, c_s) = (3, 2) vs (-3, 0): no scalar on T_s reconciles them
    trivial = _rank1(3, 2)
    sign = _rank1(-3, 0)
    lam = LaurentPoly.variable(("lam",), "lam")

    def scalars(w):
        return lam if len(w) == 1 else 1

    assert not support_preserving_map_check(trivial, sign, scalars)


def test_no_rescaling_identifies_the_relations_in_rank_2():
    # T_w -> c_w T_w with c_w the product of c_s over the letters of w:
    # (-1)^l(w) is an automorphism of the twisted B2 algebra (a_s = 0) but
    # not of the default one, and no c_s in {+-1, +-2, +-q_s, +-1/q_s}
    # maps the default relation onto the twisted one
    system, params = _unequal("B2")
    default, twisted = HeckeAlgebra(system, params), _twisted("B2")

    def rescaling(c):
        def scalars(w):
            out = 1
            for s in w.letters:
                out = c[s] * out
            return out
        return scalars

    sign = rescaling({"s": -1, "t": -1})
    assert support_preserving_map_check(twisted, twisted, sign)
    assert not support_preserving_map_check(default, default, sign)

    def candidates(s):
        powers = [LaurentPoly.variable(default.names, f"q{s}", e)
                  for e in (1, -1)]
        return [k * c for c in [1, 2] + powers for k in (1, -1)]

    for cs in candidates("s"):
        for ct in candidates("t"):
            assert not support_preserving_map_check(
                default, twisted, rescaling({"s": cs, "t": ct}))


def test_support_preserving_map_needs_one_coefficient_ring():
    a1 = CoxeterSystem.from_type("A1")
    over_q = HeckeAlgebra(a1, relation={"s": (2, 3)})
    with pytest.raises(HeckeError, match="coefficient ring"):
        support_preserving_map_check(over_q, _rank1(3, 2), lambda w: 1)
