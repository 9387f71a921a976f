"""The check registry: every check passes on the library, and fails with
its first witness on a deliberately broken input (a negative control, so
that a check that always passes does not go unnoticed)."""

import json
import random

import pytest

from heckeforge import (CoxeterSystem, HeckeAlgebra, HeisenbergRep,
                        ParameterFunction, SymplecticSpace, WeilSL2,
                        graded_symplectic_split, random_orthogonal,
                        sl2_elements)
from heckeforge import checks

BATTERY = checks.suite()


@pytest.mark.parametrize("thunk", [thunk for _, _, thunk in BATTERY],
                         ids=[f"{m}: {n}" for m, n, _ in BATTERY])
def test_battery_entry_passes(thunk):
    ok, witness = thunk()
    assert ok is True and witness is None


def test_battery_names_are_unique():
    assert len({(m, n) for m, n, _ in BATTERY}) == len(BATTERY)


# ---------------------------------------------------------------------------
# the battery's own inputs: a sampled entry that shrinks its sample, or
# moves its seed, still passes, so the inputs are pinned here


def _spy(monkeypatch, name):
    """Wrap checks.<name> so that every call's arguments and result are
    recorded; the battery gets the same result."""
    calls, real = [], getattr(checks, name)

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result
    monkeypatch.setattr(checks, name, spy)
    return calls


def test_affine_associativity_checks_its_fifty_seeded_triples(monkeypatch):
    calls = _spy(monkeypatch, "hecke_assoc")
    assert checks._assoc_affine_a1() == (True, None)
    [((algebra, triples), kwargs, _)] = calls
    assert algebra.system.type_tag == "A1~" and not kwargs
    assert len(triples) == 50
    assert triples == checks.random_triples(algebra.system,
                                            random.Random(0), 50, 4)


def test_truncation_independence_convolves_at_n_2_3_4(monkeypatch):
    calls = _spy(monkeypatch, "convolve_s")
    assert checks._truncation_independence() == (True, None)
    assert [args for args, _, _ in calls] == [
        (twist, 3, n) for n in (2, 3, 4) for twist in ("trivial", "sign")]


@pytest.mark.parametrize("entry,count", [("_sgn_sn_multiplicative", 12),
                                         ("_restriction_agrees", 10)])
def test_sampled_orthogonal_entries_draw_their_maps_from_seed_0(
        entry, count, monkeypatch):
    calls = _spy(monkeypatch, "random_orthogonal")
    assert getattr(checks, entry)() == (True, None)
    space = calls[0][0][0]
    rng = random.Random(0)
    assert [(args[0], kwargs, g.matrix) for args, kwargs, g in calls] == [
        (space, {}, random_orthogonal(space, rng).matrix)
        for _ in range(count)]


def test_phi_well_defined_samples_100_decompositions(monkeypatch):
    calls = _spy(monkeypatch, "welldefinedness_check")
    assert checks._phi_well_defined() == (True, None)
    assert [(args, kwargs) for args, kwargs, _ in calls] == [((3, 3, 100),
                                                              {})]


def test_cosets_distinct_names_the_first_repeated_pair(monkeypatch):
    # a negative control: representatives x = 0, 1, 1
    reps = checks._coset_reps
    monkeypatch.setattr(checks, "_coset_reps",
                        lambda ctx: reps(ctx)[[0, 1, 1]])
    assert checks._cosets_distinct() == (False, {"pair": [1, 2]})


def test_phi_well_defined_witness_is_the_pair_as_code_lists(monkeypatch):
    k1 = [[[1, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 0, 0]]]
    k2 = [[[2, 0, 0], [0, 0, 0]], [[0, 0, 0], [2, 0, 0]]]
    monkeypatch.setattr(checks, "welldefinedness_check",
                        lambda *args: (False, (k1, k2)))
    ok, witness = checks._phi_well_defined()
    assert not ok and witness == {"k": [k1, k2]}
    assert json.loads(json.dumps(witness)) == witness


def _doubling(algebra, when):
    """algebra.mul, except that a product (a, b) with when(a, b) comes out
    twice too large."""
    mul = algebra.mul
    return lambda a, b: mul(a, b).scale(2) if when(a, b) else mul(a, b)


def test_hecke_braid_first_witness():
    # s - t - u with m(s, t) = m(t, u) = 3, m(s, u) = 2; doubling every
    # right factor T_t breaks both m = 3 relations: t occurs once on one
    # side and twice on the other
    system = CoxeterSystem(("s", "t", "u"),
                           {("s", "t"): 3, ("t", "u"): 3, ("s", "u"): 2})
    algebra = HeckeAlgebra(system)
    assert checks.hecke_braid(algebra) == (True, None)
    t = algebra.basis(("t",))
    algebra.mul = _doubling(algebra, lambda a, b: b == t)
    assert checks.hecke_braid(algebra) == (False, {"pair": ["s", "t"],
                                                   "m": 3})


def test_hecke_quadratic_first_witness():
    system = CoxeterSystem.from_type("B2")
    algebra = HeckeAlgebra(system,
                           ParameterFunction(system, {"s": "qs", "t": "qt"}))
    assert checks.hecke_quadratic(algebra) == (True, None)
    algebra.mul = _doubling(algebra, lambda a, b: a == b)
    assert checks.hecke_quadratic(algebra) == (False, {"generator": "s"})


def test_hecke_assoc_first_witness():
    algebra = HeckeAlgebra(CoxeterSystem.from_type("A2"))
    s, t = ("s",), ("t",)
    triples = [((), (), ()), (s, s, s), (t, s, s)]
    assert checks.hecke_assoc(algebra, triples) == (True, None)
    # doubling right factors T_s: (T_s T_s) T_s doubles twice,
    # T_s (T_s T_s) once
    ts = algebra.basis(s)
    algebra.mul = _doubling(algebra, lambda a, b: b == ts)
    assert checks.hecke_assoc(algebra, triples) == (
        False, {"trial": 1, "words": [["s"], ["s"], ["s"]]})


def test_random_triples_draw_length_then_letters():
    system = CoxeterSystem.from_type("B2")
    rng = random.Random(5)
    words = []
    for _ in range(3 * 4):
        n = rng.randrange(4)
        words.append(system.normal_form(
            tuple(rng.choice(system.generators) for _ in range(n))))
    triples = checks.random_triples(system, random.Random(5), 4, 3)
    assert [w for triple in triples for w in triple] == words


def test_weil_pairs():
    assert len(checks.weil_pairs(3, None)) == 24 * 24
    els = set(sl2_elements(5))
    pairs = checks.weil_pairs(5, random.Random(0))
    assert len(pairs) == 500
    assert all(g in els and h in els for g, h in pairs)
    assert pairs == checks.weil_pairs(5, random.Random(0))


class _NegatedAt(WeilSL2):
    """The Weil representation with the operator of one element negated."""

    def __init__(self, rep, bad):
        super().__init__(rep)
        self.bad = bad

    def __call__(self, g):
        m = super().__call__(g)
        return -m if g == self.bad else m


def test_weil_mult_first_witness():
    rep = HeisenbergRep(SymplecticSpace.standard(3, 1))
    ident, u1, u2 = ((1, 0), (0, 1)), ((1, 1), (0, 1)), ((1, 2), (0, 1))
    # u(2) u(2) = u(1) and u(1) u(2) = 1: both pairs see one negation
    pairs = [(ident, ident), (u2, u2), (u1, u2)]
    assert checks.weil_mult(WeilSL2(rep), pairs) == (True, None)
    assert checks.weil_mult(_NegatedAt(rep, u1), pairs) == (
        False, {"g": u2, "h": u2})


def test_weil_central_first_witness():
    rep = HeisenbergRep(SymplecticSpace.standard(3, 1))
    assert checks.weil_central(rep) == (True, None)
    operator = rep.operator
    rep.operator = lambda h: -operator(h) if h.a else operator(h)
    assert checks.weil_central(rep) == (False, {"a": 1})


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 2)])
def test_isotropic_lines(p, n):
    space = SymplecticSpace.standard(p, n)
    lines = checks.isotropic_lines(space)
    assert len(lines) == (p ** (2 * n) - 1) // (p - 1)
    spans = [{tuple(c * x % p for x in v) for c in range(1, p)}
             for v in lines]
    assert all(any(v) for v in lines)
    assert len(set().union(*spans)) == sum(len(s) for s in spans)


def _oracle_isotropic_lines(space):
    """The first vector of each line in space.vectors(), found by keying
    every nonzero vector by its multiple with first nonzero coordinate 1."""
    p, lines = space.p, {}
    for v in space.vectors():
        lead = next((c for c in v if c), 0)
        if lead:
            lines.setdefault(tuple(x * pow(lead, p - 2, p) % p for x in v), v)
    return list(lines.values())


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)])
def test_isotropic_lines_match_the_first_vector_oracle(p, n):
    space = SymplecticSpace.standard(p, n)
    assert checks.isotropic_lines(space) == _oracle_isotropic_lines(space)


def test_induction_needs_chi_first_witness(monkeypatch):
    space = SymplecticSpace.standard(3, 1)
    lines = checks.isotropic_lines(space)
    assert checks.induction_needs_chi(space, lines) == (True, None)

    def equal_without_chi(space, u_basis, mode, include_chi):
        # the identity "holds" without chi^U on every line but the first
        return include_chi or u_basis != [lines[0]], {}
    monkeypatch.setattr(checks, "induction_identity_check",
                        equal_without_chi)
    assert checks.induction_needs_chi(space, lines) == (
        False, {"line": list(lines[1]), "with_chi": True,
                "without_chi": True})


def test_graded_split_first_witness(monkeypatch):
    p, dim, count = 3, 4, 20
    assert checks.graded_split(p, dim, random.Random(0), count) == (True,
                                                                    None)
    # the first draw whose V1 is nonzero: V1 + V3 is not isotropic there
    rng = random.Random(0)
    for trial in range(count):
        space, weights = checks._random_weighted_space(p, dim, rng)
        if graded_symplectic_split(space, weights)[0]:
            break
    else:
        pytest.fail("no draw with a nonzero V1")
    expected = {"trial": trial, "weights": weights,
                "form": [list(row) for row in space.form]}

    def non_isotropic_v1(space, weights):
        v1, v2, v3 = graded_symplectic_split(space, weights)
        return v1 + v3, v2, v3 + v1
    monkeypatch.setattr(checks, "graded_symplectic_split", non_isotropic_v1)
    assert checks.graded_split(p, dim, random.Random(0), count) == (
        False, expected)
