"""Acceptance criteria, one test per criterion.

Every test prints a single pass/fail line; all arithmetic is exact, so
every comparison is an equality with zero tolerance.
"""

import itertools
import json
import random
import time

from heckeforge import (
    # ffield / quadspace / gradedorth
    FqContext, QuadraticSpace, OrthogonalMap, SquareClass, QuadSpaceError,
    reflection, spinor_norm, sgn_spinor, orthogonal_sum, block_embed,
    GradedQuadraticSpace, Mu4Value, zeta_scaling, otilde_membership,
    extended_sn,
    # sympweil
    SymplecticSpace, HeisenbergElement, HeisenbergRep, WeilSL2,
    # heckealg
    CoxeterSystem, ParameterFunction, HeckeAlgebra, LaurentPoly,
    TwistedGroupAlgebraContext, SemidirectAlgebra,
    support_preserving_map_check,
    # sp4oracle
    TruncContext, convolve_s, convolve_e, quadratic_relation,
)
from heckeforge import checks, linalg
from heckeforge.cli import main as cli_main
from sp4_scalar import iwahori_member, phi, upper_u, weyl_s


def _report(num, label, ok):
    print(f"\n[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed"


def _oracle_mul_via_word(algebra, letters, b):
    """T_{s_1}...T_{s_k} . b letter by letter for any word, reduced or
    not: the oracle of reduced-word independence."""
    for s in reversed(tuple(letters)):
        b = algebra._mul_gen_left(s, b)
    return b


# ---------------------------------------------------------------------------


def test_criterion_01_appendix_b_reproduction(capsys):
    start = time.perf_counter()
    ok = True
    for q in (3, 5, 7, 9):
        code = cli_main(["sp4", "--q", str(q), "--twist", "trivial"])
        out = json.loads(capsys.readouterr().out)
        ok = ok and code == 0 and out["value"] == q - 1
        code = cli_main(["sp4", "--q", str(q), "--twist", "sign"])
        out = json.loads(capsys.readouterr().out)
        ok = ok and code == 0 and out["value"] == 0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(1, "convolution oracle: (q-1, 0) for q in 3,5,7,9 "
               f"({elapsed:.2f}s)", ok)


def test_criterion_02_appendix_b_independence():
    ok = True
    for q in (3, 5):
        # truncation independence
        for twist in ("trivial", "sign"):
            vals = {(convolve_s(twist, q, N), convolve_e(twist, q, N))
                    for N in (2, 3, 4)}
            ok = ok and len(vals) == 1
        # coset count equals q and representatives are pairwise distinct
        ctx = TruncContext.for_q(q)
        s = weyl_s(ctx)
        reps = [upper_u(ctx, x) * s for x in ctx.fq.elements()]
        ok = ok and len(reps) == q
        for i in range(len(reps)):
            for j in range(len(reps)):
                if i != j and iwahori_member(reps[i].inv() * reps[j]):
                    ok = False
        # the x = 0 term vanishes exactly by the membership test
        for x in ctx.fq.elements():
            h = upper_u(ctx, x) * s
            contributes = phi(h.inv() * s, "trivial") != 0
            ok = ok and contributes == (not x.is_zero())
    _report(2, "convolution oracle: N-independence, q cosets, "
               "x=0 excluded", ok)


def test_criterion_03_weil_genuineness():
    start = time.perf_counter()
    ok = True
    for p in (3, 5, 7):
        V = SymplecticSpace.standard(p, 1)
        rep = HeisenbergRep(V)
        w = WeilSL2(rep)
        # all 576 pairs at p = 3, else 500 random pairs
        pairs = checks.weil_pairs(p, random.Random(p))
        ok = ok and checks.weil_mult(w, pairs)[0]
        tested = {x for g, h in pairs
                  for x in (g, h, linalg.mat_mul(g, h, p))}
        # intertwining relation, exact on every tested g
        gens = [((1, 0), 0), ((0, 1), 0), ((0, 0), 1)]
        ops = {(v, a): rep.operator(HeisenbergElement(V, v, a))
               for v, a in gens}
        for g in tested:
            wg = w(g)
            for v, a in gens:
                moved = rep.operator(
                    HeisenbergElement(V, linalg.mat_vec(g, v, p), a))
                if wg @ ops[v, a] != moved @ wg:
                    ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(3, "Weil genuineness + intertwining, p in 3,5,7 "
               f"({elapsed:.1f}s)", ok)


def test_criterion_04_induction_identity():
    start = time.perf_counter()
    ok = True
    for p in (3, 5):
        V = SymplecticSpace.standard(p, 1)
        lagrangians = checks.isotropic_lines(V)
        assert len(lagrangians) == p + 1
        ok = ok and checks.induction_needs_chi(V, lagrangians)[0]
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(4, "induction identity: equal with chi^U, unequal without, "
               f"all Lagrangians, p in 3,5 ({elapsed:.1f}s)", ok)


def test_criterion_05_heisenberg():
    ok = True
    for p, n in ((3, 1), (5, 1), (3, 2)):
        V = SymplecticSpace.standard(p, n)
        rep = HeisenbergRep(V)
        # central character (0, a) -> iota^{-1}(a), exact
        ok = ok and checks.weil_central(rep)[0]
        # irreducibility: <chi, chi> = 1
        total = rep.cyclo.zero()
        for v in V.vectors():
            for a in range(p):
                c = rep.character(HeisenbergElement(V, v, a))
                total = total + c * c.conj()
        order = p ** (V.dim + 1)
        if total != rep.cyclo.from_rational(order):
            ok = False
    _report(5, "Heisenberg central character + irreducibility "
               "(3,1),(5,1),(3,2)", ok)


def test_criterion_06_graded_split():
    ok = True
    rng = random.Random(0)
    for p in (3, 5):
        for dim in (2, 4, 6):
            ok = ok and checks.graded_split(p, dim, rng, 200)[0]
    _report(6, "graded_symplectic_split postconditions, 200 random "
               "instances per (p, dim) in {3,5}x{2,4,6}", ok)


def _orthogonal_group(space):
    ctx = space.ctx
    els = list(ctx.elements())
    n = space.dim
    out = []
    for flat in itertools.product(els, repeat=n * n):
        rows = [flat[i * n:(i + 1) * n] for i in range(n)]
        try:
            out.append(OrthogonalMap(space, rows))
        except QuadSpaceError:
            continue
    return out


def test_criterion_07_spinor_norm():
    ok = True
    # multiplicativity and reflection-value law, exhaustive in dim 2
    for q in (3, 5):
        ctx = FqContext(q)
        for gram in ([[0, 1], [1, 0]], [[2, 0], [0, 2]]):
            space = QuadraticSpace(ctx, gram)
            group = _orthogonal_group(space)
            values = {g: sgn_spinor(g) for g in group}
            for a in group:
                for b in group:
                    if values[a * b] != values[a] * values[b]:
                        ok = False
            for v in space.nonzero_vectors():
                phi_v = space.evaluate_form(v)
                if phi_v.is_zero():
                    continue
                if spinor_norm(reflection(space, v)) != SquareClass.of(phi_v):
                    ok = False
    # factorization independence: 10^3 random maps in dim <= 4
    rng = random.Random(1)
    combos = [(3, 2, 167), (3, 3, 167), (3, 4, 167),
              (5, 2, 167), (5, 3, 166), (5, 4, 166)]
    for q, dim, count in combos:
        ctx = FqContext(q)
        space = QuadraticSpace.diagonal(
            ctx, [ctx.one] * (dim - 1) + [ctx.elem(2)])
        aniso = [v for v in space.nonzero_vectors()
                 if not space.evaluate_form(v).is_zero()]
        for _ in range(count):
            vs = [rng.choice(aniso) for _ in range(rng.randrange(2 * dim + 1))]
            g = OrthogonalMap.identity(space)
            expected = SquareClass(True)
            for v in vs:
                g = g * reflection(space, v)
                expected = expected * SquareClass.of(space.evaluate_form(v))
            if spinor_norm(g) != expected:
                ok = False
    # orthogonal-sum multiplicativity, exhaustive for 2 (+) 2 over F_3
    ctx = FqContext(3)
    v1 = QuadraticSpace.hyperbolic_plane(ctx)
    v2 = QuadraticSpace.diagonal(ctx, [ctx.one, ctx.one])
    s = orthogonal_sum(v1, v2)
    for g1 in _orthogonal_group(v1):
        for g2 in _orthogonal_group(v2):
            g = block_embed(s, g1, g2)
            if sgn_spinor(g) != sgn_spinor(g1) * sgn_spinor(g2):
                ok = False
    _report(7, "spinor norm: multiplicativity, reflection law, "
               "factorization independence, sums", ok)


def test_criterion_08_extended_sn():
    ok = True
    for p in (3, 5):
        ctx = FqContext(p)
        sp = GradedQuadraticSpace(ctx, [("a", 2, "asym")], [[0, 1], [1, 0]])
        z = zeta_scaling(sp, "a")
        rational = _orthogonal_group(sp.space)
        group = []
        for h in rational:
            m = sp.embed_matrix(h.matrix)
            group.append((m, h, 0))
            group.append((linalg.mat_mul(m, z), h, 1))
        values = {}

        def key(m):
            return tuple(tuple(x.coeffs for x in row) for row in m)

        for m, h, e in group:
            val = extended_sn(sp, m)
            values[key(m)] = val
            # mu_4-valuedness
            if val ** 4 != Mu4Value(0):
                ok = False
            # restriction agreement on the rational part
            if e == 0 and val != Mu4Value.from_sign(sgn_spinor(h)):
                ok = False
            # quadraticity when sgn(-1) = +1 (here: p = 5)
            if p == 5 and not val.is_quadratic():
                ok = False
        # homomorphism property on the whole extended group
        for m1, _, _ in group:
            for m2, _, _ in group:
                prod = linalg.mat_mul(m1, m2)
                if values[key(prod)] != values[key(m1)] * values[key(m2)]:
                    ok = False
        # consistency identity: sn~(zeta)^2 = sgn o sn(zeta^2)
        z2 = linalg.mat_mul(z, z)
        h2, exps = otilde_membership(sp, z2)
        lhs = extended_sn(sp, z) * extended_sn(sp, z)
        if exps != {"a": 0} or lhs != Mu4Value.from_sign(sgn_spinor(h2)):
            ok = False
    _report(8, "extended character sn~: homomorphism, restriction, "
               "mu_4-valuedness, consistency", ok)


def test_criterion_09_hecke_kernel():
    ok = True
    # braid + quadratic relations, symbolically exact
    for tag, unequal in (("A2", False), ("B2", True), ("G2", True),
                         ("A1~", True)):
        system = CoxeterSystem.from_type(tag)
        names = {s: f"q{s}" for s in system.generators} if unequal \
            else {s: "q" for s in system.generators}
        algebra = HeckeAlgebra(system, ParameterFunction(system, names))
        ok = ok and checks.hecke_quadratic(algebra)[0]
        ok = ok and checks.hecke_braid(algebra)[0]
    # structure constants vs the reduced-word oracle, exhaustive to length 6
    system = CoxeterSystem.from_type("B2")
    algebra = HeckeAlgebra(system,
                           ParameterFunction(system, {"s": "qs", "t": "qt"}))
    elements = set()
    for k in range(7):
        for word in itertools.product(("s", "t"), repeat=k):
            elements.add(system.normal_form(word))
    basis = {w: algebra.basis(w) for w in elements}
    for k in range(7):
        for word in itertools.product(("s", "t"), repeat=k):
            if system.normal_form(word) != word:
                continue
            for t_w in basis.values():
                if algebra.mul(basis[word], t_w) \
                        != _oracle_mul_via_word(algebra, word, t_w):
                    ok = False
    # associativity on 500 random triples
    ok = ok and checks.hecke_assoc(
        algebra, checks.random_triples(system, random.Random(9), 500, 4))[0]
    # semidirect product Ã1 x| Z/2: conjugation and associativity
    aff = CoxeterSystem.from_type("A1~", length_cap=16)
    haff = HeckeAlgebra(aff)
    tw = TwistedGroupAlgebraContext.trivial(
        ("e", "f"), lambda a, b: "e" if a == b else "f")
    sd = SemidirectAlgebra(haff, tw, {
        "e": {"s0": "s0", "s1": "s1"}, "f": {"s0": "s1", "s1": "s0"}})
    conj = sd.mul(sd.mul(sd.basis("f", ()), sd.basis("e", ("s0",))),
                  sd.basis("f", ()))
    if conj != sd.basis("e", ("s1",)):
        ok = False
    rng2 = random.Random(10)
    for _ in range(100):
        def rnd_sd():
            letters = tuple(rng2.choice(aff.generators)
                            for _ in range(rng2.randrange(4)))
            return sd.basis(rng2.choice(tw.elements), letters)
        a, b, c = rnd_sd(), rnd_sd(), rnd_sd()
        if sd.mul(sd.mul(a, b), c) != sd.mul(a, sd.mul(b, c)):
            ok = False
    _report(9, "Hecke kernel: braid/quadratic, reduced-word oracle (B2), "
               "associativity, semidirect product", ok)


def test_criterion_10_twist_necessity():
    ok = True
    # the two quadratic relations at q = 3
    ok = ok and quadratic_relation("trivial", 3) == (3, 2)
    ok = ok and quadratic_relation("sign", 3) == (-3, 0)
    # T_s^2 = c_e T_e + c_s T_s with (c_e, c_s) = (3, 2) and (-3, 0), as
    # relations (a_s, b_s) = (c_s, c_e) over Z[lam, 1/lam]
    a1 = CoxeterSystem.from_type("A1")
    ring = ParameterFunction.constant(a1, "lam")
    trivial = HeckeAlgebra(a1, ring, relation={"s": (2, 3)})
    sign = HeckeAlgebra(a1, ring, relation={"s": (0, -3)})
    # sanity: the identity map is support-preserving on each algebra
    ok = ok and support_preserving_map_check(trivial, trivial, lambda w: 1)
    ok = ok and support_preserving_map_check(sign, sign, lambda w: 1)
    # no rescaling T_s -> lam T_s reconciles the two relations: neither a
    # symbolic lam (or its inverse) nor any concrete nonzero integer scalar
    for power in (1, -1):
        lam = LaurentPoly.variable(("lam",), "lam", power)

        def scalars(w, _l=lam):
            return _l if len(w) == 1 else 1

        if support_preserving_map_check(trivial, sign, scalars):
            ok = False
    for c in (1, -1, 2, -2, 3, -3):
        if support_preserving_map_check(
                trivial, sign, lambda w, _c=c: _c if len(w) == 1 else 1):
            ok = False
    _report(10, "twist necessity: (q-1) vs 0 relations admit no "
                "support-preserving rescaling", ok)
