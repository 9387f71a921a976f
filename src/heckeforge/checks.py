"""The check registry: each identity that the `hecke-forge` subcommands,
`suite` and the acceptance tests verify, written once.

A check returns ``(ok, witness)``.  ``witness`` is None on a pass; on a
failure it is a JSON-ready dict naming the first failure in the check's
order.  ``suite()`` is the battery that ``hecke-forge suite`` runs.
"""

from __future__ import annotations

import random

import numpy as np

from . import linalg
from .cyclo import CycloMatrix
from .ffield import FqContext, sgn
from .gradedorth import (GradedQuadraticSpace, Mu4Value, extended_sn,
                         zeta_scaling)
from .heckealg import CoxeterSystem, HeckeAlgebra, ParameterFunction
from .quadspace import (NONSQUARE, OrthogonalMap, QuadraticSpace,
                        SquareClass, random_orthogonal, reflection,
                        sgn_spinor, spinor_norm)
from .sp4oracle import (TruncContext, _coset_reps, _in_iwahori, _stack_inv,
                        _stack_mul, convolve_s, welldefinedness_check)
from .sympweil import (HeisenbergElement, HeisenbergRep, SympError,
                       SymplecticSpace, WeilSL2, graded_symplectic_split,
                       induction_identity_check, isotropic_reduction,
                       sl2_elements)


def _first(failures):
    """(ok, witness) from an iterator over the witnesses of the failures,
    which is read up to its first item only."""
    witness = next(failures, None)
    return witness is None, witness


def _expect(value, expected):
    if value == expected:
        return True, None
    return False, {"value": value if isinstance(value, int) else repr(value)}


# ---------------------------------------------------------------------------
# Hecke algebras


def _alternating(algebra, s, t, m):
    """T_s T_t T_s ... with m factors."""
    out = algebra.one()
    for i in range(m):
        out = algebra.mul(out, algebra.basis((t if i % 2 else s,)))
    return out


def hecke_braid(algebra):
    """T_s T_t T_s ... = T_t T_s T_t ..., m(s, t) factors on each side, for
    every pair s before t of generators with m(s, t) finite."""
    gens = algebra.system.generators
    for i, s in enumerate(gens):
        for t in gens[i + 1:]:
            m = algebra.system.m[s, t]
            if m is not None and (_alternating(algebra, s, t, m)
                                  != _alternating(algebra, t, s, m)):
                return False, {"pair": [s, t], "m": m}
    return True, None


def hecke_quadratic(algebra):
    """T_s^2 = a_s T_s + b_s for every generator s, with (a_s, b_s) the
    algebra's own quadratic relation (by default (q_s - 1, q_s))."""
    def holds(s):
        ts, (a, b) = algebra.basis((s,)), algebra.relation[s]
        return algebra.mul(ts, ts) == ts.scale(a) + algebra.one().scale(b)
    return _first({"generator": s} for s in algebra.system.generators
                  if not holds(s))


def random_triples(system, rng, count, max_len):
    """count triples of normal forms of random words.  Each word draws its
    length from 0..max_len, then its letters; a triple draws a, b, c in
    that order."""
    def word():
        letters = tuple(rng.choice(system.generators)
                        for _ in range(rng.randrange(max_len + 1)))
        return system.normal_form(letters)
    return [(word(), word(), word()) for _ in range(count)]


def hecke_assoc(algebra, triples):
    """(T_a T_b) T_c = T_a (T_b T_c) for each triple of words (a, b, c)."""
    def holds(words):
        a, b, c = (algebra.basis(w) for w in words)
        return (algebra.mul(algebra.mul(a, b), c)
                == algebra.mul(a, algebra.mul(b, c)))
    return _first({"trial": trial, "words": [list(w) for w in words]}
                  for trial, words in enumerate(triples) if not holds(words))


# ---------------------------------------------------------------------------
# Heisenberg-Weil


def weil_pairs(p, rng):
    """Every pair of elements of SL_2(F_3) when p = 3, else 500 pairs drawn
    from rng."""
    els = list(sl2_elements(p))
    if p == 3:
        return [(g, h) for g in els for h in els]
    return [(rng.choice(els), rng.choice(els)) for _ in range(500)]


def weil_mult(weil, pairs):
    """weil(g) weil(h) = weil(gh) for each pair (g, h)."""
    return _first({"g": g, "h": h} for g, h in pairs
                  if (weil(g) @ weil(h))
                  != weil(linalg.mat_mul(g, h, weil.p)))


def weil_central(rep):
    """rho(0, a) = psi(a) . 1 for every a in F_p; psi(a) . 1 is the
    monomial with the zeta-power 4 psi_exp(a) on the diagonal."""
    space, zero = rep.space, (0,) * rep.space.dim
    return _first({"a": a} for a in range(space.p)
                  if rep.operator(HeisenbergElement(space, zero, a))
                  != CycloMatrix.monomial(rep.cyclo, range(rep.dim),
                                          [4 * rep._psi_exp(a)] * rep.dim))


def isotropic_lines(space):
    """One spanning vector of each line of V, the first of the line in
    space.vectors(): the vector whose last nonzero coordinate, the most
    significant digit of its code, is 1.  Every line is isotropic, the
    form being alternating."""
    return [v for v in space.vectors()
            if next((c for c in reversed(v) if c), 0) == 1]


def induction_needs_chi(space, lines):
    """For U each of the lines: the restriction-vs-induction identity holds
    with chi^U and fails without it."""
    for line in lines:
        with_chi, _ = induction_identity_check(
            space, [line], "with_sl2_levi", include_chi=True)
        without, _ = induction_identity_check(
            space, [line], "with_sl2_levi", include_chi=False)
        if not with_chi or without:
            return False, {"line": list(line), "with_chi": with_chi,
                           "without_chi": without}
    return True, None


def _random_weighted_space(p, dim, rng):
    """A random symplectic form compatible with random +-w/0 weights."""
    while True:
        weights = sorted((rng.choice([-1, 0, 1]) for _ in range(dim)),
                         reverse=True)
        # only coordinates of opposite weights may pair
        form = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                if weights[i] + weights[j] == 0:
                    form[i][j] = rng.randrange(p)
                    form[j][i] = (-form[i][j]) % p
        try:
            return SymplecticSpace(p, form), weights
        except SympError:
            continue


def _split_postconditions(space, weights):
    v1, v2, v3 = graded_symplectic_split(space, weights)

    def orthogonal(xs, ys):
        return not any(space.pairing(a, b) for a in xs for b in ys)
    if len(v1) != len(v3) or not (orthogonal(v1, v1) and orthogonal(v3, v3)
                                  and orthogonal(v2, v1 + v3)):
        return False
    # (V1)-perp = V1 + V2, via isotropic_reduction on V1
    if v1:
        perp, _, _ = isotropic_reduction(space, v1)
        target = v1 + v2
        if len(perp) != len(target) or any(
                linalg.solve(linalg.transpose(target), v, space.p) is None
                for v in perp):
            return False
    # V2 nondegenerate
    if v2:
        try:
            SymplecticSpace(space.p, [[space.pairing(a, b) for b in v2]
                                      for a in v2])
        except SympError:
            return False
    return True


def graded_split(p, dim, rng, count):
    """graded_symplectic_split's postconditions on count random weighted
    symplectic spaces of dimension dim over F_p."""
    draws = (_random_weighted_space(p, dim, rng) for _ in range(count))
    return _first({"trial": trial, "weights": weights,
                   "form": [list(row) for row in space.form]}
                  for trial, (space, weights) in enumerate(draws)
                  if not _split_postconditions(space, weights))


# ---------------------------------------------------------------------------
# the battery


def _sgn_multiplicative():
    units = [a for a in FqContext(3, 2).elements() if not a.is_zero()]
    return _first({"a": repr(a), "b": repr(b)} for a in units for b in units
                  if sgn(a * b) != sgn(a) * sgn(b))


def _sgn_sn_multiplicative():
    ctx = FqContext(3)
    space = QuadraticSpace.diagonal(ctx, [ctx.one, ctx.one])
    rng = random.Random(0)
    maps = [random_orthogonal(space, rng) for _ in range(12)]
    return _first({"a": repr(a.matrix), "b": repr(b.matrix)}
                  for a in maps for b in maps
                  if sgn_spinor(a * b) != sgn_spinor(a) * sgn_spinor(b))


def _sn_of_reflections():
    ctx = FqContext(5)
    space = QuadraticSpace.diagonal(ctx, [ctx.one, ctx.elem(2)])
    return _first({"v": repr(v)} for v in space.nonzero_vectors()
                  if not space.evaluate_form(v).is_zero()
                  and spinor_norm(reflection(space, v))
                  != SquareClass.of(space.evaluate_form(v)))


def _plane(p):
    return GradedQuadraticSpace(FqContext(p), [("a", 2, "asym")],
                                [[0, 1], [1, 0]])


def _zeta_value():
    space = _plane(3)
    return _expect(extended_sn(space, zeta_scaling(space, "a")), Mu4Value(1))


def _restriction_agrees():
    space = _plane(5)
    rng = random.Random(0)
    maps = (random_orthogonal(space.space, rng) for _ in range(10))
    return _first({"h": repr(h.matrix)} for h in maps
                  if extended_sn(space, space.embed_matrix(h.matrix))
                  != Mu4Value.from_sign(sgn_spinor(h)))


def _zeta_square():
    def holds(p):
        space = _plane(p)
        z = zeta_scaling(space, "a")
        return (extended_sn(space, z) * extended_sn(space, z)
                == extended_sn(space, linalg.mat_mul(z, z)))
    return _first({"p": p} for p in (3, 5) if not holds(p))


def _algebra(tag, unequal=False):
    """The Hecke algebra of type tag, with parameters qs, qt on s, t when
    unequal, else one parameter q."""
    system = CoxeterSystem.from_type(tag)
    return HeckeAlgebra(system, ParameterFunction(
        system, {"s": "qs", "t": "qt"}) if unequal else None)


def _braid_rank2():
    for tag in ("A2", "B2", "G2"):
        ok, witness = hecke_braid(_algebra(tag, unequal=tag != "A2"))
        if not ok:
            return False, {"type": tag, **witness}
    return True, None


def _assoc_affine_a1():
    algebra = _algebra("A1~")
    return hecke_assoc(algebra, random_triples(algebra.system,
                                               random.Random(0), 50, 4))


def _truncation_independence():
    """The witness lists the values at N = 2, 3, 4."""
    values = [[convolve_s("trivial", 3, N), convolve_s("sign", 3, N)]
              for N in (2, 3, 4)]
    if all(v == values[0] for v in values):
        return True, None
    return False, {"values": values}


def _cosets_distinct():
    """h_i^-1 h_j lies outside the Iwahori subgroup for every pair i != j
    of representatives, all pairs as one stack."""
    ctx = TruncContext.for_q(3)
    tab, reps = ctx.fq._tables, _coset_reps(ctx)
    i, j = np.nonzero(~np.eye(len(reps), dtype=bool))
    same = _in_iwahori(_stack_mul(tab, _stack_inv(tab, reps[i]), reps[j]))
    return _first({"pair": [int(a), int(b)]}
                  for a, b in zip(i[same], j[same]))


def _phi_well_defined():
    ok, pair = welldefinedness_check(3, 3, 100)
    return (True, None) if ok else (False, {"k": list(pair)})


def suite():
    """The battery: (module, name, thunk) triples, each thunk returning
    (ok, witness)."""
    weil_space = SymplecticSpace.standard(3, 1)
    return [
        ("ffield", "sgn multiplicative on F_9", _sgn_multiplicative),
        ("ffield", "square count (q-1)/2 in F_7",
         lambda: _expect(sum(1 for a in FqContext(7).units()
                             if int(sgn(a)) == 1), 3)),
        ("ffield", "sum of sgn over units vanishes",
         lambda: _expect(sum(int(sgn(a)) for a in FqContext(5).units()), 0)),
        ("quadspace", "sn(-id) on hyperbolic plane over F_3",
         lambda: _expect(spinor_norm(OrthogonalMap(
             QuadraticSpace.hyperbolic_plane(FqContext(3)),
             [[-1, 0], [0, -1]])), NONSQUARE)),
        ("quadspace", "sgn o sn multiplicative (dim 2, F_3)",
         _sgn_sn_multiplicative),
        ("quadspace", "sn(reflection) = class of form value",
         _sn_of_reflections),
        ("gradedorth", "sn~ of zeta-scaling over F_3 is i", _zeta_value),
        ("gradedorth", "restriction agrees with sgn o sn",
         _restriction_agrees),
        ("gradedorth", "sn~(zeta)^2 = sn~(zeta^2)", _zeta_square),
        ("sympweil", "weil_sl2 multiplicative on SL_2(F_3)",
         lambda: weil_mult(WeilSL2(HeisenbergRep(weil_space)),
                           weil_pairs(3, random.Random(0)))),
        ("sympweil", "central character (0,a) -> zeta_p^a",
         lambda: weil_central(HeisenbergRep(weil_space))),
        ("sympweil", "induction identity needs chi^U",
         lambda: induction_needs_chi(weil_space,
                                     isotropic_lines(weil_space))),
        ("heckealg", "braid relations in A2, B2, G2", _braid_rank2),
        ("heckealg", "quadratic relations (unequal parameters)",
         lambda: hecke_quadratic(_algebra("B2", unequal=True))),
        ("heckealg", "associativity in affine A1", _assoc_affine_a1),
        ("sp4oracle", "convolve_s trivial q=3 equals 2",
         lambda: _expect(convolve_s("trivial", 3), 2)),
        ("sp4oracle", "convolve_s sign q=3 equals 0",
         lambda: _expect(convolve_s("sign", 3), 0)),
        ("sp4oracle", "convolve_s trivial q=5 equals 4",
         lambda: _expect(convolve_s("trivial", 5), 4)),
        ("sp4oracle", "truncation independence N in {2,3,4}",
         _truncation_independence),
        ("sp4oracle", "coset representatives pairwise distinct",
         _cosets_distinct),
        ("sp4oracle", "phi well-defined on decompositions",
         _phi_well_defined),
    ]
