"""The three verdict mixes, their contexts, and their known answers.

A verdict is one exact check whose answer is known in advance.  Inputs are
plain ints drawn from a seeded ``random.Random``; the program receives only
those inputs.  Each known answer comes from arithmetic in this file or from
a theorem, never from the code path being timed:

* square classes by Euler's criterion on plain ints (and in a plain-int
  model of F_9 for q = 9), multiplied over the reflections a product was
  built from;
* the closed forms (q, q-1) and (sgn(-1) q, 0) of the sl_2 convolution;
* for Hecke products T_x T_{x^-1}: the trace form tau(T_x T_y) =
  delta_{xy,e} q_x gives the T_e coefficient, and specialising every
  parameter to 1 gives the group product;
* Weil multiplicativity, Heisenberg multiplication and intertwining hold
  exactly, and the induction identity holds with chi^U and fails without.

Every round of a workload has the same verdict mix; only the inputs change
with the seed.  The mixes are sized so that the median verdict falls in the
``median`` class and the p90 verdict in the ``tail`` class (``selftest.py``
checks this).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
from dataclasses import dataclass
from typing import Callable

MEDIAN = "median"
TAIL = "tail"


@dataclass
class Verdict:
    kind: str
    klass: str
    size: dict
    run: Callable  # run(env) -> True when the outcome equals the known answer


@dataclass
class Workload:
    name: str
    why: str
    setup: Callable       # setup(hf) -> dict of contexts
    make_round: Callable  # make_round(rng) -> list of Verdict


class Env:
    """A freshly imported package, its CLI module and the built contexts."""

    def __init__(self, hf, cli, ctx):
        self.hf = hf
        self.cli = cli
        self.ctx = ctx


def _cli_json(env, argv, stdin=None):
    """cli.main in-process with stdout captured: its JSON output when it
    exits with 0, else None."""
    out = io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = env.cli.main(argv)
    finally:
        sys.stdin = saved
    return json.loads(out.getvalue()) if code == 0 else None


# ---------------------------------------------------------------------------
# plain-int arithmetic for inputs and known answers


def euler_is_square(a, p):
    """Euler's criterion for a nonzero residue mod an odd prime."""
    return pow(a % p, (p - 1) // 2, p) == 1


class PlainField:
    """F_q = F_p[x]/(modulus) on coefficient tuples; used only to build
    inputs and known answers, independently of ``heckeforge.ffield``."""

    def __init__(self, p, modulus=(0, 1)):
        self.p = p
        self.modulus = tuple(modulus)
        self.m = len(modulus) - 1
        self.q = p ** self.m
        self.zero = (0,) * self.m
        self.one = (1,) + (0,) * (self.m - 1)

    def const(self, c):
        return (c % self.p,) + (0,) * (self.m - 1)

    def random(self, rng):
        return tuple(rng.randrange(self.p) for _ in range(self.m))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        p, m = self.p, self.m
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for k in range(2 * m - 2, m - 1, -1):
            c = prod[k] % p
            if c:
                for i, g in enumerate(self.modulus):
                    prod[k - m + i] -= c * g
        return tuple(x % p for x in prod[:m])

    def pow(self, a, e):
        out, base = self.one, a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def inv(self, a):
        return self.pow(a, self.q - 2)

    def is_square(self, a):
        return self.pow(a, (self.q - 1) // 2) == self.one

    # vectors and matrices (lists of rows)

    def form(self, gram, u, v):
        acc = self.zero
        for i, row in enumerate(gram):
            for j, g in enumerate(row):
                acc = self.add(acc, self.mul(self.mul(u[i], g), v[j]))
        return acc

    def phi(self, gram, v):
        return self.mul(self.form(gram, v, v), self.inv(self.const(2)))

    def reflection(self, gram, v):
        """Matrix of r_v(w) = w - B(w, v)/phi(v) v, acting on columns."""
        n = len(v)
        scale = self.inv(self.phi(gram, v))
        gv = [self.form(gram, tuple(self.one if k == j else self.zero
                                    for k in range(n)), v)
              for j in range(n)]
        return [[self.sub(self.one if i == j else self.zero,
                          self.mul(self.mul(gv[j], scale), v[i]))
                 for j in range(n)] for i in range(n)]

    def matmul(self, a, b):
        n = len(a)
        out = []
        for i in range(n):
            row = []
            for j in range(len(b[0])):
                acc = self.zero
                for k in range(n):
                    acc = self.add(acc, self.mul(a[i][k], b[k][j]))
                row.append(acc)
            out.append(row)
        return out

    def identity(self, n):
        return [[self.one if i == j else self.zero for j in range(n)]
                for i in range(n)]


# F_9 with x^2 = -1; the field context is built with this modulus so that
# plain-int inputs and the program agree on coordinates
F9_MODULUS = (1, 0, 1)


def plain_field(q):
    return PlainField(3, F9_MODULUS) if q == 9 else PlainField(q)


def _random_sl2(rng, p):
    while True:
        a, b, c, d = (rng.randrange(p) for _ in range(4))
        if (a * d - b * c) % p == 1:
            return ((a, b), (c, d))


def _mat2_mul(g, h, p):
    return tuple(tuple(sum(g[i][k] * h[k][j] for k in range(2)) % p
                       for j in range(2)) for i in range(2))


def _mat2_vec(g, v, p):
    return tuple(sum(g[i][k] * v[k] for k in range(2)) % p for i in range(2))


def _lines(p):
    """The p + 1 lines of F_p^2 (all Lagrangian), one spanning vector each."""
    return [(1, 0)] + [(x, 1) for x in range(p)]


# ---------------------------------------------------------------------------
# weil: sympweil and cyclo


WEIL_PRIMES = (3, 5, 7, 11)
# the operators at (5, 2) cost the same whatever the seed; the median
# verdict falls inside their block
HEIS_COPIES = {(3, 2): 12, (5, 2): 24}
WEIL_MULT_COPIES = {5: 12, 7: 12, 11: 16}


def setup_weil(hf):
    ctx = {}
    for p in WEIL_PRIMES:
        space = hf.SymplecticSpace.standard(p, 1)
        rep = hf.HeisenbergRep(space)
        ctx["weil", p] = (space, rep, hf.WeilSL2(rep))
    for p, n in HEIS_COPIES:
        space = hf.SymplecticSpace.standard(p, n)
        ctx["heis", p, n] = (space, hf.HeisenbergRep(space))
    return ctx


def _weil_mult(p, g, h):
    gh = _mat2_mul(g, h, p)

    def run(env):
        w = env.ctx["weil", p][2]
        return (w(g) @ w(h)) == w(gh)
    return Verdict("weil_mult", MEDIAN, {"p": p}, run)


def _weil_intertwine(p, g, v, a):
    gv = _mat2_vec(g, v, p)

    def run(env):
        space, rep, w = env.ctx["weil", p]
        hf = env.hf
        wg = w(g)
        lhs = wg @ rep.operator(hf.HeisenbergElement(space, v, a))
        return lhs == rep.operator(hf.HeisenbergElement(space, gv, a)) @ wg
    return Verdict("weil_intertwine", MEDIAN, {"p": p}, run)


def _heis_mult(p, n, x, y):
    (v, a), (w, b) = x, y
    pairing = sum(v[i] * w[n + i] - v[n + i] * w[i] for i in range(n))
    prod = (tuple((s + t) % p for s, t in zip(v, w)),
            (a + b + (p + 1) // 2 * pairing) % p)

    def run(env):
        space, rep = env.ctx["heis", p, n]
        el = env.hf.HeisenbergElement
        lhs = rep.operator(el(space, v, a)) @ rep.operator(el(space, w, b))
        return lhs == rep.operator(el(space, *prod))
    return Verdict("heis_mult", MEDIAN, {"p": p, "dim": 2 * n}, run)


def _weil_cli(p, dim):
    argv = ["weil", "--p", str(p), "--dim", str(dim), "--check", "central"]

    def run(env):
        out = _cli_json(env, argv)
        return out is not None and out["pass"] is True
    return Verdict("cli_weil_central", MEDIAN, {"p": p, "dim": dim}, run)


def _induction(p, line, with_chi):
    def run(env):
        space = env.ctx["weil", p][0]
        equal, _ = env.hf.induction_identity_check(
            space, [line], "with_sl2_levi", include_chi=with_chi)
        return equal is with_chi
    kind = "induction_with_chi" if with_chi else "induction_without_chi"
    return Verdict(kind, TAIL, {"p": p}, run)


def weil_round(rng):
    out = []
    for p, copies in WEIL_MULT_COPIES.items():
        for _ in range(copies):
            out.append(_weil_mult(p, _random_sl2(rng, p), _random_sl2(rng, p)))
        for _ in range(8):
            v = (0, 0)
            while v == (0, 0):
                v = (rng.randrange(p), rng.randrange(p))
            out.append(_weil_intertwine(p, _random_sl2(rng, p), v,
                                        rng.randrange(p)))
    for (p, n), copies in HEIS_COPIES.items():
        for _ in range(copies):
            x, y = ((tuple(rng.randrange(p) for _ in range(2 * n)),
                     rng.randrange(p)) for _ in range(2))
            out.append(_heis_mult(p, n, x, y))
    for p, dim in ((3, 2), (5, 2), (3, 4)):
        for _ in range(2):
            out.append(_weil_cli(p, dim))
    # tail: every Lagrangian at p = 3, 5, with and without chi^U, and the
    # check with chi^U on one seeded line at p = 7, drawn from the lines
    # (x, 1), x != -1, whose checks cost the same; (1, 0) and (-1, 1) check
    # about 20% faster
    for p in (3, 5):
        for line in _lines(p):
            out.append(_induction(p, line, True))
            out.append(_induction(p, line, False))
    out.append(_induction(7, (rng.randrange(7 - 1), 1), True))
    return out


# ---------------------------------------------------------------------------
# orthogonal: ffield, linalg, quadspace, gradedorth, sp4oracle


ORTHO_FIELDS = (3, 5, 7, 9)
# block a: an asymmetric orbit (hyperbolic plane), block b: a symmetric line
GRADED_BLOCKS = (("a", 2, "asym"), ("b", 1, "sym"))
GRADED_GRAM = ((0, 1, 0), (1, 0, 0), (0, 0, 2))
SP4_QS = (3, 5, 7, 9, 25, 27, 49)
# the relation does not depend on the truncation N >= 2; N = 2 is the
# smallest faithful instance
SP4_TRUNC = 2
# (q, dim) points of the spinor-norm tail with their copies per round: the
# costly points repeat so that the p90 verdict is a spinor norm
SPINOR_GRID = {(3, 4): 1, (3, 5): 1, (5, 4): 1, (7, 4): 1,
               (5, 5): 2, (7, 5): 2, (9, 4): 14}
# copies per round that put the median verdict inside the extended_sn block
# at p = 7, with as many cheaper verdicts below it as costlier ones above
EXT_SN_COPIES = {3: 5, 5: 5, 7: 24}
LOW_DIM_COPIES = 7


def _field_ctx(hf, q):
    if q == 9:
        return hf.FqContext(3, 2, F9_MODULUS)
    return hf.FqContext(q)


def setup_orthogonal(hf):
    ctx = {}
    for q in ORTHO_FIELDS:
        ctx["field", q] = _field_ctx(hf, q)
    for p in EXT_SN_COPIES:
        ctx["graded", p] = hf.GradedQuadraticSpace(
            ctx["field", p], list(GRADED_BLOCKS), [list(r) for r in GRADED_GRAM])
    return ctx


def _sp4_expected(twist, q):
    if twist == "trivial":
        return q, q - 1
    minus_one_square = q % 4 == 1
    return (q if minus_one_square else -q), 0


def _sp4(q, twist):
    expected = _sp4_expected(twist, q)

    def run(env):
        return env.hf.quadratic_relation(twist, q, SP4_TRUNC) == expected
    return Verdict("sp4_relation", MEDIAN, {"q": q}, run)


def _anisotropic_vector(rng, field, gram, support):
    """A vector supported on the first ``support`` coordinates with
    phi(v) != 0, and its phi-value."""
    dim = len(gram)
    while True:
        v = tuple(field.random(rng) if i < support else field.zero
                  for i in range(dim))
        value = field.phi(gram, v)
        if value != field.zero:
            return v, value


def _reflection_product(rng, field, gram, count, support):
    """Product of ``count`` seeded reflections with vectors supported on the
    first ``support`` coordinates; returns (matrix, sn is trivial)."""
    dim = len(gram)
    mat = field.identity(dim)
    trivial = True
    for _ in range(count):
        v, value = _anisotropic_vector(rng, field, gram, support)
        mat = field.matmul(mat, field.reflection(gram, v))
        trivial ^= not field.is_square(value)
    return mat, trivial


def _spinor(kind, klass, q, gram, mat, trivial):
    size = {"q": q, "dim": len(gram)}

    def run(env):
        hf = env.hf
        ctx = env.ctx["field", q]
        space = hf.QuadraticSpace(ctx, [list(r) for r in gram])
        g = hf.OrthogonalMap(space, [list(r) for r in mat])
        return hf.spinor_norm(g).trivial is trivial
    return Verdict(kind, klass, size, run)


def _diagonal_gram(field, entries):
    n = len(entries)
    two = field.const(2)
    return [[field.mul(two, entries[i]) if i == j else field.zero
             for j in range(n)] for i in range(n)]


def _random_unit(rng, field):
    while True:
        a = field.random(rng)
        if a != field.zero:
            return a


def _low_dim_spinor(rng, q):
    field = plain_field(q)
    gram = _diagonal_gram(field, [_random_unit(rng, field) for _ in range(2)])
    mat, trivial = _reflection_product(rng, field, gram,
                                       rng.randrange(1, 4), 2)
    return _spinor("spinor_low_dim", MEDIAN, q, gram, mat, trivial)


def _grid_spinor(rng, q, dim):
    """A rotation of an anisotropic plane on the first two coordinates,
    extended by the identity: every step of the reflection search first
    passes the q^(dim-2) vectors that the rotation fixes."""
    field = plain_field(q)
    while True:
        a1, a2 = _random_unit(rng, field), _random_unit(rng, field)
        if not field.is_square(field.neg(field.mul(a1, a2))):
            break
    entries = [a1, a2] + [_random_unit(rng, field) for _ in range(dim - 2)]
    gram = _diagonal_gram(field, entries)
    while True:
        mat, trivial = _reflection_product(rng, field, gram, 2, 2)
        if mat != field.identity(dim):
            break
    return _spinor("spinor_grid", TAIL, q, gram, mat, trivial)


def _extended_sn(rng, p):
    """h . zeta^e with h one seeded reflection in each block; the value is
    sgn(sn(h)) times the fixed root of sgn(-1) to the power e."""
    field = PlainField(p)
    gram = [[field.const(c) for c in row] for row in GRADED_GRAM]
    mat = field.identity(3)
    sign_plus = True
    for v in ((field.const(rng.randrange(1, p)),
               field.const(rng.randrange(1, p)), field.zero),
              (field.zero, field.zero, field.const(rng.randrange(1, p)))):
        mat = field.matmul(mat, field.reflection(gram, v))
        sign_plus ^= not field.is_square(field.phi(gram, v))
    twisted = rng.randrange(2)
    rows = [[c[0] for c in row] for row in mat]
    # asym block a has dimension 2, so each zeta-scaling contributes the
    # fixed root of sgn(-1) once: 1 if p = 1 mod 4, else i
    k = (0 if sign_plus else 2) + (twisted if p % 4 == 3 else 0)
    expected_k = k % 4

    def run(env):
        space = env.ctx["graded", p]
        ext = space.ext_ctx
        g = [[ext.elem(0) for _ in range(3)] for _ in range(3)]
        for i in range(3):
            for j in range(3):
                entry = space.embed(space.ctx.elem(rows[i][j]))
                if twisted and j < 2:
                    entry = entry * space.zeta
                g[i][j] = entry
        return env.hf.extended_sn(space, g).k == expected_k
    return Verdict("extended_sn", MEDIAN, {"p": p, "dim": 3}, run)


def _cli_sgn(p, a):
    expected = "+1" if euler_is_square(a, p) else "-1"
    argv = ["sgn", "--p", str(p), "--element", str(a)]

    def run(env):
        out = _cli_json(env, argv)
        return out is not None and out["sgn"] == expected
    return Verdict("cli_sgn", MEDIAN, {"q": p}, run)


def _cli_sp4(q, twist, point):
    c_e, c_s = _sp4_expected(twist, q)
    expected = c_s if point == "s" else c_e
    argv = ["sp4", "--q", str(q), "--twist", twist, "--point", point]

    def run(env):
        out = _cli_json(env, argv)
        return out is not None and out["value"] == expected
    return Verdict("cli_sp4", MEDIAN, {"q": q}, run)


def _cli_spinor(rng, p):
    field = PlainField(p)
    gram = _diagonal_gram(field, [_random_unit(rng, field) for _ in range(2)])
    mat, trivial = _reflection_product(rng, field, gram,
                                       rng.randrange(1, 4), 2)
    payload = json.dumps({"field": {"p": p},
                          "gram": [[c[0] for c in r] for r in gram],
                          "matrix": [[c[0] for c in r] for r in mat]})
    expected = "trivial" if trivial else "nonsquare"

    def run(env):
        out = _cli_json(env, ["spinor-norm"], stdin=payload)
        return out is not None and out["square_class"] == expected
    return Verdict("cli_spinor_norm", MEDIAN, {"q": p, "dim": 2}, run)


def _cli_extended_sn(p, sign):
    zeta = "zeta" if sign > 0 else "-zeta"
    payload = json.dumps({
        "field": {"p": p},
        "blocks": [{"label": b[0], "dim": b[1], "kind": b[2]}
                   for b in GRADED_BLOCKS],
        "gram": [list(r) for r in GRADED_GRAM],
        "element": [[zeta, 0, 0], [0, zeta, 0], [0, 0, 1]]})
    # the scaling by -zeta is the scaling by zeta composed with -1 on
    # block a, a product of two reflections with phi-values x y and -x y
    minus_one_class = 0 if (sign > 0 or euler_is_square(-1, p)) else 2
    expected = ("1", "i", "-1", "-i")[minus_one_class + (p % 4 == 3)]

    def run(env):
        out = _cli_json(env, ["extended-sn"], stdin=payload)
        return (out is not None and out["member"] is True
                and out["value"] == expected)
    return Verdict("cli_extended_sn", MEDIAN, {"p": p, "dim": 3}, run)


def orthogonal_round(rng):
    out = []
    for q in SP4_QS:
        for twist in ("trivial", "sign"):
            out.append(_sp4(q, twist))
    for p, copies in EXT_SN_COPIES.items():
        for _ in range(copies):
            out.append(_extended_sn(rng, p))
    for q in ORTHO_FIELDS:
        for _ in range(LOW_DIM_COPIES):
            out.append(_low_dim_spinor(rng, q))
    for p in (3, 5, 7, 11):
        out.append(_cli_sgn(p, rng.randrange(1, p)))
    for q in (3, 5):
        out.append(_cli_sp4(q, rng.choice(("trivial", "sign")),
                            rng.choice(("s", "e"))))
    for p in (3, 5):
        out.append(_cli_spinor(rng, p))
    for p in (3, 5):
        out.append(_cli_extended_sn(p, rng.choice((1, -1))))
    for (q, dim), copies in SPINOR_GRID.items():
        for _ in range(copies):
            out.append(_grid_spinor(rng, q, dim))
    return out


# ---------------------------------------------------------------------------
# hecke: heckealg


HECKE_TYPES = {"B2": {"s": "qs", "t": "qt"},
               "G2": {"s": "qs", "t": "qt"},
               "A1~": {"s0": "q0", "s1": "q1"}}
OVER_CAP = 8
# word lengths of the affine tail and their copies per round: the p90
# verdict falls inside the L = 24 block
TAIL_LENGTHS = {8: 2, 16: 2, 24: 16, 32: 2}
# every associativity triple of alternating words of length 2 in B2, three
# times over: the median verdict falls inside this block, with as many
# cheaper verdicts below it as costlier ones above
ASSOC_B2_COPIES = 3
QUADRATIC_COPIES = 12


def setup_hecke(hf):
    ctx = {}
    for tag, names in HECKE_TYPES.items():
        system = hf.CoxeterSystem.from_type(tag)
        ctx["algebra", tag] = hf.HeckeAlgebra(
            system, hf.ParameterFunction(system, names))
    capped = hf.CoxeterSystem.from_type("A1~", length_cap=OVER_CAP)
    ctx["capped"] = hf.HeckeAlgebra(
        capped, hf.ParameterFunction(capped, HECKE_TYPES["A1~"]))
    return ctx


def _gens(tag):
    return tuple(HECKE_TYPES[tag])


def _alternating_word(rng, tag, length):
    s, t = _gens(tag)
    first, other = (s, t) if rng.randrange(2) else (t, s)
    return tuple((first, other)[i % 2] for i in range(length))


def _assoc(tag, a, b, c):
    def run(env):
        alg = env.ctx["algebra", tag]
        system = alg.system
        x, y, z = (alg.basis(system.normal_form(w)) for w in (a, b, c))
        return alg.mul(alg.mul(x, y), z) == alg.mul(x, alg.mul(y, z))
    return Verdict("hecke_assoc", MEDIAN, {"L": len(a) + len(b) + len(c)},
                   run)


def _braid(tag):
    s, t = _gens(tag)

    def run(env):
        alg = env.ctx["algebra", tag]
        m = alg.system.m[s, t]
        lhs, rhs = alg.one(), alg.one()
        for i in range(m):
            lhs = alg.mul(lhs, alg.basis(((s, t)[i % 2],)))
            rhs = alg.mul(rhs, alg.basis(((t, s)[i % 2],)))
        return lhs == rhs
    return Verdict("hecke_braid", MEDIAN, {"L": 6 if tag == "G2" else 4}, run)


def _quadratic(tag, s):
    def run(env):
        alg = env.ctx["algebra", tag]
        ts = alg.basis((s,))
        q = alg.q(s)
        return alg.mul(ts, ts) == ts.scale(q - 1) + alg.one().scale(q)
    return Verdict("hecke_quadratic", MEDIAN, {"L": 2}, run)


def _cli_hecke(tag, check):
    names = HECKE_TYPES[tag]
    argv = ["hecke", "--type", tag, "--check", check,
            "--params", ",".join(f"{s}={n}" for s, n in names.items())]

    def run(env):
        out = _cli_json(env, argv)
        return out is not None and out["pass"] is True
    return Verdict("cli_hecke", MEDIAN, {"L": 0}, run)


def _alternating(first, length):
    other = "s1" if first == "s0" else "s0"
    return tuple((first, other)[i % 2] for i in range(length))


def _over_cap(rng):
    first = rng.choice(("s0", "s1"))
    x = _alternating(first, OVER_CAP - 2)
    # y starts with the letter x does not end with, so xy is reduced
    y = _alternating("s1" if x[-1] == "s0" else "s0", OVER_CAP - 2)

    def run(env):
        alg = env.ctx["capped"]
        a, b = alg.basis(x), alg.basis(y)
        try:
            alg.mul(a, b)
        except env.hf.HeckeError:
            return True
        return False
    return Verdict("hecke_over_cap", MEDIAN, {"L": 2 * OVER_CAP - 4}, run)


def _affine_inverse_product(first, length):
    """T_x T_{x^-1} for the alternating word x of the given length."""
    x = _alternating(first, length)
    x_inv = tuple(reversed(x))
    names = HECKE_TYPES["A1~"]
    params = tuple(sorted(set(names.values())))
    q_x = tuple(sum(1 for s in x if names[s] == n) for n in params)

    def run(env):
        alg = env.ctx["algebra", "A1~"]
        prod = alg.mul(alg.basis(x), alg.basis(x_inv))
        unit_seen = False
        for w, coeff in prod.coeffs.items():
            at_one = sum(coeff.terms.values())
            if not w.letters:
                unit_seen = True
                # trace form: the T_e coefficient of T_x T_{x^-1} is q_x
                if coeff.terms != {q_x: 1}:
                    return False
            # at q = 1 the algebra is the group algebra: x x^-1 = e
            if at_one != (1 if not w.letters else 0):
                return False
        return unit_seen
    return Verdict("hecke_affine_inverse", TAIL, {"L": length}, run)


def hecke_round(rng):
    out = []
    for _ in range(ASSOC_B2_COPIES):
        for words in itertools.product((("s", "t"), ("t", "s")), repeat=3):
            out.append(_assoc("B2", *words))
    for tag in HECKE_TYPES:
        for length, copies in ((1, 1), (3, 0 if tag == "B2" else 4)):
            for _ in range(copies):
                out.append(_assoc(tag, *(_alternating_word(rng, tag, length)
                                         for _ in range(3))))
    for _ in range(2):
        out.append(_braid("G2"))
    for tag in HECKE_TYPES:
        for _ in range(QUADRATIC_COPIES):
            out.append(_quadratic(tag, rng.choice(_gens(tag))))
    for tag, check in (("B2", "quadratic"), ("G2", "braid"),
                       ("A1~", "quadratic")):
        for _ in range(2):
            out.append(_cli_hecke(tag, check))
    out.append(_over_cap(rng))
    for length, copies in TAIL_LENGTHS.items():
        for _ in range(copies):
            out.append(_affine_inverse_product(rng.choice(("s0", "s1")),
                                               length))
    return out


# ---------------------------------------------------------------------------


WORKLOADS = {
    "weil": Workload(
        "weil",
        "the only workload on cyclotomic arithmetic: dense CycloMatrix "
        "products at the median, scalar trace_with sums in the "
        "induction-identity tail",
        setup_weil, weil_round),
    "orthogonal": Workload(
        "orthogonal",
        "the only workload on F_q arithmetic (F_9 included): cheap sp4, "
        "extended_sn and dim-2 spinor norms at the median, the reflection "
        "search of spinor_norm in the tail",
        setup_orthogonal, orthogonal_round),
    "hecke": Workload(
        "hecke",
        "isolates normal forms and LaurentPoly arithmetic: short products "
        "at the median, affine T_x T_{x^-1} at length 8..32 in the tail",
        setup_hecke, hecke_round),
}
