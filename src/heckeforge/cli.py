"""Command-line front door: every check the library proves is reachable as
a subcommand with deterministic JSON output.

Exit codes: 0 success/pass, 1 check failure, 2 usage or input error,
3 internal error (a bug: the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import traceback

from . import __version__, linalg
from .ffield import FieldError, FqContext, sgn
from .quadspace import (QuadraticSpace, OrthogonalMap, spinor_norm,
                        sgn_spinor, reflection, random_orthogonal)
from .gradedorth import GradedQuadraticSpace, extended_sn, otilde_membership
from .sympweil import (SymplecticSpace, HeisenbergElement, HeisenbergRep,
                       SympError, WeilSL2, sl2_elements,
                       graded_symplectic_split,
                       induction_identity_check, isotropic_reduction)
from .heckealg import (CoxeterSystem, ParameterFunction, HeckeAlgebra,
                       HeckeError, LengthCapError)
from .sp4oracle import (OracleError, TruncContext, convolve_s, convolve_e,
                        weyl_s, upper_u, iwahori_member,
                        welldefinedness_check)
from .cyclo import CycloMatrix


class UsageError(Exception):
    pass


def _emit(payload):
    print(json.dumps(payload, sort_keys=True, separators=(", ", ": ")))


def _load_json_input(path):
    try:
        if path is None or path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise UsageError(f"cannot read JSON input: {e}")


def _field_from_json(spec):
    try:
        return FqContext(spec["p"], spec.get("m", 1),
                         tuple(spec["modulus"]) if "modulus" in spec else None)
    except (KeyError, TypeError, FieldError) as e:
        raise UsageError(f"bad field description: {e}")


def _parse_element(text):
    try:
        if "," in text:
            return [int(c) for c in text.split(",")]
        return int(text)
    except ValueError:
        raise UsageError(f"bad element {text!r}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sgn(args):
    modulus = tuple(_parse_element(args.modulus)) if args.modulus else None
    element = _parse_element(args.element)
    try:
        ctx = FqContext(args.p, args.m, modulus)
        a = ctx.elem(element)
    except FieldError as e:
        raise UsageError(f"bad input: {e}")
    if a.is_zero():
        raise UsageError("sgn is undefined at 0")
    _emit({"p": ctx.p, "m": ctx.m, "modulus": list(ctx.modulus),
           "element": list(a.coeffs), "sgn": repr(sgn(a))})
    return 0


def _cmd_spinor_norm(args):
    data = _load_json_input(args.input)
    try:
        ctx = _field_from_json(data["field"])
        space = QuadraticSpace(ctx, data["gram"])
        g = OrthogonalMap(space, data["matrix"])
    except (KeyError, TypeError, ValueError) as e:
        raise UsageError(f"bad input: {e}")
    cls = spinor_norm(g)
    _emit({"square_class": repr(cls), "sign": repr(cls.sign())})
    return 0


def _cmd_extended_sn(args):
    data = _load_json_input(args.input)
    try:
        ctx = _field_from_json(data["field"])
        blocks = [(b["label"], b["dim"], b["kind"]) for b in data["blocks"]]
        space = GradedQuadraticSpace(ctx, blocks, data["gram"])
        element = _graded_element(space, data["element"])
    except (KeyError, TypeError, ValueError) as e:
        raise UsageError(f"bad input: {e}")
    fact = otilde_membership(space, element)
    if fact is None:
        _emit({"member": False, "value": None})
        return 0
    _emit({"member": True, "value": repr(extended_sn(space, element))})
    return 0


def _graded_element(space, rows):
    """Entries are base-field ints/coeff-lists, or 'zeta'/'-zeta'."""
    out = []
    for row in rows:
        line = []
        for c in row:
            if c == "zeta":
                line.append(space.zeta)
            elif c == "-zeta":
                line.append(-space.zeta)
            else:
                line.append(space.embed(space.ctx.elem(c)))
        out.append(line)
    return out


def _cmd_weil(args):
    p, dim = args.p, args.dim
    if dim % 2 or dim < 2:
        raise UsageError("--dim must be a positive even integer")
    try:
        V = SymplecticSpace.standard(p, dim // 2)
    except SympError as e:
        raise UsageError(f"bad input: {e}")
    params = {"p": p, "dim": dim}
    check = args.check
    rng = random.Random(0)
    witness = None
    if check == "mult":
        if dim != 2:
            raise UsageError("--check mult needs --dim 2 (weil_sl2)")
        w = WeilSL2(HeisenbergRep(V))
        pairs = ([(g, h) for g in sl2_elements(p) for h in sl2_elements(p)]
                 if p == 3 else None)
        if pairs is None:
            els = list(sl2_elements(p))
            pairs = [(rng.choice(els), rng.choice(els)) for _ in range(500)]
        ok = True
        for g, h in pairs:
            if (w(g) @ w(h)) != w(linalg.mat_mul(g, h)):
                ok = False
                witness = {"g": g, "h": h}
                break
    elif check == "central":
        rep = HeisenbergRep(V)
        ident = CycloMatrix.identity(rep.cyclo, rep.dim)
        ok = all(rep.operator(HeisenbergElement(V, (0,) * dim, a))
                 == ident.scale(rep.psi(a)) for a in range(p))
    elif check == "induction":
        if dim != 2:
            raise UsageError("--check induction needs --dim 2")
        ok = True
        for line in _isotropic_lines(V):
            with_chi, det1 = induction_identity_check(
                V, [line], "with_sl2_levi", include_chi=True)
            without, _ = induction_identity_check(
                V, [line], "with_sl2_levi", include_chi=False)
            if not with_chi or without:
                ok = False
                witness = {"line": list(line), "with_chi": with_chi,
                           "without_chi": without}
                break
    elif check == "split":
        ok = True
        for _ in range(50):
            sp, weights = _random_weighted_space(p, dim, rng)
            if not _split_postconditions(sp, weights):
                ok = False
                witness = {"weights": weights}
                break
    else:
        raise UsageError(f"unknown check {check!r}")
    _emit({"check": check, "params": params, "pass": ok,
           **({"witness": witness} if witness is not None else {})})
    return 0 if ok else 1


def _isotropic_lines(space):
    """Projective lines (all isotropic since the form is alternating)."""
    p = space.p
    lines = []
    for v in space.vectors():
        if not any(v):
            continue
        if any(l == tuple((c * s) % p for c in v)
               for l in lines for s in range(1, p)):
            continue
        lines.append(v)
    return lines


def _random_weighted_space(p, dim, rng):
    """A random symplectic form compatible with random +-w/0 weights."""
    while True:
        weights = sorted((rng.choice([-1, 0, 1]) for _ in range(dim)),
                         reverse=True)
        # need an even count of each nonzero weight +-pairing partner budget
        form = [[0] * dim for _ in range(dim)]
        entries = []
        for i in range(dim):
            for j in range(i + 1, dim):
                if weights[i] + weights[j] == 0:
                    entries.append((i, j))
        for i, j in entries:
            form[i][j] = rng.randrange(p)
            form[j][i] = (-form[i][j]) % p
        try:
            return SymplecticSpace(p, form), weights
        except SympError:
            continue


def _split_postconditions(space, weights):
    v1, v2, v3 = graded_symplectic_split(space, weights)
    if len(v1) != len(v3):
        return False
    for a in v1:
        for b in v1:
            if space.pairing(a, b):
                return False
    for a in v3:
        for b in v3:
            if space.pairing(a, b):
                return False
    for a in v2:
        for b in v1 + v3:
            if space.pairing(a, b):
                return False
    # (V1)-perp = V1 + V2, via isotropic_reduction on V1
    if v1:
        perp, _, _ = isotropic_reduction(space, v1)
        target = v1 + v2
        if len(perp) != len(target):
            return False
        for v in perp:
            if linalg.solve(linalg.transpose(target), v, space.p) is None:
                return False
    # V2 nondegenerate
    if v2:
        sub = [[space.pairing(a, b) for b in v2] for a in v2]
        try:
            SymplecticSpace(space.p, sub)
        except SympError:
            return False
    return True


def _cmd_hecke(args):
    try:
        return _hecke_check(args)
    except LengthCapError as e:
        # the cap is the user's --len-cap
        raise UsageError(f"{e}; raise --len-cap")


def _hecke_check(args):
    try:
        system = (CoxeterSystem.from_type(args.type, length_cap=args.len_cap)
                  if not args.type.endswith(".json")
                  else _system_from_file(args.type, args.len_cap))
        params = _params_from_flag(system, args.params)
        algebra = HeckeAlgebra(system, params)
    except (HeckeError, UsageError) as e:
        raise UsageError(str(e))
    rng = random.Random(0)
    witness = None
    check = args.check
    if check == "braid":
        ok = True
        gens = system.generators
        for i, s in enumerate(gens):
            for t in gens[i + 1:]:
                m = system.m[s, t]
                if m is None:
                    continue
                a = algebra.one()
                b = algebra.one()
                cur_a, cur_b = s, t
                for _ in range(m):
                    a = algebra.mul(a, algebra.basis((cur_a,)))
                    b = algebra.mul(b, algebra.basis((cur_b,)))
                    cur_a = t if cur_a == s else s
                    cur_b = t if cur_b == s else s
                if a != b:
                    ok = False
                    witness = {"pair": [s, t], "m": m}
    elif check == "quadratic":
        ok = True
        for s in system.generators:
            ts = algebra.basis((s,))
            q = algebra.q(s)
            if algebra.mul(ts, ts) != ts.scale(q - 1) + algebra.one().scale(q):
                ok = False
                witness = {"generator": s}
    elif check == "assoc":
        ok = True
        gens = system.generators
        for trial in range(500):
            def rnd():
                letters = tuple(rng.choice(gens)
                                for _ in range(rng.randrange(6)))
                return algebra.basis(system.normal_form(letters))
            a, b, c = rnd(), rnd(), rnd()
            if (algebra.mul(algebra.mul(a, b), c)
                    != algebra.mul(a, algebra.mul(b, c))):
                ok = False
                witness = {"trial": trial}
                break
    else:
        raise UsageError(f"unknown check {check!r}")
    _emit({"check": check, "type": args.type, "pass": ok,
           **({"witness": witness} if witness is not None else {})})
    return 0 if ok else 1


def _system_from_file(path, cap):
    data = _load_json_input(path)
    try:
        matrix = {}
        for entry in data["matrix"]:
            s, t, m = entry
            matrix[s, t] = None if m in ("inf", None) else int(m)
        return CoxeterSystem(tuple(data["generators"]), matrix,
                             type_tag=data.get("type"), length_cap=cap)
    except (KeyError, TypeError, ValueError) as e:
        raise UsageError(f"bad Coxeter matrix file: {e}")


def _params_from_flag(system, flag):
    if not flag:
        return ParameterFunction.constant(system)
    names = {}
    for bit in flag.split(","):
        if "=" not in bit:
            raise UsageError(f"bad --params entry {bit!r}")
        s, name = bit.split("=", 1)
        names[s.strip()] = name.strip()
    return ParameterFunction(system, names)


def _cmd_sp4(args):
    if args.twist not in ("trivial", "sign"):
        raise UsageError("--twist must be trivial or sign")
    try:
        ctx = TruncContext.for_q(args.q, args.N)
    except (FieldError, OracleError) as e:
        raise UsageError(f"bad input: {e}")
    fn = convolve_s if args.point == "s" else convolve_e
    value = fn(args.twist, args.q, args.N, ctx=ctx)
    _emit({"q": args.q, "twist": args.twist, "point": args.point,
           "value": value})
    return 0


# ---------------------------------------------------------------------------
# suite


def _suite_checks():
    """(module, name, thunk) triples; each thunk returns a boolean."""
    checks = []

    def add(module, name, fn):
        checks.append((module, name, fn))

    # ffield
    def ffield_mult():
        ctx = FqContext(3, 2)
        units = [a for a in ctx.elements() if not a.is_zero()]
        return all(sgn(a * b) == sgn(a) * sgn(b) for a in units for b in units)
    add("ffield", "sgn multiplicative on F_9", ffield_mult)

    def ffield_count():
        ctx = FqContext(7)
        return sum(1 for a in ctx.units() if int(sgn(a)) == 1) == 3
    add("ffield", "square count (q-1)/2 in F_7", ffield_count)

    def ffield_cancel():
        ctx = FqContext(5)
        return sum(int(sgn(a)) for a in ctx.units()) == 0
    add("ffield", "sum of sgn over units vanishes", ffield_cancel)

    # quadspace
    def quad_neg_id():
        ctx = FqContext(3)
        space = QuadraticSpace.hyperbolic_plane(ctx)
        g = OrthogonalMap(space, [[-1, 0], [0, -1]])
        return repr(spinor_norm(g)) == "nonsquare"
    add("quadspace", "sn(-id) on hyperbolic plane over F_3", quad_neg_id)

    def quad_mult():
        ctx = FqContext(3)
        space = QuadraticSpace.diagonal(ctx, [ctx.one, ctx.one])
        rng = random.Random(0)
        maps = [random_orthogonal(space, rng) for _ in range(12)]
        return all(sgn_spinor(a * b) == sgn_spinor(a) * sgn_spinor(b)
                   for a in maps for b in maps)
    add("quadspace", "sgn o sn multiplicative (dim 2, F_3)", quad_mult)

    def quad_reflection():
        ctx = FqContext(5)
        space = QuadraticSpace.diagonal(ctx, [ctx.one, ctx.elem(2)])
        for v in space.nonzero_vectors():
            phi_v = space.evaluate_form(v)
            if phi_v.is_zero():
                continue
            from .quadspace import SquareClass
            if spinor_norm(reflection(space, v)) != SquareClass.of(phi_v):
                return False
        return True
    add("quadspace", "sn(reflection) = class of form value", quad_reflection)

    # gradedorth
    def graded_value():
        ctx = FqContext(3)
        space = GradedQuadraticSpace(
            ctx, [("a", 2, "asym")], [[0, 1], [1, 0]])
        from .gradedorth import zeta_scaling, Mu4Value
        return extended_sn(space, zeta_scaling(space, "a")) == Mu4Value(1)
    add("gradedorth", "sn~ of zeta-scaling over F_3 is i", graded_value)

    def graded_restriction():
        ctx = FqContext(5)
        space = GradedQuadraticSpace(
            ctx, [("a", 2, "asym")], [[0, 1], [1, 0]])
        rng = random.Random(0)
        from .gradedorth import Mu4Value
        for _ in range(10):
            h = random_orthogonal(space.space, rng)
            if extended_sn(space, space.embed_matrix(h.matrix)) \
                    != Mu4Value.from_sign(sgn_spinor(h)):
                return False
        return True
    add("gradedorth", "restriction agrees with sgn o sn", graded_restriction)

    def graded_square():
        from .gradedorth import zeta_scaling
        for p in (3, 5):
            ctx = FqContext(p)
            space = GradedQuadraticSpace(
                ctx, [("a", 2, "asym")], [[0, 1], [1, 0]])
            z = zeta_scaling(space, "a")
            z2 = linalg.mat_mul(z, z)
            if (extended_sn(space, z) * extended_sn(space, z)
                    != extended_sn(space, z2)):
                return False
        return True
    add("gradedorth", "sn~(zeta)^2 = sn~(zeta^2)", graded_square)

    # sympweil
    def weil_mult():
        p = 3
        V = SymplecticSpace.standard(p, 1)
        w = WeilSL2(HeisenbergRep(V))
        els = list(sl2_elements(p))
        return all((w(g) @ w(h)) == w(linalg.mat_mul(g, h))
                   for g in els for h in els)
    add("sympweil", "weil_sl2 multiplicative on SL_2(F_3)", weil_mult)

    def weil_central():
        V = SymplecticSpace.standard(3, 1)
        rep = HeisenbergRep(V)
        ident = CycloMatrix.identity(rep.cyclo, rep.dim)
        return all(rep.operator(HeisenbergElement(V, (0, 0), a))
                   == ident.scale(rep.psi(a)) for a in range(3))
    add("sympweil", "central character (0,a) -> zeta_p^a", weil_central)

    def weil_induction():
        V = SymplecticSpace.standard(3, 1)
        w_chi, _ = induction_identity_check(V, [(1, 0)], "with_sl2_levi", True)
        wo_chi, _ = induction_identity_check(V, [(1, 0)], "with_sl2_levi",
                                             False)
        return w_chi and not wo_chi
    add("sympweil", "induction identity needs chi^U", weil_induction)

    # heckealg
    def hecke_braid():
        for tag, m in (("A2", 3), ("B2", 4), ("G2", 6)):
            system = CoxeterSystem.from_type(tag)
            pf = (ParameterFunction.constant(system) if m % 2
                  else ParameterFunction(system, {"s": "qs", "t": "qt"}))
            algebra = HeckeAlgebra(system, pf)
            a = algebra.one()
            b = algebra.one()
            cur_a, cur_b = "s", "t"
            for _ in range(m):
                a = algebra.mul(a, algebra.basis((cur_a,)))
                b = algebra.mul(b, algebra.basis((cur_b,)))
                cur_a = "t" if cur_a == "s" else "s"
                cur_b = "t" if cur_b == "s" else "s"
            if a != b:
                return False
        return True
    add("heckealg", "braid relations in A2, B2, G2", hecke_braid)

    def hecke_quadratic():
        system = CoxeterSystem.from_type("B2")
        algebra = HeckeAlgebra(system,
                               ParameterFunction(system,
                                                 {"s": "qs", "t": "qt"}))
        for s in system.generators:
            ts = algebra.basis((s,))
            q = algebra.q(s)
            if algebra.mul(ts, ts) != ts.scale(q - 1) + \
                    algebra.one().scale(q):
                return False
        return True
    add("heckealg", "quadratic relations (unequal parameters)",
        hecke_quadratic)

    def hecke_assoc():
        system = CoxeterSystem.from_type("A1~")
        algebra = HeckeAlgebra(system)
        rng = random.Random(0)
        for _ in range(50):
            def rnd():
                letters = tuple(rng.choice(system.generators)
                                for _ in range(rng.randrange(5)))
                return algebra.basis(system.normal_form(letters))
            a, b, c = rnd(), rnd(), rnd()
            if (algebra.mul(algebra.mul(a, b), c)
                    != algebra.mul(a, algebra.mul(b, c))):
                return False
        return True
    add("heckealg", "associativity in affine A1", hecke_assoc)

    # sp4oracle: six checks
    add("sp4oracle", "convolve_s trivial q=3 equals 2",
        lambda: convolve_s("trivial", 3) == 2)
    add("sp4oracle", "convolve_s sign q=3 equals 0",
        lambda: convolve_s("sign", 3) == 0)
    add("sp4oracle", "convolve_s trivial q=5 equals 4",
        lambda: convolve_s("trivial", 5) == 4)
    add("sp4oracle", "truncation independence N in {2,3,4}",
        lambda: len({(convolve_s("trivial", 3, N), convolve_s("sign", 3, N))
                     for N in (2, 3, 4)}) == 1)

    def sp4_cosets():
        ctx = TruncContext.for_q(3)
        s = weyl_s(ctx)
        reps = [upper_u(ctx, ctx.scalar(x)) * s for x in ctx.fq.elements()]
        return all(not iwahori_member(reps[i].inv() * reps[j])
                   for i in range(len(reps)) for j in range(len(reps))
                   if i != j)
    add("sp4oracle", "coset representatives pairwise distinct", sp4_cosets)

    add("sp4oracle", "phi well-defined on decompositions",
        lambda: welldefinedness_check(3, 3, 100)[0])

    return checks


def _cmd_suite(args):
    checks = _suite_checks()
    modules = sorted({m for m, _, _ in checks})
    if args.filter:
        if args.filter not in modules:
            raise UsageError(f"unknown module {args.filter!r}; "
                             f"choose from {modules}")
        checks = [c for c in checks if c[0] == args.filter]
    results = []
    all_ok = True
    for module, name, fn in checks:
        ok = bool(fn())
        all_ok = all_ok and ok
        results.append({"module": module, "name": name, "pass": ok})
    _emit({"checks": results, "pass": all_ok})
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------


def build_parser():
    """The argparse tree; each subcommand names its handler, which main looks
    up when it runs."""
    parser = argparse.ArgumentParser(
        prog="hecke-forge",
        description="exact sign characters, Weil representations, Hecke "
                    "algebras, and the Iwahori convolution oracle")
    parser.add_argument("--version", action="version",
                        version=f"hecke-forge {__version__}")
    sub = parser.add_subparsers(dest="command")

    p_sgn = sub.add_parser("sgn", help="quadratic-residue sign in F_q")
    p_sgn.add_argument("--p", type=int, required=True)
    p_sgn.add_argument("--m", type=int, default=1)
    p_sgn.add_argument("--modulus")
    p_sgn.add_argument("--element", required=True)
    p_sgn.set_defaults(handler="_cmd_sgn")

    p_sn = sub.add_parser("spinor-norm",
                          help="spinor norm of an orthogonal matrix")
    p_sn.add_argument("--input", help="JSON file (default: stdin)")
    p_sn.set_defaults(handler="_cmd_spinor_norm")

    p_esn = sub.add_parser("extended-sn",
                           help="mu_4 character on the extended group")
    p_esn.add_argument("--input", help="JSON file (default: stdin)")
    p_esn.set_defaults(handler="_cmd_extended_sn")

    p_weil = sub.add_parser("weil", help="Heisenberg-Weil checks")
    p_weil.add_argument("--p", type=int, required=True)
    p_weil.add_argument("--dim", type=int, default=2)
    p_weil.add_argument("--check", required=True,
                        choices=["mult", "central", "induction", "split"])
    p_weil.set_defaults(handler="_cmd_weil")

    p_hecke = sub.add_parser("hecke", help="Hecke algebra checks")
    p_hecke.add_argument("--type", required=True,
                         help="A2|B2|G2|A1~|<matrix.json>")
    p_hecke.add_argument("--params", help="e.g. s=qs,t=qt")
    p_hecke.add_argument("--check", required=True,
                         choices=["braid", "assoc", "quadratic"])
    p_hecke.add_argument("--len-cap", type=int, default=64)
    p_hecke.set_defaults(handler="_cmd_hecke")

    p_sp4 = sub.add_parser("sp4", help="Iwahori convolution oracle")
    p_sp4.add_argument("--q", type=int, required=True)
    p_sp4.add_argument("--twist", required=True)
    p_sp4.add_argument("--N", type=int, default=3)
    p_sp4.add_argument("--point", choices=["s", "e"], default="s")
    p_sp4.set_defaults(handler="_cmd_sp4")

    p_suite = sub.add_parser("suite", help="run the check battery")
    p_suite.add_argument("--filter", help="restrict to one module")
    p_suite.set_defaults(handler="_cmd_suite")

    return parser


_parser = None


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    if not getattr(args, "handler", None):
        _parser.print_usage(sys.stderr)
        return 2
    try:
        return globals()[args.handler](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception:
        print("internal error", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
