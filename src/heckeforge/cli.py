"""Command-line front door: every check the library proves is reachable as
a subcommand with deterministic JSON output.

Exit codes: 0 success/pass, 1 check failure, 2 usage or input error,
3 internal error (a bug: the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import sys
import traceback

from . import __version__, checks
from .ffield import FieldError, FqContext, sgn
from .quadspace import (QuadSpaceError, QuadraticSpace, OrthogonalMap,
                        spinor_norm)
from .gradedorth import (GradedError, GradedQuadraticSpace, _extended_value,
                         otilde_membership)
from .sympweil import SymplecticSpace, HeisenbergRep, SympError, WeilSL2
from .heckealg import (CoxeterSystem, ParameterFunction, HeckeAlgebra,
                       HeckeError, LengthCapError)
from .sp4oracle import OracleError, TruncContext, convolve_s, convolve_e


class UsageError(Exception):
    pass


_REFUSALS = (FieldError, QuadSpaceError, GradedError, SympError, HeckeError,
             OracleError)


@contextlib.contextmanager
def _blame(name, errors=_REFUSALS, refusal="bad input"):
    """A library refusal (one of errors) of what was read from the flag or
    JSON key name, as a UsageError that names it.  Input is read under it;
    a check runs under it only for LengthCapError, a fault of --len-cap."""
    try:
        yield
    except errors as e:
        raise UsageError(f"{refusal}: {name}: {e}") from None


def _emit(payload):
    print(json.dumps(payload, sort_keys=True, separators=(", ", ": ")))


def _load_json_input(path, flag, keys):
    """The JSON at path (stdin for None or "-"), read from the flag named
    flag; a refusal names the flag, and the keys of the object expected
    there."""
    try:
        if path is None or path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        expected = ", ".join(f'"{k}"' for k in keys)
        raise UsageError(f"bad input: {flag}: cannot read JSON: {e}; "
                         f"expected an object with the keys {expected}")


def _key(obj, key, where=""):
    """obj[key] of the JSON object at the path where ("" at the top level);
    a missing key, or no object, is a UsageError that names the key."""
    if not isinstance(obj, dict):
        raise UsageError(f'{where or "input"}: expected a JSON object with '
                         f'the key "{key}", got {_json_type(obj)}')
    if key not in obj:
        raise UsageError(f'{where} missing key "{key}"'.lstrip())
    return obj[key]


def _json_type(value):
    return "null" if value is None else type(value).__name__


def _expect(ok, where, wanted, got, refusal="bad input"):
    if not ok:
        raise UsageError(f"{refusal}: {where}: expected {wanted}, got {got}")


def _field_from_json(spec):
    p, m = _key(spec, "p", "field"), spec.get("m", 1)
    modulus = spec.get("modulus", [])
    for name, value in (("p", p), ("m", m)):
        _expect(type(value) is int, f'"{name}"', "an int", _json_type(value))
    _expect(isinstance(modulus, list) and all(type(c) is int
                                              for c in modulus),
            '"modulus"', "a list of ints", _json_type(modulus))
    with _blame('"field"'):
        return FqContext(p, m, tuple(modulus) if "modulus" in spec else None)


def _json_matrix(data, key, ctx, n=None, names=()):
    """data[key] as a square matrix of n rows (any n >= 1 when n is None)
    whose entries are ints, lists of at most m ints, or the strings in
    names; a fault is a UsageError naming the key and its position."""
    rows = _key(data, key)
    size = len(rows) if isinstance(rows, list) else 0
    _expect(size and size == (n or size), f'"{key}"',
            f"{n or '1 or more'} rows",
            f"{size} rows" if isinstance(rows, list) else _json_type(rows))
    *first, last = ["an int", "a list of ints"] + [f'"{x}"' for x in names]
    wanted = f"{', '.join(first)} or {last}"
    for i, row in enumerate(rows):
        _expect(isinstance(row, list) and len(row) == size, f'"{key}" row {i}',
                f"{size} entries", f"{len(row)} entries"
                if isinstance(row, list) else _json_type(row))
        for j, x in enumerate(row):
            where = f'"{key}" row {i} entry {j}'
            if isinstance(x, list) and all(type(c) is int for c in x):
                _expect(len(x) <= ctx.m, where,
                        f"at most {ctx.m} coefficients", len(x))
            else:
                _expect(type(x) is int or x in names, where, wanted,
                        _json_type(x))
    return rows


def _json_blocks(data):
    """The (label, dim, kind) of each of data's blocks; a fault is a
    UsageError naming the key."""
    blocks, seen = _key(data, "blocks"), []
    _expect(isinstance(blocks, list), '"blocks"', "a list",
            _json_type(blocks))
    for i, b in enumerate(blocks):
        label, dim, kind = (_key(b, key, f"blocks[{i}]")
                            for key in ("label", "dim", "kind"))
        _expect(not isinstance(label, (list, dict)) and label not in seen,
                f'blocks[{i}] "label"', "a new string or number", repr(label))
        _expect(type(dim) is int and dim > 0, f'blocks[{i}] "dim"',
                "a positive int", repr(dim))
        _expect(kind in ("asym", "sym"), f'blocks[{i}] "kind"',
                '"asym" or "sym"', repr(kind))
        _expect(kind == "sym" or dim % 2 == 0, f'blocks[{i}] "dim"',
                "an even int for an asym block", dim)
        seen.append(label)
    return [(b["label"], b["dim"], b["kind"]) for b in blocks]


def _parse_ints(flag, text):
    """The value of --modulus or --element: integer coefficients, low
    degree first, separated by commas; one is a constant."""
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise UsageError(f"bad input: {flag}: expected ints separated by "
                         f"commas, got {text!r}") from None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sgn(args):
    modulus = _parse_ints("--modulus", args.modulus) if args.modulus else None
    element = _parse_ints("--element", args.element)
    with _blame("--p"):
        FqContext.shared(args.p)
    with _blame("--m or --modulus" if modulus else "--m"):
        ctx = FqContext(args.p, args.m, modulus)
    with _blame("--element"):
        a = ctx.elem(element)
    if a.is_zero():
        raise UsageError("bad input: --element: sgn is undefined at 0")
    _emit({"p": ctx.p, "m": ctx.m, "modulus": list(ctx.modulus),
           "element": list(a.coeffs), "sgn": repr(sgn(a))})
    return 0


def _cmd_spinor_norm(args):
    data = _load_json_input(args.input, "--input",
                            ("field", "gram", "matrix"))
    ctx = _field_from_json(_key(data, "field"))
    gram = _json_matrix(data, "gram", ctx)
    matrix = _json_matrix(data, "matrix", ctx, len(gram))
    with _blame('"gram"'):
        space = QuadraticSpace(ctx, gram)
    with _blame('"matrix"'):
        g = OrthogonalMap(space, matrix)
    cls = spinor_norm(g)
    _emit({"square_class": repr(cls), "sign": repr(cls.sign())})
    return 0


def _cmd_extended_sn(args):
    data = _load_json_input(args.input, "--input",
                            ("field", "blocks", "gram", "element"))
    ctx = _field_from_json(_key(data, "field"))
    blocks = _json_blocks(data)
    gram = _json_matrix(data, "gram", ctx, sum(b[1] for b in blocks))
    element = _json_matrix(data, "element", ctx, len(gram), ("zeta", "-zeta"))
    with _blame('"gram"'):
        space = GradedQuadraticSpace(ctx, blocks, gram)
    fact = otilde_membership(space, _graded_element(space, element))
    value = None if fact is None else repr(_extended_value(space, *fact))
    _emit({"member": fact is not None, "value": value})
    return 0


def _graded_element(space, rows):
    """Entries are base-field ints/coeff-lists, or 'zeta'/'-zeta'."""
    named = {"zeta": space.zeta, "-zeta": -space.zeta}
    return [[named[c] if isinstance(c, str) else space.embed(space.ctx.elem(c))
             for c in row] for row in rows]


def _cmd_weil(args):
    p, dim = args.p, args.dim
    if dim % 2 or dim < 2:
        raise UsageError("--dim must be a positive even integer")
    with _blame("--p"):
        V = SymplecticSpace.standard(p, dim // 2)
    check = args.check
    rng = random.Random(0)
    if check == "mult":
        if dim != 2:
            raise UsageError("--check mult needs --dim 2 (weil_sl2)")
        ok, witness = checks.weil_mult(WeilSL2(HeisenbergRep(V)),
                                       checks.weil_pairs(p, rng))
    elif check == "central":
        ok, witness = checks.weil_central(HeisenbergRep(V))
    elif check == "induction":
        if dim != 2:
            raise UsageError("--check induction needs --dim 2")
        ok, witness = checks.induction_needs_chi(V, checks.isotropic_lines(V))
    else:
        ok, witness = checks.graded_split(p, dim, rng, 50)
    return _verdict({"check": check, "params": {"p": p, "dim": dim}},
                    ok, witness)


def _verdict(payload, ok, witness):
    """Print a check's JSON verdict, with the witness of a failure; exit 0
    on a pass and 1 on a failure."""
    _emit({**payload, "pass": ok, **({} if ok else {"witness": witness})})
    return 0 if ok else 1


def _cmd_hecke(args):
    if args.len_cap < 0:
        raise UsageError(f"--len-cap must be >= 0, not {args.len_cap}")
    if args.type.endswith(".json"):
        system = _system_from_file(args.type, args.len_cap)
    else:
        with _blame("--type"):
            system = CoxeterSystem.from_type(args.type,
                                             length_cap=args.len_cap)
    with _blame("--params"):
        algebra = HeckeAlgebra(system, _params_from_flag(system, args.params))
    check = args.check
    with _blame("--len-cap", LengthCapError):
        if check == "braid":
            ok, witness = checks.hecke_braid(algebra)
        elif check == "quadratic":
            ok, witness = checks.hecke_quadratic(algebra)
        else:
            ok, witness = checks.hecke_assoc(algebra, checks.random_triples(
                system, random.Random(0), 500, 5))
    return _verdict({"check": check, "type": args.type}, ok, witness)


def _system_from_file(path, cap):
    """The Coxeter system of the JSON object {generators, matrix} at path;
    a fault names the key and position."""
    data = _load_json_input(path, "--type", ("generators", "matrix"))
    generators, matrix = (_key(data, key, "Coxeter matrix file")
                          for key in ("generators", "matrix"))
    refusal = "bad Coxeter matrix file"
    _expect(isinstance(generators, list) and not any(
                isinstance(s, (list, dict)) for s in generators),
            '"generators"', "a list of strings or numbers", repr(generators),
            refusal)
    _expect(isinstance(matrix, list), '"matrix"', "a list", repr(matrix),
            refusal)
    labels = {}
    for i, entry in enumerate(matrix):
        # a label is a JSON int, not a bool: int() read 3.7 as 3, true as 1
        _expect(isinstance(entry, list) and len(entry) == 3
                and not any(isinstance(x, (list, dict)) for x in entry[:2])
                and (entry[2] in ("inf", None) or type(entry[2]) is int),
                f'"matrix" entry {i}', '[s, t, m], m an int, "inf" or null',
                repr(entry), refusal)
        s, t, m = entry
        labels[s, t] = None if m in ("inf", None) else m
    with _blame('"generators" and "matrix"', refusal=refusal):
        return CoxeterSystem(tuple(generators), labels,
                             type_tag=data.get("type"), length_cap=cap)


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
    with _blame("--q"):
        TruncContext.for_q(args.q)
    with _blame("--N"):
        TruncContext.for_q(args.q, args.N)
    fn = convolve_s if args.point == "s" else convolve_e
    value = fn(args.twist, args.q, args.N)
    _emit({"q": args.q, "twist": args.twist, "point": args.point,
           "value": value})
    return 0


# ---------------------------------------------------------------------------
# suite


def _cmd_suite(args):
    battery = checks.suite()
    modules = sorted({m for m, _, _ in battery})
    if args.filter:
        if args.filter not in modules:
            raise UsageError(f"bad input: --filter: unknown module "
                             f"{args.filter!r}; choose from {modules}")
        battery = [c for c in battery if c[0] == args.filter]
    results = []
    all_ok = True
    for module, name, fn in battery:
        ok, witness = fn()
        all_ok = all_ok and ok
        results.append({"module": module, "name": name, "pass": ok,
                        **({} if ok else {"witness": witness})})
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
