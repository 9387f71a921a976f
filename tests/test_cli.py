"""End-to-end tests of the hecke-forge command-line interface."""

import json
import re

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from heckeforge.cli import main


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, (json.loads(out) if out else None)


def test_sgn_subcommand(capsys):
    code, payload = _run(capsys, ["sgn", "--p", "7", "--element", "3"])
    assert code == 0
    assert payload["sgn"] == "-1" and payload["p"] == 7


def test_sgn_extension_field(capsys):
    code, payload = _run(capsys, ["sgn", "--p", "3", "--m", "2",
                                  "--element", "0,1"])
    assert code == 0
    assert payload["element"] == [0, 1]


@pytest.mark.parametrize("argv", [
    ["--p", "10007", "--element", "5"],
    ["--p", "10007", "--element", "-3"],
    ["--p", "7", "--m", "2", "--element", "3,5"],
    ["--p", "101", "--m", "2", "--element", "3,7"],
    ["--p", "101", "--m", "2", "--element", "0,1"]])
def test_sgn_is_the_legendre_symbol_of_the_norm(capsys, argv):
    # for q = p^m with m <= 2, a^((q-1)/2) = N(a)^((p-1)/2), with N(a) the
    # determinant of multiplication by a on F_p[x]/(x^2 + c1 x + c0)
    code, payload = _run(capsys, ["sgn"] + argv)
    assert code == 0
    p, element = payload["p"], payload["element"]
    if payload["m"] == 1:
        norm = element[0]
    else:
        (a0, a1), (c0, c1, _) = element, payload["modulus"]
        norm = a0 * a0 - a0 * a1 * c1 + a1 * a1 * c0
    euler = pow(norm, (p - 1) // 2, p)
    assert payload["sgn"] == ("+1" if euler == 1 else "-1")


def test_sgn_of_zero_is_usage_error(capsys):
    assert main(["sgn", "--p", "5", "--element", "0"]) == 2


@pytest.mark.parametrize("modulus,expected", [
    ("1,1", 0), ("1,0,1", 2), ("0,0,0,5", 2)])
def test_sgn_checks_a_prime_field_modulus(capsys, modulus, expected):
    # only a monic linear modulus presents F_3, with the codes of (0, 1)
    code, payload = _run(capsys, ["sgn", "--p", "3", "--m", "1", "--modulus",
                                  modulus, "--element", "2"])
    assert code == expected
    assert payload == (None if code else {
        "element": [2], "m": 1, "modulus": [0, 1], "p": 3, "sgn": "-1"})


@pytest.mark.parametrize("modulus", ["1", "5", "1,x"])
def test_sgn_refuses_a_bad_modulus_naming_the_flag(capsys, modulus):
    # one coefficient once reached tuple() as an int and exited 3
    assert main(["sgn", "--p", "3", "--m", "1", "--modulus", modulus,
                 "--element", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--modulus" in err


def test_spinor_norm_subcommand(tmp_path, capsys):
    data = {"field": {"p": 3}, "gram": [[0, 1], [1, 0]],
            "matrix": [[-1, 0], [0, -1]]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    code, payload = _run(capsys, ["spinor-norm", "--input", str(path)])
    assert code == 0
    assert payload == {"square_class": "nonsquare", "sign": "-1"}


def test_spinor_norm_bad_matrix(tmp_path, capsys):
    data = {"field": {"p": 3}, "gram": [[0, 1], [1, 0]],
            "matrix": [[1, 1], [0, 1]]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    assert main(["spinor-norm", "--input", str(path)]) == 2


@pytest.mark.parametrize("matrix", [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                    [[1]]])
def test_spinor_norm_matrix_of_another_size(matrix, tmp_path, capsys):
    # the Gram matrix is 2 x 2
    data = {"field": {"p": 3}, "gram": [[0, 1], [1, 0]], "matrix": matrix}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    assert main(["spinor-norm", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: bad input")


def test_extended_sn_subcommand(tmp_path, capsys):
    data = {"field": {"p": 3},
            "blocks": [{"label": "a", "dim": 2, "kind": "asym"}],
            "gram": [[0, 1], [1, 0]],
            "element": [["zeta", 0], [0, "zeta"]]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    code, payload = _run(capsys, ["extended-sn", "--input", str(path)])
    assert code == 0
    assert payload == {"member": True, "value": "i"}


@pytest.mark.parametrize("p,m", [(3, 7), (11, 3)])
def test_extended_sn_over_a_large_field(p, m, tmp_path, capsys):
    # adjoin_zeta once scanned F_{q^2}: a minute over F_{3^7}
    data = {"field": {"p": p, "m": m},
            "blocks": [{"label": "a", "dim": 2, "kind": "asym"}],
            "gram": [[0, 1], [1, 0]], "element": [["zeta", 0], [0, "zeta"]]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    code, payload = _run(capsys, ["extended-sn", "--input", str(path)])
    assert code == 0 and payload == {"member": True, "value": "i"}


def test_extended_sn_non_member(tmp_path, capsys):
    data = {"field": {"p": 3},
            "blocks": [{"label": "a", "dim": 2, "kind": "asym"}],
            "gram": [[0, 1], [1, 0]],
            "element": [[1, 1], [0, 1]]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    code, payload = _run(capsys, ["extended-sn", "--input", str(path)])
    assert code == 0
    assert payload == {"member": False, "value": None}


MIXED_SPACE = {"field": {"p": 3},
               "blocks": [{"label": "a", "dim": 2, "kind": "asym"},
                          {"label": "b", "dim": 1, "kind": "sym"}],
               "gram": [[0, 1, 0], [1, 0, 0], [0, 0, 1]]}
SINGULAR_ELEMENT = [[0, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_extended_sn_singular_element_is_not_a_member(tmp_path, capsys):
    # the membership test once raised "singular matrix", which exited 3
    path = tmp_path / "in.json"
    path.write_text(json.dumps({**MIXED_SPACE, "element": SINGULAR_ELEMENT}))
    code, payload = _run(capsys, ["extended-sn", "--input", str(path)])
    assert code == 0
    assert payload == {"member": False, "value": None}


@pytest.mark.parametrize("element,member", [
    ([["zeta", 0, 0], [0, "zeta", 0], [0, 0, 1]], True),
    ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], False)])
def test_extended_sn_decides_membership_once(element, member, tmp_path,
                                             monkeypatch, capsys):
    from heckeforge import cli, gradedorth
    calls = []
    otilde_membership = gradedorth.otilde_membership

    def spied(space, g):
        calls.append(g)
        return otilde_membership(space, g)
    monkeypatch.setattr(gradedorth, "otilde_membership", spied)
    monkeypatch.setattr(cli, "otilde_membership", spied)
    path = tmp_path / "in.json"
    path.write_text(json.dumps({**MIXED_SPACE, "element": element}))
    code, payload = _run(capsys, ["extended-sn", "--input", str(path)])
    assert code == 0 and payload["member"] is member
    assert len(calls) == 1


@pytest.mark.parametrize("element", [
    [["zeta", 0], [0, "zeta"]], [[1, 0, 0], [0, 1, 0]],
    [[1, 0, 0], [0, 1], [0, 0, 1]]])
def test_extended_sn_element_of_another_size(element, tmp_path, capsys):
    # the graded space is 3-dimensional: an asym plane and a sym line
    data = {"field": {"p": 3},
            "blocks": [{"label": "a", "dim": 2, "kind": "asym"},
                       {"label": "b", "dim": 1, "kind": "sym"}],
            "gram": [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
            "element": element}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    assert main(["extended-sn", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: bad input")


@pytest.mark.parametrize("drop,message", [
    ("field", 'missing key "field"'), ("gram", 'missing key "gram"'),
    ("matrix", 'missing key "matrix"'), ("field.p", 'field missing key "p"')])
def test_spinor_norm_missing_key_names_it(drop, message, tmp_path, capsys):
    data = {"field": {"p": 3}, "gram": [[0, 1], [1, 0]],
            "matrix": [[-1, 0], [0, -1]]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_dropped(data, drop)))
    assert main(["spinor-norm", "--input", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("drop,message", [
    ("field", 'missing key "field"'), ("blocks", 'missing key "blocks"'),
    ("gram", 'missing key "gram"'), ("element", 'missing key "element"'),
    ("field.p", 'field missing key "p"'),
    ("blocks.0.label", 'blocks[0] missing key "label"'),
    ("blocks.1.dim", 'blocks[1] missing key "dim"'),
    ("blocks.1.kind", 'blocks[1] missing key "kind"')])
def test_extended_sn_missing_key_names_it(drop, message, tmp_path, capsys):
    data = {**MIXED_SPACE, "element": [["zeta", 0, 0], [0, "zeta", 0],
                                       [0, 0, 1]]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_dropped(data, drop)))
    assert main(["extended-sn", "--input", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _dropped(data, path):
    """A deep copy of the JSON object data without the key at the dotted
    path (list indices as digits)."""
    data = json.loads(json.dumps(data))
    *parents, key = path.split(".")
    obj = data
    for step in parents:
        obj = obj[int(step)] if step.isdigit() else obj[step]
    del obj[key]
    return data


def _missing_key_message(path):
    """The CLI's message for the key at the dotted path: its parent as
    blocks[i] or field, then the key."""
    *parents, key = path.split(".")
    where = "".join(f"[{s}]" if s.isdigit() else s for s in parents)
    return f'{where} missing key "{key}"'.lstrip()


def test_weil_mult_check(capsys):
    code, payload = _run(capsys, ["weil", "--p", "3", "--check", "mult"])
    assert code == 0 and payload["pass"] is True


def test_weil_central_check(capsys):
    code, payload = _run(capsys, ["weil", "--p", "3", "--dim", "4",
                                  "--check", "central"])
    # a passing verdict carries no witness key
    assert code == 0 and payload == {"check": "central", "pass": True,
                                     "params": {"p": 3, "dim": 4}}


def test_weil_split_check(capsys):
    code, payload = _run(capsys, ["weil", "--p", "3", "--dim", "4",
                                  "--check", "split"])
    assert code == 0 and payload["pass"] is True


def test_weil_bad_dim(capsys):
    assert main(["weil", "--p", "3", "--dim", "3", "--check", "central"]) == 2
    assert main(["weil", "--p", "5", "--dim", "4", "--check", "mult"]) == 2


def test_hecke_braid_check(capsys):
    code, payload = _run(capsys, ["hecke", "--type", "B2",
                                  "--params", "s=qs,t=qt",
                                  "--check", "braid"])
    assert code == 0 and payload["pass"] is True


def test_hecke_quadratic_check(capsys):
    code, payload = _run(capsys, ["hecke", "--type", "G2",
                                  "--check", "quadratic"])
    assert code == 0 and payload == {"check": "quadratic", "pass": True,
                                     "type": "G2"}


def test_hecke_invalid_params(capsys):
    # A2 has odd m, so unequal parameters are rejected as a usage error
    assert main(["hecke", "--type", "A2", "--params", "s=qs,t=qt",
                 "--check", "braid"]) == 2


def test_hecke_from_matrix_file(tmp_path, capsys):
    data = {"generators": ["s", "t"],
            "matrix": [["s", "t", 4]], "type": "B2-file"}
    path = tmp_path / "cox.json"
    path.write_text(json.dumps(data))
    code, payload = _run(capsys, ["hecke", "--type", str(path),
                                  "--check", "assoc"])
    assert code == 0 and payload["pass"] is True


@pytest.mark.parametrize("matrix,code", [
    ([["s", "t", 3], ["t", "u", 3]], 2),
    ([["s", "t", 3], ["t", "u", 3], ["s", "u", "inf"]], 0)])
def test_hecke_matrix_file_must_give_every_pair(tmp_path, capsys, matrix,
                                                code):
    data = {"generators": ["s", "t", "u"], "matrix": matrix}
    path = tmp_path / "cox.json"
    path.write_text(json.dumps(data))
    assert main(["hecke", "--type", str(path), "--check", "braid"]) == code
    if code == 2:
        assert "m(s,u) is missing" in capsys.readouterr().err


@pytest.mark.parametrize("data,check,named", [
    ({"generators": [], "matrix": []}, "assoc", "[]"),
    ({"generators": [], "matrix": [["s", "t", 1]]}, "braid", "('s', 't')"),
    ({"generators": ["s", "t"], "matrix": [["s", "t", 3], ["s", "u", 2]]},
     "braid", "('s', 'u')")])
def test_hecke_matrix_file_refuses_what_names_no_generator(
        tmp_path, capsys, data, check, named):
    # no generators once exited 3 in random_triples, and a pair with an
    # unknown letter passed unread
    path = tmp_path / "cox.json"
    path.write_text(json.dumps(data))
    assert main(["hecke", "--type", str(path), "--check", check]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad Coxeter matrix file") and named in err


@pytest.mark.parametrize("data,check,named", [
    ({"generators": ["s", "t"], "matrix": [["s", "t", 3.7]]}, "braid",
     "3.7"),
    ({"generators": ["s", "t"], "matrix": [["s", "t", 4.2]]}, "braid",
     "4.2"),
    ({"generators": ["s", "t"], "matrix": [["s", "t", 3.0]]}, "braid",
     "3.0"),
    ({"generators": ["s", "t"], "matrix": [["s", "t", True]]}, "braid",
     "True"),
    ({"generators": ["s", "t"], "matrix": [["s", "t", 1.5]]}, "assoc",
     "1.5"),
    ({"generators": ["s", "t"], "matrix": [["s", "t", "3"]]}, "braid",
     "'3'"),
    ({"generators": "st", "matrix": [["s", "t", 3]]}, "braid", "'st'")])
def test_hecke_matrix_file_takes_int_labels_and_a_generator_list(
        tmp_path, capsys, data, check, named):
    # int() once read the label 3.7 as 3 (braid passed), 4.2 as 4, true as
    # 1 and 1.5 as "m(s,t)=1", and the string "st" as the letters s and t
    path = tmp_path / "cox.json"
    path.write_text(json.dumps(data))
    assert main(["hecke", "--type", str(path), "--check", check]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad Coxeter matrix file") and named in err


@pytest.mark.parametrize("cox_type", ["file", "A1~"])
def test_negative_len_cap_names_the_flag(cox_type, tmp_path, capsys):
    # the cap is a flag, not part of the matrix file
    if cox_type == "file":
        cox_type = str(tmp_path / "a2.json")
        (tmp_path / "a2.json").write_text(json.dumps(
            {"generators": ["s", "t"], "matrix": [["s", "t", 3]]}))
    assert main(["hecke", "--type", cox_type, "--check", "braid",
                 "--len-cap", "-1"]) == 2
    err = capsys.readouterr().err
    assert "--len-cap" in err and "Coxeter matrix file" not in err


def test_bug_inside_the_coxeter_system_of_a_good_file_exits_3(
        tmp_path, monkeypatch, capsys):
    # the file reader once caught every TypeError and reported it as bad input
    from heckeforge.heckealg import CoxeterSystem
    monkeypatch.setattr(CoxeterSystem, "_build_cartan",
                        lambda self: _raise_type_error())
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({"generators": ["s", "t"],
                                "matrix": [["s", "t", 3]]}))
    assert main(["hecke", "--type", str(path), "--check", "braid"]) == 3
    assert "TypeError: deliberate bug" in capsys.readouterr().err


def _raise_type_error():
    raise TypeError("deliberate bug")


_A2 = {"generators": ["s", "t"]}
# stands for a path to a file that does not exist
_MISSING = object()


@pytest.mark.parametrize("argv,data,named", [
    (["hecke", "--check", "braid"], {"generators": [["s"], "t"],
                                     "matrix": [["s", "t", 3]]},
     'bad Coxeter matrix file: "generators": expected a list of strings'),
    (["hecke", "--check", "braid"], {**_A2, "matrix": [["s", "t"]]},
     'bad Coxeter matrix file: "matrix" entry 0: expected [s, t, m]'),
    (["hecke", "--check", "braid"], {**_A2, "matrix": 5},
     'bad Coxeter matrix file: "matrix": expected a list, got 5'),
    (["hecke", "--check", "braid"], _A2,
     'Coxeter matrix file missing key "matrix"'),
    (["hecke", "--check", "braid"], [1],
     'expected a JSON object with the key "generators", got list'),
    (["sgn", "--p", "4", "--element", "1"], None, "--p: p = 4 is not"),
    (["sgn", "--p", "3", "--element", "x"], None,
     "--element: expected ints separated by commas, got 'x'"),
    (["sgn", "--p", "3", "--element", "0"], None,
     "--element: sgn is undefined at 0"),
    (["sgn", "--p", "3", "--element", "1,2"], None,
     "--element: too many coefficients"),
    (["sgn", "--p", "3", "--m", "0", "--element", "1"], None,
     "--m: extension degree must be >= 1"),
    (["weil", "--p", "9", "--check", "central"], None,
     "--p: p must be an odd prime"),
    (["hecke", "--type", "X2", "--check", "braid"], None,
     "--type: unknown type tag 'X2'"),
    (["hecke", "--type", "A2", "--params", "s=a,t=b", "--check", "braid"],
     None, "--params: generators s,t are conjugate"),
    (["hecke", "--type", "A2", "--params", "s=a", "--check", "braid"], None,
     "--params: parameter function must cover S exactly"),
    (["sp4", "--q", "6", "--twist", "sign"], None,
     "--q: 6 is not a prime power"),
    (["sp4", "--q", "9", "--N", "1", "--twist", "sign"], None,
     "--N: N >= 2 required"),
    (["spinor-norm", "--input", _MISSING], None,
     "--input: cannot read JSON: [Errno 2]"),
    (["hecke", "--type", _MISSING, "--check", "braid"], None,
     "--type: cannot read JSON: [Errno 2]")])
def test_refusal_names_the_flag_or_key(argv, data, named, tmp_path, capsys):
    # these once printed Python exception texts ("unhashable type: 'list'",
    # "'int' object is not iterable") or named no flag; a file that cannot
    # be read once named only the keys expected in it
    argv = [str(tmp_path / "missing.json") if a == _MISSING else a
            for a in argv]
    if data is not None:
        (tmp_path / "cox.json").write_text(json.dumps(data))
        argv = argv[:1] + ["--type", str(tmp_path / "cox.json")] + argv[1:]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err, err


def test_sp4_subcommand(capsys):
    code, payload = _run(capsys, ["sp4", "--q", "3", "--twist", "trivial"])
    assert code == 0 and payload["value"] == 2
    code, payload = _run(capsys, ["sp4", "--q", "3", "--twist", "sign"])
    assert code == 0 and payload["value"] == 0
    code, payload = _run(capsys, ["sp4", "--q", "5", "--twist", "trivial",
                                  "--point", "e"])
    assert code == 0 and payload["value"] == 5


def test_sp4_bad_twist(capsys):
    assert main(["sp4", "--q", "3", "--twist", "weird"]) == 2


def test_suite_filter(capsys):
    code, payload = _run(capsys, ["suite", "--filter", "sp4oracle"])
    assert code == 0 and payload["pass"] is True
    assert len(payload["checks"]) == 6
    assert all(c["module"] == "sp4oracle" for c in payload["checks"])


def test_suite_unknown_filter(capsys):
    assert main(["suite", "--filter", "nonsense"]) == 2


def test_suite_failure_emits_the_witness(monkeypatch, capsys):
    from heckeforge import checks
    monkeypatch.setattr(checks, "convolve_s", lambda twist, q, N=3: 7)
    code, payload = _run(capsys, ["suite", "--filter", "sp4oracle"])
    assert code == 1 and payload["pass"] is False
    entries = {c["name"]: c for c in payload["checks"]}
    assert entries["convolve_s trivial q=3 equals 2"] == {
        "module": "sp4oracle", "name": "convolve_s trivial q=3 equals 2",
        "pass": False, "witness": {"value": 7}}
    # a constant is independent of N: that entry passes, without a witness
    assert entries["truncation independence N in {2,3,4}"] == {
        "module": "sp4oracle", "name": "truncation independence N in {2,3,4}",
        "pass": True}


def test_hecke_failure_names_the_first_generator(monkeypatch, capsys):
    from heckeforge.heckealg import HeckeAlgebra
    mul = HeckeAlgebra.mul

    def doubled_squares(self, a, b):
        return mul(self, a, b).scale(2) if a == b else mul(self, a, b)
    monkeypatch.setattr(HeckeAlgebra, "mul", doubled_squares)
    code, payload = _run(capsys, ["hecke", "--type", "B2", "--params",
                                  "s=qs,t=qt", "--check", "quadratic"])
    assert code == 1
    assert payload == {"check": "quadratic", "type": "B2", "pass": False,
                       "witness": {"generator": "s"}}


@pytest.mark.parametrize("cap,code", [(4, 0), (3, 2)])
def test_len_cap_boundary(cap, code, capsys):
    # the B2 braid relation multiplies words of length 4 = m(s, t)
    assert main(["hecke", "--type", "B2", "--check", "braid",
                 "--len-cap", str(cap)]) == code
    err = capsys.readouterr().err
    assert ("exceeds the length cap 3" in err) is (code == 2)


def test_weil_central_failure_names_a(monkeypatch, capsys):
    from heckeforge.sympweil import HeisenbergRep
    operator = HeisenbergRep.operator

    def negated_off_zero(self, h):
        return -operator(self, h) if h.a else operator(self, h)
    monkeypatch.setattr(HeisenbergRep, "operator", negated_off_zero)
    code, payload = _run(capsys, ["weil", "--p", "5", "--check", "central"])
    assert code == 1 and payload["witness"] == {"a": 1}


def test_internal_error_exits_3(monkeypatch, capsys):
    from heckeforge import cli

    def boom(args):
        raise RuntimeError("deliberate bug")
    monkeypatch.setattr(cli, "_cmd_sgn", boom)
    assert main(["sgn", "--p", "7", "--element", "3"]) == 3
    err = capsys.readouterr().err
    assert "internal error" in err and "Traceback" in err
    assert "RuntimeError: deliberate bug" in err


@pytest.mark.parametrize("argv", [
    ["sp4", "--q", "4", "--twist", "trivial"],
    ["sp4", "--q", "3", "--twist", "trivial", "--N", "1"],
    ["weil", "--p", "4", "--check", "mult"],
    ["sgn", "--p", "4", "--element", "1"],
    ["hecke", "--type", "A1~", "--check", "assoc", "--len-cap", "2"],
    ["hecke", "--type", "A1~", "--check", "quadratic", "--len-cap", "-1"],
])
def test_bad_input_is_usage_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal error" not in err


def test_package_error_on_valid_input_exits_3(tmp_path, monkeypatch, capsys):
    from heckeforge import cli
    from heckeforge.quadspace import QuadSpaceError

    def broken(g):
        raise QuadSpaceError("deliberate bug")
    monkeypatch.setattr(cli, "spinor_norm", broken)
    data = {"field": {"p": 3}, "gram": [[0, 1], [1, 0]],
            "matrix": [[-1, 0], [0, -1]]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    assert main(["spinor-norm", "--input", str(path)]) == 3
    err = capsys.readouterr().err
    assert "internal error" in err and "QuadSpaceError: deliberate bug" in err


def _raise_bug(*args, **kwargs):
    raise RuntimeError("deliberate bug")


@pytest.mark.parametrize("command,name", [
    ("spinor-norm", "OrthogonalMap"),
    ("extended-sn", "_graded_element"),
])
def test_bug_while_reading_input_exits_3(command, name, tmp_path,
                                         monkeypatch, capsys):
    from heckeforge import cli
    monkeypatch.setattr(cli, name, _raise_bug)
    data = {"field": {"p": 3},
            "blocks": [{"label": "a", "dim": 2, "kind": "asym"}],
            "gram": [[0, 1], [1, 0]], "matrix": [[-1, 0], [0, -1]],
            "element": [["zeta", 0], [0, "zeta"]]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    assert main([command, "--input", str(path)]) == 3
    assert "RuntimeError: deliberate bug" in capsys.readouterr().err


def test_bug_in_split_helpers_propagates(monkeypatch):
    import random
    from heckeforge import checks
    from heckeforge.sympweil import SymplecticSpace
    space = SymplecticSpace.standard(3, 2)
    monkeypatch.setattr(checks, "SymplecticSpace", _raise_bug)
    with pytest.raises(RuntimeError):
        checks._random_weighted_space(3, 4, random.Random(0))
    # weights -1, 0, 1, 0 on (e1, e2, f1, f2) give a nonempty V2, whose
    # form is checked
    with pytest.raises(RuntimeError):
        checks._split_postconditions(space, [-1, 0, 1, 0])


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_output_is_deterministic(capsys):
    code1 = main(["sgn", "--p", "7", "--element", "3"])
    out1 = capsys.readouterr().out
    code2 = main(["sgn", "--p", "7", "--element", "3"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0 and out1 == out2


PARSER_SEQUENCE = [
    ["sgn", "--p", "7", "--element", "3"],
    ["sp4", "--q", "5", "--twist", "sign", "--point", "e"],
    ["sgn", "--p", "7"],                           # argparse: missing option
    ["sp4", "--q", "3", "--twist", "bogus"],       # UsageError
    ["hecke", "--type", "B2", "--check", "quadratic"],
    [],                                            # no subcommand
    ["sgn", "--p", "3", "--m", "2", "--element", "0,1"],
    ["sp4", "--q", "3", "--twist", "trivial"],
]


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


def test_parser_built_once_matches_fresh_parsers(monkeypatch, capsys):
    from heckeforge import cli
    cached = []
    for argv in PARSER_SEQUENCE:
        cached.append((_exit_code(argv), capsys.readouterr().out))
    parser = cli._parser
    assert parser is not None
    fresh = []
    for argv in PARSER_SEQUENCE:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append((_exit_code(argv), capsys.readouterr().out))
        assert cli._parser is not parser
    assert cached == fresh
    assert [code for code, _ in cached] == [0, 0, 2, 2, 0, 2, 0, 0]


@pytest.mark.parametrize("argv", [["suite"],
                                  ["weil", "--p", "5", "--check", "mult"]])
def test_weil_checks_never_reach_the_dense_kernel(monkeypatch, capsys, argv):
    # every Weil and Heisenberg product of the battery and of the sampled
    # multiplicativity check is computed on exponents
    from heckeforge import cyclo

    def refuse(*args):
        raise AssertionError("reached _plane_product")
    monkeypatch.setattr(cyclo, "_plane_product", refuse)
    code, payload = _run(capsys, argv)
    assert code == 0 and payload["pass"] is True


# ---------------------------------------------------------------------------
# the CLI contract, fuzzed: exit 0, 1 or 2 and never 3; a verdict is one
# JSON line, the same on a second run; a refusal starts "error:" or "usage:"

_NUMBERS = ["0", "1", "2", "3", "4", "5", "6", "-3", "9", "25", "x"]
_ENTRIES = st.one_of(st.integers(-2, 9), st.sampled_from(
    [1.5, "x", None, True, [], [0, 1], "zeta", "-zeta"]))
_MATRICES = st.one_of(
    st.lists(st.lists(_ENTRIES, min_size=1, max_size=3), max_size=3),
    _ENTRIES)
_FIELDS = st.one_of(
    st.fixed_dictionaries(
        {"p": st.sampled_from([0, 1, 2, 3, 4, 5, 6, -3, 9, 25, "3", None])},
        optional={"m": st.sampled_from([0, 1, 2, -1, "2"]),
                  "modulus": st.sampled_from([[1, 0, 1], [2, 0, 1], [1],
                                              [0, 1], "x", []])}),
    st.sampled_from([None, [], "F_3", {}]))
_BLOCKS = st.lists(st.fixed_dictionaries({
    "label": st.sampled_from(["a", "b", 1, None]),
    "dim": st.sampled_from([0, 1, 2, 3, -2, "2", 1.5]),
    "kind": st.sampled_from(["asym", "sym", "x"])}), max_size=3)
_PLANE = {"field": {"p": 5}, "gram": [[0, 1], [1, 0]]}
_GRADED_SPACES = [
    MIXED_SPACE,
    {**_PLANE, "blocks": [{"label": "a", "dim": 2, "kind": "asym"}]},
    {"field": {"p": 3}, "blocks": [{"label": "a", "dim": 1, "kind": "sym"},
                                   {"label": "b", "dim": 1, "kind": "sym"}],
     "gram": [[1, 0], [0, 1]]}]


def _square(n, entries):
    return st.lists(st.lists(entries, min_size=n, max_size=n),
                    min_size=n, max_size=n)


@st.composite
def _graded_payloads(draw):
    """A valid graded space with a square element, mostly well formed."""
    space = draw(st.sampled_from(_GRADED_SPACES))
    n = len(space["gram"])
    element = draw(st.one_of(
        _square(n, st.sampled_from([0, 0, 0, 1, -1, 2, "zeta", "-zeta"])),
        _MATRICES))
    return {**space, "element": element}


_SPINOR_PAYLOADS = st.one_of(
    st.sampled_from([[[2, 0], [0, 3]], [[0, 4], [4, 0]], [[-1, 0], [0, -1]]]),
    _square(2, st.integers(-1, 3))).map(lambda m: {**_PLANE, "matrix": m})


@st.composite
def _dropped_key_invocations(draw):
    """(argv, text of its JSON file, dotted path of a dropped key): a
    well-formed spinor-norm or extended-sn space without one key the
    command reads."""
    command = draw(st.sampled_from(["spinor-norm", "extended-sn"]))
    if command == "spinor-norm":
        payload = draw(_SPINOR_PAYLOADS)
        paths = ["field", "field.p", "gram", "matrix"]
    else:
        payload = draw(_graded_payloads())
        paths = ["field", "field.p", "blocks", "gram", "element"] + [
            f"blocks.{i}.{key}" for i in range(len(payload["blocks"]))
            for key in ("label", "dim", "kind")]
    path = draw(st.sampled_from(paths))
    return ([command, "--input", "{file}"],
            json.dumps(_dropped(payload, path)), path)


_LETTERS = st.sampled_from(["s", "t", "u"])
_COXETER_FILES = st.fixed_dictionaries({
    "generators": st.one_of(st.lists(_LETTERS, max_size=3),
                            st.sampled_from(["st", 3, None])),
    "matrix": st.lists(st.tuples(_LETTERS, _LETTERS, st.sampled_from(
        [0, 1, 2, 3, 4, 6, -1, "inf", None, 3.7, True, "3"])).map(list),
        max_size=4)})


def _json_text(strategy):
    return st.one_of(strategy.map(json.dumps),
                     st.sampled_from(["", "{", "[]", "null"]))


def _flag(name, values):
    return st.one_of(st.just([]), st.sampled_from(values).map(
        lambda v: [name, v]))


@st.composite
def _cheap_invocations(draw):
    """(argv, text of its JSON file), the file named {file} in argv."""
    command = draw(st.sampled_from(["sgn", "spinor-norm", "extended-sn",
                                    "weil", "hecke", "sp4", "suite"]))
    if command == "sgn":
        argv = (["sgn", "--p", draw(st.sampled_from(_NUMBERS)),
                 "--element", draw(st.sampled_from(
                     ["0", "1", "2", "-1", "0,1", "1,x", "", "x"]))]
                + draw(_flag("--m", ["0", "1", "2", "3", "-1"]))
                + draw(_flag("--modulus", ["1", "1,1", "1,0,1", "2,0,1",
                                           "1,2,0,1", "x", ""])))
        return argv, None
    if command == "spinor-norm":
        payload = st.one_of(
            _SPINOR_PAYLOADS,
            st.fixed_dictionaries({}, optional={
                "field": _FIELDS, "gram": _MATRICES, "matrix": _MATRICES}))
        return ["spinor-norm", "--input", "{file}"], draw(_json_text(payload))
    if command == "extended-sn":
        payload = st.one_of(
            _graded_payloads(),
            st.fixed_dictionaries({}, optional={
                "field": _FIELDS, "blocks": _BLOCKS, "gram": _MATRICES,
                "element": _MATRICES}))
        return ["extended-sn", "--input", "{file}"], draw(_json_text(payload))
    if command == "weil":
        return (["weil", "--p", draw(st.sampled_from(_NUMBERS)),
                 "--check", draw(st.sampled_from(["central", "split", "x"]))]
                + draw(_flag("--dim", ["2", "4", "3", "0", "-2", "x"]))), None
    if command == "hecke":
        argv = (["hecke", "--type", draw(st.sampled_from(
                    ["A2", "B2", "G2", "A1~", "X", "{file}"])),
                 "--check", draw(st.sampled_from(["braid", "quadratic"]))]
                + draw(_flag("--params", ["s=qs,t=qt", "s=a", "bad", "",
                                          "s=q,s=r", "u=q"]))
                + draw(_flag("--len-cap", ["-1", "0", "2", "64", "x"])))
        return argv, draw(_json_text(_COXETER_FILES))
    if command == "sp4":
        return (["sp4", "--q", draw(st.sampled_from(_NUMBERS)),
                 "--twist", draw(st.sampled_from(["trivial", "sign", "x"]))]
                + draw(_flag("--N", ["-1", "0", "1", "2", "3"]))
                + draw(_flag("--point", ["s", "e", "x"]))), None
    return ["suite", "--filter", draw(st.sampled_from(
        ["sp4oracle", "gradedorth", "quadspace", "nonsense"]))], None


# each of these costs up to 0.3 s in-process, so they get a few examples
_COSTLY_INVOCATIONS = st.one_of(
    st.sampled_from([["suite"], ["suite", "--filter", "heckealg"]]),
    st.builds(lambda t, cap: ["hecke", "--type", t, "--check", "assoc",
                              "--len-cap", cap],
              st.sampled_from(["A2", "B2", "G2", "A1~", "{file}"]),
              st.sampled_from(["-1", "3", "64"])),
    st.builds(lambda p, check: ["weil", "--p", p, "--check", check],
              st.sampled_from(_NUMBERS),
              st.sampled_from(["mult", "induction"]))).map(
    lambda argv: (argv, json.dumps({"generators": ["s", "t"],
                                    "matrix": [["s", "t", 4]]})))


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_contract(capsys, tmp_path, argv, text, dropped=None):
    """dropped is the dotted path of a key missing from the JSON input,
    which must then be the refusal's one reason."""
    if "{file}" in argv:
        path = tmp_path / ("cox.json" if argv[0] == "hecke" else "in.json")
        path.write_text(text)
        argv = [str(path) if a == "{file}" else a for a in argv]
    code, out, err = _outcome(capsys, argv)
    assert code in (0, 1, 2), (argv, text, err)
    if dropped is not None:
        assert (code, err) == (
            2, f"error: {_missing_key_message(dropped)}\n"), (argv, text)
    if code == 2:
        assert err.startswith(("error:", "usage:")), (argv, text, err)
        # every refusal names a flag of the subcommand or a key of its JSON
        # input, on its last line (argparse's error follows its usage)
        assert _names_the_fault(argv[0]).search(err.splitlines()[-1]), (
            argv, text, err)
    else:
        assert out.count("\n") == 1 and out.endswith("\n"), (argv, out)
        json.loads(out)
        assert _outcome(capsys, argv)[:2] == (code, out), argv


_NAMES_A_KEY = re.compile(
    r'"(field|p|m|modulus|gram|matrix|blocks|label|dim|kind|element|'
    r'generators)"')
_FLAGS = {"sgn": "p|m|modulus|element", "weil": "p|dim|check",
          "hecke": "type|params|check|len-cap", "sp4": "q|twist|N|point",
          "suite": "filter"}


def _names_the_fault(command):
    """The pattern of the flags and JSON keys a refusal of command may
    name: keys only for the JSON inputs, flags and the Coxeter file's keys
    for hecke."""
    if command in ("spinor-norm", "extended-sn"):
        return _NAMES_A_KEY
    flags = rf"--({_FLAGS[command]})\b"
    return re.compile(f"{_NAMES_A_KEY.pattern}|{flags}" if command == "hecke"
                      else flags)


_FUZZ = settings(derandomize=True, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@settings(_FUZZ, max_examples=400)
@given(st.one_of(_cheap_invocations(), _dropped_key_invocations()))
@example((["extended-sn", "--input", "{file}"],
          json.dumps({**MIXED_SPACE, "element": SINGULAR_ELEMENT})))
@example((["sgn", "--p", "3", "--m", "1", "--modulus", "1", "--element",
           "1"], None))
@example((["hecke", "--type", "{file}", "--check", "braid"],
          json.dumps({"generators": [], "matrix": [["s", "t", 1]]})))
@example((["sgn", "--p", "3", "--m", "14", "--element", "2"], None))
def test_cli_contract_fuzz(capsys, tmp_path, invocation):
    _assert_contract(capsys, tmp_path, *invocation)


@settings(_FUZZ, max_examples=8)
@given(_COSTLY_INVOCATIONS)
@example((["hecke", "--type", "{file}", "--check", "assoc"],
          json.dumps({"generators": [], "matrix": []})))
def test_cli_contract_fuzz_costly_checks(capsys, tmp_path, invocation):
    _assert_contract(capsys, tmp_path, *invocation)
