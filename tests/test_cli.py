import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

from toruslab import cli
from toruslab.cli import (
    MAX_PAREN_DEPTH,
    TorusDocument,
    document_from_torus,
    parse_expression,
    parse_input,
    run_command,
)
from toruslab.errors import ParseError, ValidationError
from toruslab.exactfield import NumberField

from conftest import REPO, TORI


def _run(argv, capsys):
    code = run_command(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------

def test_parse_exact_rationals():
    f = NumberField(())
    x = parse_expression("1/3 + 2*i", f)
    assert x == f.rational(F(1, 3)) + f.i() * 2


def test_parse_powers_and_parens():
    f = NumberField(())
    assert parse_expression("(1+i)^2", f) == (f.one() + f.i()) ** 2
    assert parse_expression("(1+i)**2", f) == (f.one() + f.i()) ** 2
    assert parse_expression("-i*(2 - i)", f) == -f.i() * (f.rational(2) - f.i())


def test_float_literal_rejected():
    f = NumberField(())
    with pytest.raises(ValidationError):
        parse_expression("0.5", f)


def test_unknown_generator_rejected():
    f = NumberField(())
    with pytest.raises(ParseError):
        parse_expression("1 + q", f)


def test_unbalanced_parens_rejected():
    f = NumberField(())
    with pytest.raises(ParseError):
        parse_expression("(1 + i", f)


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

def test_bundled_documents_roundtrip():
    for name in ("example1_m1.json", "example2_m1_n2.json",
                 "scalar_m1.json", "random_d2_seed1.json"):
        text = (TORI / name).read_text()
        doc = parse_input(text)
        assert parse_input(doc.to_json_text()) == doc
        torus, mults = doc.realize()
        doc2 = document_from_torus(torus, mults)
        torus2, mults2 = doc2.realize()
        assert torus.period.entries == torus2.period.entries
        assert [m.R for m in mults] == [m.R for m in mults2]


def test_document_float_rejected():
    doc = json.loads((TORI / "example1_m1.json").read_text())
    doc["period"][0][0] = "0.5"
    with pytest.raises(ValidationError):
        parse_input(json.dumps(doc))
    doc["period"][0][0] = 0.5
    with pytest.raises(ValidationError):
        parse_input(json.dumps(doc))


def test_document_bad_schema_rejected():
    with pytest.raises(ParseError):
        parse_input("{not json")
    with pytest.raises(ValidationError):
        parse_input("{}")
    with pytest.raises(ValidationError):
        parse_input('{"period": [["1","1","1","1"]]}')


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_endo_command_json(capsys):
    code, out, _ = _run(["endo", str(TORI / "example2_m1_n2.json"), "--json"],
                        capsys)
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "endo"
    assert report["witnesses"]["rank"] == 4
    cls = report["witnesses"]["classification"]
    assert cls["tag"] == "DefiniteQuaternion"


def test_ns_and_nd_commands(capsys):
    code, out, _ = _run(["ns", str(TORI / "scalar_m1.json"), "--json"], capsys)
    assert code == 0
    assert json.loads(out)["witnesses"]["rank"] == 4
    code, out, _ = _run(["nd", str(TORI / "scalar_m1.json"), "--mult", "0",
                         "--json"], capsys)
    assert code == 0
    assert json.loads(out)["witnesses"]["rank"] == 2


def test_classify_command(capsys):
    code, out, _ = _run(["classify", str(TORI / "example1_m1.json"), "--json"],
                        capsys)
    assert code == 0
    cls = json.loads(out)["witnesses"]["classification"]
    assert cls["tag"] == "ImaginaryQuadratic"
    assert cls["discriminant_data"] == [-1]


def test_polarize_command(capsys):
    code, out, _ = _run(["polarize", str(TORI / "scalar_m1.json"), "--json"],
                        capsys)
    assert code == 0
    report = json.loads(out)
    assert report["witnesses"]["verdict"] == "algebraic"
    eigs = report["approx"]["polarization_eigenvalues"]
    assert all(e > 0 for e in eigs)
    code, out, _ = _run(["polarize", str(TORI / "example2_m1_n2.json"),
                         "--json"], capsys)
    assert json.loads(out)["witnesses"]["verdict"] == "not-algebraic"


@pytest.mark.parametrize("bits, fits", [(400, True), (600, False)])
def test_polarize_past_the_float_range_exits_zero(bits, fits, tmp_path, capsys):
    # det M of the polarization passes the float range; its eigenvalues
    # are printed from scaled values, or left out when they pass it too
    doc = json.loads((TORI / "example1_m1.json").read_text())
    doc["multiplications"] = []
    doc["period"][0][0] = f"(2^{bits} + 1)*i"
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(["polarize", str(path), "--json"], capsys)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["witnesses"]["verdict"] == "algebraic"
    eigs = report["approx"].get("polarization_eigenvalues")
    if fits:
        assert 0 <= eigs[0] <= eigs[1] < float("inf") and eigs[1] > 2.0 ** 700
    else:
        assert eigs is None
    code, out, err = _run(["polarize", str(path)], capsys)
    assert code == 0 and err == "" and "verdict: algebraic" in out


def test_polarize_small_eigenvalue_does_not_cancel(tmp_path, capsys):
    # lambda_min / lambda_max is about 2^-400 here: (tr - disc) / 2 loses
    # every digit of lambda_min, det / lambda_max keeps them
    from toruslab.exactfield import embed
    from toruslab.neronseveri import is_algebraic

    doc = json.loads((TORI / "example1_m1.json").read_text())
    doc["multiplications"] = []
    doc["period"][0][0] = "(2^400 + 1)*i"
    text = json.dumps(doc)
    path = tmp_path / "big.json"
    path.write_text(text)
    code, out, _ = _run(["polarize", str(path), "--json"], capsys)
    assert code == 0
    lo, hi = json.loads(out)["approx"]["polarization_eigenvalues"]
    assert 0 < lo < hi
    torus, _ = parse_input(text).realize()
    box = embed(is_algebraic(torus).polarization.herm.M.det(), 128)
    det = (box.re_lo + box.re_hi) / 2
    assert abs(F(lo) * F(hi) / det - 1) < 1e-12


def test_verify_prop_exit_zero(capsys):
    code, out, _ = _run(["verify-prop", str(TORI / "random_d2_seed1.json"),
                         "--mult", "0"], capsys)
    assert code == 0
    assert "verified" in out


def test_verify_cor_command(capsys):
    code, out, _ = _run(["verify-cor", str(TORI / "scalar_m1.json"), "--json"],
                        capsys)
    assert code == 0
    report = json.loads(out)
    statuses = {c["id"]: c["status"] for c in report["claims"]}
    assert statuses["corollary3.real-multiplication"] == "verified"


def test_missing_file_exit_2(capsys):
    code, _, err = _run(["endo", "no_such_file.json"], capsys)
    assert code == 2
    assert "ParseError" in err


@pytest.mark.parametrize("argv", [["polarize"], ["verify-prop", "--mult", "0"],
                                  ["verify-cor"]])
def test_negative_seed_is_a_usage_error(argv, capsys):
    code, out, err = _run([argv[0], str(TORI / "random_d2_seed1.json"), *argv[1:],
                           "--seed", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert "argument --seed: must be a non-negative integer" in err


def test_corrupted_document_not_an_endomorphism(tmp_path, capsys):
    doc = json.loads((TORI / "random_d2_seed1.json").read_text())
    doc["period"][0][3] = doc["period"][0][3] + " + 1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = _run(["verify-prop", str(bad), "--mult", "0"], capsys)
    assert code == 2
    assert "NotAnEndomorphism" in err


def test_json_byte_identical_across_runs():
    cmd = [sys.executable, "-m", "toruslab.cli", "--json", "verify-prop",
           str(TORI / "random_d2_seed1.json"), "--mult", "0"]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout
    assert r1.stdout.strip()


def test_gen_example_roundtrips(tmp_path, capsys):
    out_file = tmp_path / "gen.json"
    code, _, _ = _run(["gen-example", "2", "--m", "1", "--n", "2",
                       "-o", str(out_file)], capsys)
    assert code == 0
    generated = parse_input(out_file.read_text())
    bundled = parse_input((TORI / "example2_m1_n2.json").read_text())
    assert generated == bundled


def test_gen_example_random_matches_bundle(tmp_path, capsys):
    out_file = tmp_path / "gen.json"
    code, _, _ = _run(["gen-example", "random", "--d", "2", "--seed", "1",
                       "-o", str(out_file)], capsys)
    assert code == 0
    assert out_file.read_text() == (TORI / "random_d2_seed1.json").read_text()


def test_cli_import_loads_neither_sympy_nor_numpy():
    # start-up pays only for the standard library; sympy and numpy are
    # imported by the code paths that use them
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys, toruslab.cli; "
            "print(sorted(m for m in ('sympy', 'numpy') if m in sys.modules))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


#: what every command loads: the parser, the documents and the torus layer
_CORE = {"cli", "errors", "exactfield", "linalg", "record", "torus"}
_MODULES_AT_EXIT = (
    "import sys\n"
    "code = 0\n"
    "if sys.argv[1:]:\n"
    "    from toruslab import cli\n"
    "    code = cli.run_command(sys.argv[1:])\n"
    "    sys.stdout.flush()\n"
    "print(code, *sorted(sys.modules), file=sys.stderr)\n")


def _modules_at_exit(argv):
    """Exit code and sys.modules at exit of one command in a fresh interpreter
    (of the bare interpreter, for no argv)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    opt = ["-" + "O" * sys.flags.optimize] if sys.flags.optimize else []
    r = subprocess.run([sys.executable, *opt, "-c", _MODULES_AT_EXIT, *argv],
                       capture_output=True, text=True, env=env)
    code, *modules = r.stderr.splitlines()[-1].split()
    return int(code), set(modules)


@pytest.fixture(scope="module")
def bare_modules():
    return _modules_at_exit([])[1]


#: each command, and the layers beyond _CORE that it loads
_COMMAND_LAYERS = [
    (["endo", "example2_m1_n2.json"], {"endo"}),
    (["classify", "example1_m1.json"], {"endo"}),
    (["ns", "scalar_m1.json"], {"neronseveri"}),
    (["nd", "random_d2_seed1.json"], {"neronseveri"}),
    (["polarize", "random_d3_seed1.json"], {"neronseveri"}),
    (["verify-prop", "random_d2_seed1.json"], {"neronseveri", "papercheck"}),
    (["verify-cor", "scalar_m1.json"], {"neronseveri", "papercheck", "endo"}),
    (["gen-example", "random", "--d", "2", "--seed", "1"], {"neronseveri", "papercheck"}),
]


@pytest.mark.parametrize("argv, layers", _COMMAND_LAYERS,
                         ids=[argv[0] for argv, _ in _COMMAND_LAYERS])
def test_each_command_loads_only_the_layers_it_runs(argv, layers, bare_modules):
    # a fresh interpreter compiles what it imports: start-up is paid per layer
    if argv[0] != "gen-example":
        argv = [argv[0], str(TORI / argv[1])]
    code, modules = _modules_at_exit(["--json", *argv])
    assert code == 0
    # nothing the interpreter's own start-up did not already load
    assert not {"dataclasses", "inspect"} & (modules - bare_modules)
    assert {m for m in modules if m.split(".")[0] == "toruslab"} == (
        {"toruslab"} | {f"toruslab.{m}" for m in _CORE | layers})


@pytest.mark.parametrize("argv", [["1", "--m", "0"], ["2", "--m", "0", "--n", "2"],
                                  ["2", "--m", "1", "--n", "-3"], ["scalar", "--m", "0"],
                                  ["scalar", "--m", "-1"]])
def test_gen_example_non_positive_parameter_is_a_usage_error(argv, capsys):
    code, out, err = _run(["gen-example", *argv], capsys)
    assert code == 2
    assert out == ""
    assert "must be an integer >= 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("bits", ["7", "4097", "100000000", "many"])
def test_precision_out_of_range_is_a_usage_error(bits, capsys):
    start = time.perf_counter()
    code, out, err = _run(["polarize", str(TORI / "random_d2_seed1.json"),
                           "--precision", bits], capsys)
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == ""
    assert "argument --precision: must be an integer in [8, 4096]" in err


def test_powers_within_the_bounds_are_exact():
    f = NumberField(())
    assert parse_expression("2^4095", f) == f.rational(2 ** 4095)
    assert parse_expression("i^1000000001", f) == f.i()
    assert parse_expression("(1+i)^-3", f) == f.one() / (f.one() + f.i()) ** 3
    assert parse_expression("(2/3)^0", f) == f.one()
    assert parse_expression("9" * 1000, f) == f.rational(int("9" * 1000))
    with pytest.raises(ParseError):
        parse_expression("2^4096", f)
    with pytest.raises(ParseError):
        parse_expression("9" * 1001, f)


_OVERSIZED = {
    "huge exponent": "2^1000000000",
    "large power": "2^100000",
    "negative power": "2^-100000",
    "nested powers": "(((2^64)^64)^64)^64",
    "long literal": "1" * 5001,
    "long exponent": "i^" + "1" * 5001,
}


@pytest.mark.parametrize("name", sorted(_OVERSIZED))
def test_oversized_expression_is_an_input_error(name, tmp_path, capsys):
    doc = json.loads((TORI / "example1_m1.json").read_text())
    doc["period"][0][2] = _OVERSIZED[name]
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = _run(["endo", str(bad)], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "ParseError" in err
    assert "Traceback" not in err


# (path into the document, malformed value): an integer where an array
# belongs used to end in TypeError, a list conj in "unhashable type", and
# a string was read one character at a time ("00" as the interval [0, 0])
_MALFORMED = {
    "generators": (("generators",), 5),
    "multiplications": (("multiplications",), 5),
    "min_poly": (("generators", 0, "min_poly"), 201),
    "root.re": (("generators", 0, "root", "re"), 1),
    "root.im": (("generators", 0, "root", "im"), 1),
    "conj": (("generators", 0, "conj"), ["real"]),
    "root.im string": (("generators", 0, "root", "im"), "00"),
}


@pytest.mark.parametrize("name", list(_MALFORMED))
def test_malformed_document_is_an_input_error(name, tmp_path, capsys):
    doc = json.loads((TORI / "example1_m1.json").read_text())
    path, value = _MALFORMED[name]
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = _run(["ns", str(bad)], capsys)
    assert code == 2
    assert out == ""
    assert "input error [ValidationError]" in err


def test_json_integer_past_the_digit_limit_is_an_input_error(tmp_path, capsys):
    text = (TORI / "example1_m1.json").read_text()
    assert '"d": -1' in text
    bad = tmp_path / "big.json"
    bad.write_text(text.replace('"d": -1', '"d": -' + "1" * 5001))
    code, out, err = _run(["endo", str(bad)], capsys)
    assert code == 2
    assert "ParseError" in err
    assert "Traceback" not in err


_OVERSIZED_ARITHMETIC = {
    "product": "*".join(["2^4000"] * 6),
    "sum": "2^4095+2^4095",
    "difference": "-2^4095-2^4095",
    "quotient": "(2^4000/3^2500)/3^2500",
}


@pytest.mark.parametrize("name", sorted(_OVERSIZED_ARITHMETIC))
def test_oversized_arithmetic_is_an_input_error(name, tmp_path, capsys):
    # each operand is within the bounds; the value they combine to is not
    doc = json.loads((TORI / "example1_m1.json").read_text())
    doc["period"][0][2] = _OVERSIZED_ARITHMETIC[name]
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = _run(["endo", str(bad)], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "ParseError" in err
    assert "Traceback" not in err


def _nested(chain, depth):
    return chain * depth + "1" + ")" * depth


@pytest.mark.parametrize("chain", ["(", "1/(", "-("])
def test_deep_nesting_is_an_input_error(chain, tmp_path, capsys):
    # the parser recurses per level: past the bound, the input is refused
    # before the interpreter's recursion limit can end it in a traceback
    f = NumberField(())
    assert parse_expression(_nested(chain, MAX_PAREN_DEPTH), f) == f.one()
    doc = json.loads((TORI / "example1_m1.json").read_text())
    for depth in (MAX_PAREN_DEPTH + 1, 500, 5000):
        doc["period"][0][2] = _nested(chain, depth)
        bad = tmp_path / "deep.json"
        bad.write_text(json.dumps(doc))
        code, out, err = _run(["ns", str(bad)], capsys)
        assert code == 2, depth
        assert out == ""
        assert "input error [ParseError]" in err
        assert "Traceback" not in err


def test_values_within_the_bound_are_exact():
    f = NumberField(())
    assert parse_expression("2^4094+2^4094", f) == f.rational(2 ** 4095)
    assert parse_expression("2^2000*2^2000", f) == f.rational(2 ** 4000)
    assert parse_expression("2^3000*2^1000/2^3999", f) == f.rational(2)


def test_commands_run_without_numpy():
    # polarization is exact: no command reaches for numpy
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    code = (
        "import contextlib, io, sys\n"
        "sys.modules['numpy'] = None\n"
        "from toruslab import cli\n"
        "tori, codes = sys.argv[1], []\n"
        "for doc in ('random_d2_seed1', 'scalar_m1', 'example2_m1_n2'):\n"
        "    for cmd in ('polarize', 'verify-prop', 'verify-cor'):\n"
        "        sys.argv = ['toruslab', '--json', cmd, f'{tori}/{doc}.json']\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            try:\n"
        "                cli.main()\n"
        "            except SystemExit as e:\n"
        "                codes.append(e.code)\n"
        "print(codes)\n")
    r = subprocess.run([sys.executable, "-c", code, str(TORI)], capture_output=True,
                       text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == str([0] * 9), r.stderr


_COMMANDS = ("endo", "classify", "ns", "nd", "polarize", "verify-prop", "verify-cor")


@pytest.mark.parametrize("stem", ["example1_m1", "random_d2_seed1"])
def test_each_command_parses_its_document_once(stem, monkeypatch, capsys):
    """One certificate per command, and one parse per period and multiplication entry."""
    doc = json.loads((TORI / f"{stem}.json").read_text())
    entries = 8 + 4 * len(doc["multiplications"])
    certified, parsed = [], []
    certify, parse = cli.certify_independence, cli.parse_expression
    monkeypatch.setattr(cli, "certify_independence",
                        lambda field: certified.append(field) or certify(field))
    monkeypatch.setattr(cli, "parse_expression",
                        lambda text, field: parsed.append(text) or parse(text, field))
    for cmd in _COMMANDS:
        certified.clear()
        parsed.clear()
        assert run_command(["--json", cmd, str(TORI / f"{stem}.json")]) == 0, cmd
        capsys.readouterr()
        assert len(certified) == 1, cmd
        assert len(parsed) == entries, cmd


@pytest.mark.parametrize("cmd", ["endo", "classify"])
def test_endo_on_a_period_entry_of_2_to_the_256(cmd, tmp_path, capsys):
    """The Hermite form keeps its rows reduced: this took 23 s while it reduced only at the end."""
    doc = json.loads((TORI / "example1_m1.json").read_text())
    doc["multiplications"] = []
    doc["period"][0][0] = "2^256"
    path = tmp_path / "big_entry.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert run_command(["--json", cmd, str(path)]) == 0
    elapsed = time.perf_counter() - start
    report = json.loads(capsys.readouterr().out)
    assert report["witnesses"]["classification"] == {"tag": "RationalField",
                                                     "discriminant_data": []}
    if cmd == "endo":
        assert report["witnesses"]["rank"] == 1
        assert report["witnesses"]["basis_R"] == [[[int(r == c) for c in range(4)]
                                                   for r in range(4)]]
    assert elapsed < 5
