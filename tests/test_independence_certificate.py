"""The exact independence certificate, the stdlib quartic test, and the
CLI documents whose fields it refuses.

Every refused field that really is dependent is checked against the
numeric screen `find_small_relation`, which finds the relation; the
quartic test is checked against sympy's factorization.
"""

import json
import math
import random
import re
import time
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import Phase, given, seed, settings
from hypothesis import strategies as st

from toruslab import cli, endo, exactfield, papercheck, torus
from toruslab.cli import TorusDocument, parse_input, run_command
from toruslab.errors import IndependenceSuspect, UncertifiedBasis
from toruslab.exactfield import (
    CONJ_IMAG,
    CONJ_REAL,
    GeneratorSpec,
    NumberField,
    certify_independence,
    embed,
    integer_roots,
    monic_integer,
    sqrt_element,
    sqrt_generator_spec,
)
from toruslab.papercheck import (
    example1,
    example2,
    random_torus_with_sqrt_d,
    scalar_cm_product,
)

from conftest import CBRT3_SPEC, TORI
from oracle_helpers import box_contains_zero, find_small_relation


def real_gen(name, poly, lo, hi):
    return GeneratorSpec(name, tuple(F(c) for c in poly), (F(lo), F(hi)), (F(0), F(0)),
                         CONJ_REAL)


SQRT2, SQRT3, SQRT6 = (sqrt_generator_spec(n) for n in (2, 3, 6))
CBRT2 = real_gen("r", (-2, 0, 0, 1), F(5, 4), F(63, 50))
CBRT3 = real_gen("c", (-3, 0, 0, 1), F(7, 5), F(29, 20))
SQUARE_ONE = real_gen("t", (-1, 0, 1), F(1, 2), F(3, 2))          # t = 1
CUBE_EIGHT = real_gen("t", (-8, 0, 0, 1), F(3, 2), F(5, 2))       # t = 2
CUBE_EIGHTH = real_gen("t", (F(-1, 8), 0, 0, 1), F(1, 4), F(3, 4))  # t = 1/2
SQRT8 = real_gen("e", (-8, 0, 1), 2, 3)                          # e = 2 sqrt2
HALF_SQRT2 = real_gen("h", (F(-1, 2), 0, 1), F(1, 2), 1)          # h = sqrt2 / 2
TWO_I = GeneratorSpec("y", (F(4), F(0), F(1)), (F(0), F(0)), (F(3, 2), F(5, 2)),
                      CONJ_IMAG)                                  # y = 2i
QUARTIC = real_gen("q", (-2, 0, 0, 0, 1), 1, F(6, 5))            # the real 4th root of 2


def refusal(*gens):
    with pytest.raises(UncertifiedBasis) as info:
        certify_independence(NumberField(gens))
    assert isinstance(info.value, IndependenceSuspect)
    return info.value


# ---------------------------------------------------------------------------
# accepted fields
# ---------------------------------------------------------------------------

def test_accepts_every_bundled_field():
    paths = sorted(TORI.glob("*.json"))
    assert paths
    for path in paths:
        certify_independence(NumberField(parse_input(path.read_text()).generators))


@pytest.mark.parametrize("d", [2, 3, 5, -1, -2, -5])
def test_accepts_random_test_bed_fields(d):
    for s in (1, 2):
        t, mult = random_torus_with_sqrt_d(d, s)
        certify_independence(t.field)
        certify_independence(mult.field)


SQUAREFREE = [m for m in range(1, 31)
              if all(m % (p * p) for p in (2, 3, 5))]


@pytest.mark.parametrize("r_spec", [None, CBRT3_SPEC], ids=["cbrt2", "cbrt3"])
def test_accepts_example1_fields(r_spec):
    for m in SQUAREFREE:
        t, mult = example1(m, r_spec)
        certify_independence(t.field)
        certify_independence(mult.field)


def test_accepts_example2_and_scalar_fields():
    for m, n in ((1, 2), (2, 3), (1, 5), (3, 7), (6, 10), (5, 30)):
        t, mult = example2(m, n)
        certify_independence(t.field)
        certify_independence(mult.field)
    for m in (1, 2, 3, 30):
        certify_independence(scalar_cm_product(m).field)


def test_accepts_rational_coefficients_and_a_lone_cubic():
    # x^3 - 3/2 scales to y^3 - 12, which has no integer root
    c32 = real_gen("c", (F(-3, 2), 0, 0, 1), F(11, 10), F(6, 5))
    certify_independence(NumberField((c32, SQRT2, SQRT3)))
    certify_independence(NumberField((CBRT2,)))
    certify_independence(NumberField(()))


def test_verdict_is_kept_with_the_field_tables(monkeypatch):
    field = NumberField((SQRT2, SQRT3, CBRT2))
    certify_independence(field)
    monkeypatch.setattr(exactfield, "_independence_refusal",
                        lambda gens: pytest.fail("recomputed"))
    certify_independence(field)
    certify_independence(NumberField((SQRT3, CBRT2, SQRT2)))


# ---------------------------------------------------------------------------
# refused fields, with the screen as the oracle for the dependent ones
# ---------------------------------------------------------------------------

def screen_finds(elements, height=3):
    rel = find_small_relation(elements, height=height, precision_bits=64)
    assert rel is not None
    field = elements[0].field
    combo = sum((x * c for c, x in zip(rel, elements)), field.zero())
    assert box_contains_zero(embed(combo, 64))


@pytest.mark.parametrize("spec", [SQUARE_ONE, CUBE_EIGHT, CUBE_EIGHTH],
                         ids=["x2-1", "x3-8", "x3-1/8"])
def test_refuses_a_reducible_min_poly(spec):
    err = refusal(spec)
    assert err.generator == "t"
    assert "rational" in err.reason
    f = NumberField((spec,))
    screen_finds([f.one(), f.gen("t")])


@pytest.mark.parametrize("gens, dependent, partner", [
    ((SQRT2, SQRT8), "sqrt2", "e"),
    ((SQRT2, HALF_SQRT2), "sqrt2", "h"),
    ((TWO_I,), "y", "i"),
], ids=["sqrt2-sqrt8", "sqrt2-sqrt(1/2)", "i-(x2+4)"])
def test_refuses_a_dependent_quadratic_pair(gens, dependent, partner):
    err = refusal(*gens)
    assert err.generator == dependent
    assert err.reason.endswith(f"those of {partner}")
    field = NumberField(gens)
    screen_finds([field.gen(partner), field.gen(dependent)])


def test_refuses_a_dependent_quadratic_triple():
    err = refusal(SQRT2, SQRT3, SQRT6)
    assert err.generator == "sqrt6"
    assert "sqrt2" in err.reason and "sqrt3" in err.reason
    f = NumberField((SQRT2, SQRT3, SQRT6))
    screen_finds([f.gen("sqrt2") * f.gen("sqrt3"), f.gen("sqrt6")])
    # any two of them, with i, are independent
    for pair in ((SQRT2, SQRT3), (SQRT2, SQRT6), (SQRT3, SQRT6)):
        certify_independence(NumberField(pair))


def test_refuses_two_cubics_and_a_quartic():
    # both are independent in truth; the certificate does not cover them
    err = refusal(CBRT2, CBRT3)
    assert err.generator == "r" and "coprime" in err.reason
    err = refusal(QUARTIC)
    assert err.generator == "q" and "degree 4" in err.reason


def test_refuses_an_uncertified_discriminant():
    # p^2 * q with primes p, q > 10^6: trial division cannot split it
    p, q = 1000003, 1000033
    big = real_gen("b", (-p * p * q, 0, 1), p * 1000, p * 1001)
    err = refusal(big)
    assert "not certified" in err.reason


def test_gf2_rank_needs_the_reduction():
    # sqrt2*sqrt3*sqrt5 class: 30 is in the span of 2, 3, 5 only through
    # a reduction by all three earlier vectors
    s30 = sqrt_generator_spec(30)
    gens = tuple(sqrt_generator_spec(n) for n in (2, 3, 5)) + (s30,)
    err = refusal(*gens)
    assert err.generator == "sqrt5"  # name order: sqrt2, sqrt3, sqrt30, sqrt5
    certify_independence(NumberField(gens[:3]))
    certify_independence(NumberField(tuple(sqrt_generator_spec(n) for n in (2, 15, 35))))


def test_example1_refuses_a_dependent_parameter():
    with pytest.raises(UncertifiedBasis) as info:
        example1(2, SQUARE_ONE)
    assert info.value.generator == "t"


def test_example1_refuses_a_quadratic_parameter():
    # Q(r, i, sqrt2) with r = sqrt3 is certified, yet r^2 = 3 is rational
    r_spec = GeneratorSpec("r", SQRT3.min_poly, SQRT3.root_re, SQRT3.root_im, SQRT3.conj)
    field = NumberField((r_spec,))
    field, _ = sqrt_element(field, -2)
    field, sqrt_m = sqrt_element(field, 2)
    certify_independence(field)
    r = field.gen("r")
    screen_finds([field.one(), r * sqrt_m, r * r])
    with pytest.raises(IndependenceSuspect) as info:
        example1(2, r_spec)
    assert info.value.generator == "r"
    with pytest.raises(UncertifiedBasis):
        example1(3, GeneratorSpec("r", QUARTIC.min_poly, QUARTIC.root_re,
                                  QUARTIC.root_im, QUARTIC.conj))


def test_no_construction_path_runs_the_screen(monkeypatch):
    def screen(*args, **kwargs):
        pytest.fail("find_small_relation called while building a torus")

    for mod in (exactfield, papercheck, torus, cli, endo):
        monkeypatch.setattr(mod, "find_small_relation", screen, raising=False)
    example1(3)
    example1(2, CBRT3_SPEC)
    example2(2, 3)
    scalar_cm_product(2)
    random_torus_with_sqrt_d(-5, 1)
    for path in sorted(TORI.glob("*.json")):
        parse_input(path.read_text()).realize()


# ---------------------------------------------------------------------------
# rational roots and the quartic test
# ---------------------------------------------------------------------------

def test_monic_integer_scaling():
    # D = 2: 8 (y/2)^3 - 8 * 3/2 = y^3 - 12
    assert monic_integer((F(-3, 2), F(0), F(0), F(1))) == (-12, 0, 0, 1)
    # D = 12: y^2 - 3y + 24, with the roots of x^2 - x/4 + 1/6 times 12
    assert monic_integer((F(1, 6), F(-1, 4), F(1))) == (24, -3, 1)


@seed(1998)
@settings(max_examples=80, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(roots=st.lists(st.integers(-40, 40), max_size=3),
       tail=st.tuples(st.integers(-9, 9), st.integers(1, 9)))
def test_integer_roots_of_planted_products(roots, tail):
    # prod (y - r) * (y^2 + b y + c) with c > b^2 / 4 has no other real root
    b, c0 = tail
    c = c0 + b * b
    poly = [c, b, 1]
    for r in roots:
        poly = [(poly[k - 1] if k else 0) - r * (poly[k] if k < len(poly) else 0)
                for k in range(len(poly) + 1)]
    assert integer_roots(poly) == sorted(set(roots))


def _times(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@seed(1998)
@settings(max_examples=120, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(data=st.data())
def test_quartic_irreducibility_matches_sympy(data):
    shape = data.draw(st.sampled_from(["4", "2+2", "1+3", "free-biquadratic"]))
    coeff = st.fractions(min_value=-12, max_value=12, max_denominator=4)
    if shape == "4":
        poly = [data.draw(coeff) for _ in range(4)] + [F(1)]
    elif shape == "free-biquadratic":
        poly = [data.draw(coeff), F(0), data.draw(coeff), F(0), F(1)]
    else:
        k = 2 if shape == "2+2" else 1
        a = [data.draw(coeff) for _ in range(k)] + [F(1)]
        b = [data.draw(coeff) for _ in range(4 - k)] + [F(1)]
        poly = _times(a, b)
    x = sympy.Symbol("x")
    ref = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(poly)],
                     x).factor_list()[1]
    assert endo._is_irreducible(tuple(poly)) == (len(ref) == 1 and ref[0][1] == 1)


def test_quartic_examples():
    assert endo._is_irreducible((F(2), 0, 0, 0, 1))         # x^4 + 2
    assert endo._is_irreducible((F(1), 0, 0, 0, 1))         # x^4 + 1, reducible mod every p
    assert not endo._is_irreducible((F(4), 0, 0, 0, 1))     # (x^2+2x+2)(x^2-2x+2)
    assert not endo._is_irreducible((F(1, 4), 0, 0, 0, 1))  # scaled x^4 + 4
    assert not endo._is_irreducible((F(-2), 0, F(-1), 0, 1))  # (x^2 - 2)(x^2 + 1)
    assert endo._is_irreducible((F(1), 0, F(-10), 0, 1))    # sqrt2 + sqrt3


# ---------------------------------------------------------------------------
# CLI documents
# ---------------------------------------------------------------------------

COMMANDS = ("endo", "classify", "ns", "nd", "polarize", "verify-prop", "verify-cor")


def _dependent_document(tmp_path, keep_mult):
    """random_d2_seed1 with a generator t equal to sqrt2, and + t - sqrt2 in one entry."""
    doc = json.loads((TORI / "random_d2_seed1.json").read_text())
    if not keep_mult:
        doc["multiplications"] = []
    spec = dict(next(g for g in doc["generators"] if g["name"] == "sqrt2"))
    spec["name"] = "t"
    doc["generators"].append(spec)
    doc["period"][0][0] = f"({doc['period'][0][0]}) + t - sqrt2"
    path = tmp_path / f"dependent_{keep_mult}.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("keep_mult", [False, True], ids=["no-mult", "mult"])
def test_dependent_field_document_is_refused(keep_mult, tmp_path, capsys):
    path = _dependent_document(tmp_path, keep_mult)
    for cmd in COMMANDS:
        start = time.perf_counter()
        code = run_command(["--json", cmd, str(path)])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr()
        assert code == 2, cmd
        assert out.out == ""
        assert "[UncertifiedBasis]" in out.err and "'t'" in out.err
        assert elapsed < 1, cmd


def test_dependent_field_document_is_refused_by_realize():
    doc = parse_input((TORI / "random_d2_seed1.json").read_text())
    bad = TorusDocument(doc.generators + (GeneratorSpec("t", SQRT2.min_poly, SQRT2.root_re,
                                                        SQRT2.root_im, SQRT2.conj),),
                        doc.period_exprs, doc.multiplications)
    with pytest.raises(UncertifiedBasis):
        bad.realize()


def test_oversized_period_is_an_input_error(tmp_path, capsys):
    doc = json.loads((TORI / "example1_m1.json").read_text())
    doc["period"] = [["2^4000", "2^4000+i*r", "2^4000*i", "2^4000*r+i"],
                     ["2^4000*3", "i*r*2^4000", "-i+2^3999", "r"]]
    path = tmp_path / "oversized.json"
    path.write_text(json.dumps(doc))
    for cmd in COMMANDS:
        start = time.perf_counter()
        code = run_command([cmd, str(path)])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr()
        assert code == 2, cmd
        assert "[ParseError]" in out.err and "Traceback" not in out.err
        assert elapsed < 1, cmd


def test_period_within_the_total_bound_is_built():
    doc = json.loads((TORI / "example1_m1.json").read_text())
    doc["period"][0][0] = "2^1000"  # most of the 1024 bits for the whole period
    torus, _ = parse_input(json.dumps({**doc, "multiplications": []})).realize()
    assert torus.period.entries[0, 0] == 2 ** 1000
    doc["period"][1][3] = "2^100*r"  # each entry within MAX_VALUE_BITS, the sum is not
    with pytest.raises(cli.ParseError):
        parse_input(json.dumps(doc))


def test_commands_on_a_period_at_the_total_bound_print_exactly(tmp_path, capsys):
    doc = json.loads((TORI / "example1_m1.json").read_text())
    doc["multiplications"] = []
    rng = random.Random(15)
    p, q = (rng.getrandbits(504) | 1 << 504 for _ in range(2))
    doc["period"][0][2] = f"1/({p} + {q}*i)"  # denominator p^2 + q^2, 1009 bits
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(doc))
    document = parse_input(path.read_text())
    field = document.parsed()[0]
    period_bits = sum(cli._bits(cli.parse_expression(e, field))
                      for row in document.period_exprs for e in row)
    assert 1000 < period_bits <= cli.MAX_PERIOD_BITS
    for cmd in ("ns", "polarize", "verify-cor"):
        assert run_command([cmd, str(path), "--json"]) == 0, cmd
        out = capsys.readouterr().out
        digits = max(map(len, re.findall(r"\d+", out)))
        if cmd == "ns":  # the largest growth measured: five times the period's bits
            assert digits * math.log2(10) > 4.5 * period_bits
        assert digits < 4300


def test_sqrt_element_fields_are_certified_until_a_product_is_adjoined():
    f = NumberField(())
    for n in (2, -3, 5, -7, 8, 12):
        f, _ = sqrt_element(f, n)
    assert f.gen_names() == ("i", "sqrt2", "sqrt3", "sqrt5", "sqrt7")
    certify_independence(f)
    f, _ = sqrt_element(f, 6)
    with pytest.raises(UncertifiedBasis) as info:
        certify_independence(f)
    assert info.value.generator == "sqrt6"
