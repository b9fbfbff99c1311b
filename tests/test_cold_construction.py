"""Cold torus construction: one elimination, one validation, integer bisection and tables.

`build_torus` takes det C and Pi^+ from one Gauss-Jordan pass over the
real coordinate matrix C; det C must equal det P / 4 by `Mat.det`,
[Pi^+ | conj Pi^+] must equal `Mat.inv` of P, and the J it gives the
oracle's P^-1 diag(i, i, -i, -i) P.  Root bisection on
integers must return the endpoints the Fraction bisection in
oracle_helpers returns, and the integer product table the table built
from Fraction power rows.  A
generator spec is validated once per object, and a bad one raises on
every use.  These checks hold without asserts in the library, so they
also run under python -O.
"""

import os
import subprocess
import sys
from fractions import Fraction as F
from math import prod
from pathlib import Path

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from toruslab import exactfield
from toruslab.cli import parse_input
from toruslab.errors import DegenerateLattice, ValidationError
from toruslab.exactfield import (
    CONJ_IMAG,
    CONJ_REAL,
    GeneratorSpec,
    NumberField,
    _count_real_roots,
    _FieldData,
    _poly_eval,
    _refine_real_root,
    sqrt_generator_spec,
)
from toruslab.linalg import Mat
from toruslab.papercheck import random_torus_with_sqrt_d
from toruslab.torus import PeriodMatrix, build_torus

from conftest import TORI
from oracle_helpers import (
    big_period_matrix,
    complex_structure,
    field_table_fractions,
    refine_real_root_fractions,
)

D_VALUES = (2, 3, 5, -1, -2, -5)


def _bundled_and_random_tori():
    tori = [parse_input(p.read_text()).realize()[0] for p in sorted(TORI.glob("*.json"))]
    tori += [random_torus_with_sqrt_d(d, 21)[0] for d in D_VALUES]
    assert len(tori) == 14
    return tori


def test_one_elimination_gives_det_inverse_and_complex_structure():
    for t in _bundled_and_random_tori():
        p = big_period_matrix(t)
        det, inv = p.det_and_inverse()
        assert det == p.det() and inv == p.inv()
        p_inv = Mat(tuple(r + tuple(x.conjugate() for x in r) for r in t.pi_plus.rows))
        assert p_inv == p.inv()
        assert t.real_det * 4 == p.det()
        i = t.field.i()
        assert p_inv @ Mat.diagonal([i, i, -i, -i]) @ p == complex_structure(t)


def test_singular_big_period_matrix_is_refused():
    f = NumberField(())
    one, zero, i = f.one(), f.zero(), f.i()
    # the third column is the first: det P = 0
    pi = Mat.from_rows([[one, i, one, zero], [zero, one, zero, i]])
    assert Mat(pi.rows + pi.conj().rows).det_and_inverse() == (zero, None)
    with pytest.raises(DegenerateLattice, match="big period matrix is singular"):
        build_torus(PeriodMatrix(pi))


@st.composite
def isolated_roots(draw):
    """(poly, lo, hi): one root of a rational poly in a box with non-dyadic endpoints.

    The unperturbed poly is a scaled product of x - k/3 over distinct k,
    so its roots are 1/3 apart; the box reaches 1/7 below the first root
    and 1/5 or 1/7 above it, and a perturbation below 10^-7 keeps exactly
    one root inside.  With no perturbation a symmetric box puts the root
    on the first midpoint.
    """
    ks = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=5, unique=True))
    scale = draw(st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(bool))
    eps = F(draw(st.integers(-99, 99)), 10 ** 9)
    poly = [F(1)]
    for k in ks:
        root = F(k, 3)
        poly = [(poly[j - 1] if j else 0) - root * (poly[j] if j < len(poly) else 0)
                for j in range(len(poly) + 1)]
    poly = [scale * (c + (eps if j == 0 else 0)) for j, c in enumerate(poly)]
    r0 = F(ks[0], 3)
    lo, hi = r0 - F(1, 7), r0 + draw(st.sampled_from((F(1, 5), F(1, 7))))
    assume(_poly_eval(poly, lo) * _poly_eval(poly, hi) < 0)
    assume(_count_real_roots(poly, lo, hi) == 1)
    return tuple(poly), lo, hi


@seed(2101)
@settings(max_examples=120, deadline=None)
@given(isolated_roots(), st.integers(8, 200))
def test_integer_bisection_matches_the_fraction_oracle(case, bits):
    poly, lo, hi = case
    width = F(1, 2 ** bits)
    got = _refine_real_root(poly, lo, hi, width)
    assert got == refine_real_root_fractions(poly, lo, hi, width)
    assert got[1] - got[0] <= width


def test_integer_bisection_hits_a_rational_root_on_a_midpoint():
    poly = (F(-4, 9), F(0), F(1))  # root 2/3, the midpoint of the box
    lo, hi = F(2, 3) - F(1, 7), F(2, 3) + F(1, 7)
    assert _refine_real_root(poly, lo, hi, F(1, 2 ** 40)) == (F(2, 3), F(2, 3))
    assert refine_real_root_fractions(poly, lo, hi, F(1, 2 ** 40)) == (F(2, 3), F(2, 3))


@pytest.mark.parametrize("bits", [1, 8, 64, 200])
def test_integer_bisection_stops_at_a_width_equal_to_the_target(bits):
    """A box of width 1 halves to exactly 2^-bits, which is narrow enough."""
    poly = (F(-2), F(0), F(1))
    got = _refine_real_root(poly, F(1), F(2), F(1, 2 ** bits))
    assert got == refine_real_root_fractions(poly, F(1), F(2), F(1, 2 ** bits))
    assert got[1] - got[0] == F(1, 2 ** bits)


_positive = st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9)
_any = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def generator_specs(draw, name, cubic):
    """A valid spec: a real or imaginary quadratic, or a cubic with one real root."""
    if cubic:
        # x^3 + r x + q, r >= 0 and q < 0: increasing, one positive root
        r, q = draw(_positive) - F(1, 9), -draw(_positive)
        return GeneratorSpec(name, (q, r, F(0), F(1)), (F(0), 1 + r - q), (F(0), F(0)),
                             CONJ_REAL)
    kind = draw(st.sampled_from(("real", "shifted", "imaginary")))
    a = draw(_positive)
    if kind == "imaginary":  # x^2 + a, root i sqrt(a)
        return GeneratorSpec(name, (a, F(0), F(1)), (F(0), F(0)), (F(0), a + 1), CONJ_IMAG)
    p = draw(_any) if kind == "shifted" else F(0)
    # x^2 + p x - a: roots of opposite signs, the positive one below 1 + |p| + a
    return GeneratorSpec(name, (-a, p, F(1)), (F(0), 1 + abs(p) + a), (F(0), F(0)), CONJ_REAL)


@st.composite
def tensor_fields(draw):
    """Fields of degree up to 32 over i: up to four quadratics, or a cubic and up to two."""
    cubic = draw(st.booleans())
    count = draw(st.integers(0, 2 if cubic else 4))
    specs = [draw(generator_specs(f"g{k}", cubic=False)) for k in range(count)]
    if cubic:
        specs.append(draw(generator_specs("c", cubic=True)))
    return NumberField(tuple(specs))


@seed(2102)
@settings(max_examples=30, deadline=None)
@given(tensor_fields())
def test_integer_table_matches_the_fraction_oracle(field):
    assert prod(g.degree for g in field.generators) <= 32
    data = _FieldData(field)
    assert (data.table, data.table_den) == field_table_fractions(field)


def test_integer_table_of_a_cubic_with_non_integral_coefficients():
    cubic = GeneratorSpec("c", (F(-2, 3), F(1, 2), F(0), F(1)), (F(0), F(1)),
                          (F(0), F(0)), CONJ_REAL)
    field = NumberField((cubic, sqrt_generator_spec(2), sqrt_generator_spec(3)))
    data = _FieldData(field)
    assert data.size == 24 and data.table_den > 1
    assert (data.table, data.table_den) == field_table_fractions(field)


def test_each_generator_spec_is_validated_once(monkeypatch):
    NumberField(())  # i is validated here, once per process
    monkeypatch.setattr(exactfield, "_SQRT_SPEC_CACHE", {})  # new, unchecked specs
    checked = []
    check = GeneratorSpec._check
    monkeypatch.setattr(GeneratorSpec, "_check", lambda self: checked.append(self) or check(self))
    s2, s3, s5 = (sqrt_generator_spec(n) for n in (2, 3, 5))
    field = NumberField((s2,))
    field.extended((s3,))
    NumberField((s3, s2)).extended((s5,))
    assert len(checked) == 3 and all(a is b for a, b in zip(checked, (s2, s3, s5)))

    bad = GeneratorSpec("b", (F(-2), F(0), F(1)), (F(2), F(3)), (F(0), F(0)), CONJ_REAL)
    for _ in range(3):
        with pytest.raises(ValidationError, match="does not change sign"):
            NumberField((bad,))
    with pytest.raises(ValidationError):
        field.extended((bad,))
    assert checked[3:] == [bad] * 4


_FIRST_PROP_SWEEP_BLOCK = """
import random
from toruslab.exactfield import GeneratorSpec
from toruslab.papercheck import random_torus_with_sqrt_d
checked = []
check = GeneratorSpec._check
GeneratorSpec._check = lambda self: checked.append(self.name) or check(self)
rng = random.Random("prop-sweep/1/0")
for d in (2, -2, 3, -5, 5, -1):
    random_torus_with_sqrt_d(d, rng.randint(1, 10 ** 6))
print(*checked)
"""


def test_a_fresh_process_checks_each_square_root_once():
    """The six tori of the first prop-sweep block share one spec per radicand.

    They adjoin sqrt2, sqrt3 or sqrt5 eleven times in all; with a new spec
    object on every call, each of those was checked again.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    opt = ["-" + "O" * sys.flags.optimize] if sys.flags.optimize else []
    r = subprocess.run([sys.executable, *opt, "-c", _FIRST_PROP_SWEEP_BLOCK],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["i", "sqrt2", "sqrt3", "sqrt5"]
