"""The integer-numerator element layout against a Fraction reference.

Products are checked against a schoolbook product of the coefficient
vectors, reduced modulo each generator's minimal polynomial in Fraction
arithmetic, so the integer multiplication table is never consulted by
the reference.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import Phase, assume, given, seed, settings
from hypothesis import strategies as st

from toruslab import exactfield
from toruslab.exactfield import (
    CONJ_IMAG,
    CONJ_REAL,
    FieldElement,
    GeneratorSpec,
    NumberField,
    dot,
    embed,
    sqrt_element,
)
from toruslab.papercheck import random_torus_with_sqrt_d

from oracle_helpers import embed_per_call, monomial_exponents, real_part

SQRT2 = exactfield.sqrt_generator_spec(2)
# i*sqrt(3), a purely imaginary generator: conjugation negates it
ISQRT3 = GeneratorSpec("s", (F(3), F(0), F(1)), (F(0), F(0)), (F(1), F(2)), CONJ_IMAG)
# x^3 - 3/2 is monic but not integral, so the table needs a denominator
CBRT_3_2 = GeneratorSpec("c", (F(-3, 2), F(0), F(0), F(1)),
                         (F(11, 10), F(6, 5)), (F(0), F(0)), CONJ_REAL)

DEG8 = NumberField((SQRT2, ISQRT3))
DEG12 = NumberField((SQRT2, CBRT_3_2))
# proper subfields, for operands that must first meet in the larger field
SUB8 = NumberField((SQRT2,))
SUB12 = NumberField((CBRT_3_2,))


def ref_mul(field, a, b):
    """Schoolbook product of coefficient tuples, reduced generator by generator."""
    exps = monomial_exponents(field)
    prod = {}
    for ea, ca in zip(exps, a):
        for eb, cb in zip(exps, b):
            if ca and cb:
                e = tuple(x + y for x, y in zip(ea, eb))
                prod[e] = prod.get(e, F(0)) + ca * cb
    for j, g in enumerate(field.generators):
        d, p = g.degree, g.min_poly
        # x^top = -x^(top-d) * (p_0 + ... + p_(d-1) x^(d-1)), highest first
        for top in range(2 * d - 2, d - 1, -1):
            for e in [e for e in prod if e[j] == top]:
                c = prod.pop(e)
                for k in range(d):
                    e2 = e[:j] + (top - d + k,) + e[j + 1:]
                    prod[e2] = prod.get(e2, F(0)) - c * p[k]
    index = {e: k for k, e in enumerate(exps)}
    out = [F(0)] * len(exps)
    for e, c in prod.items():
        out[index[e]] += c
    return tuple(out)


def ref_conj(field, a):
    imag = [j for j, g in enumerate(field.generators) if g.conj == CONJ_IMAG]
    return tuple(-c if sum(e[j] for j in imag) % 2 else c
                 for e, c in zip(monomial_exponents(field), a))


def coeff_vectors(field):
    q = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    return st.tuples(*[q] * field.degree)


def check_layout(x):
    assert x.den > 0
    assert all(isinstance(v, int) for v in x.num)
    assert math.gcd(x.den, *x.num) == 1


def test_fields_under_test():
    assert DEG8.degree == 8 and DEG12.degree == 12
    assert exactfield._field_data(DEG8).table_den == 1
    assert exactfield._field_data(DEG12).table_den == 2


@pytest.mark.parametrize("field", [DEG8, DEG12], ids=["deg8", "deg12"])
@seed(1998)
# no shrinking: each example costs milliseconds, and shrinking 24 drawn
# fractions would take minutes before a failure is reported
@settings(max_examples=40, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(data=st.data())
def test_arithmetic_matches_fraction_reference(field, data):
    ca = data.draw(coeff_vectors(field))
    cb = data.draw(coeff_vectors(field))
    a, b = FieldElement(field, ca), FieldElement(field, cb)
    assert a.coeffs == ca and b.coeffs == cb
    prod = a * b
    results = {
        "mul": (prod, ref_mul(field, ca, cb)),
        "add": (a + b, tuple(x + y for x, y in zip(ca, cb))),
        "sub": (a - b, tuple(x - y for x, y in zip(ca, cb))),
        "neg": (-a, tuple(-x for x in ca)),
        "conj": (a.conjugate(), ref_conj(field, ca)),
        "scale": (a * F(-3, 4), tuple(x * F(-3, 4) for x in ca)),
    }
    for name, (got, want) in results.items():
        check_layout(got)
        assert got.coeffs == want, name
    # equal elements reached by different routes: equal layout and hash
    for x, y in ((prod, b * a), (a, (a + b) - b), (prod, FieldElement(field, prod.coeffs))):
        assert x == y and x.num == y.num and x.den == y.den
        assert hash(x) == hash(y)
    assume(any(cb))
    quot = a / b
    check_layout(quot)
    assert ref_mul(field, quot.coeffs, cb) == ca
    assert (1 / b) * b == 1


def test_zero_and_rationals_are_normalized():
    z = FieldElement(DEG12, [F(0)] * 12)
    assert z.num == (0,) * 12 and z.den == 1
    half = DEG12.rational(F(-1, 2))
    assert half.num[0] == -1 and half.den == 2 and half.rational_value() == F(-1, 2)
    assert DEG12.gen("c") ** 3 == F(3, 2)
    assert half * 2 == -1 and (half * 2).den == 1


def test_caches_stay_bounded_and_embed_survives_eviction(monkeypatch):
    cap = exactfield.CACHE_SIZE
    monkeypatch.setattr(exactfield, "_BOX_CACHE", {})
    monkeypatch.setattr(exactfield, "_FIELD_DATA_CACHE", {})
    for d in (2, 3, 5, -1, -2, -5):
        for s in range(1, 21):
            torus, _ = random_torus_with_sqrt_d(d, s)
            embed(torus.J[0, 0], 64)
            assert len(exactfield._BOX_CACHE) <= cap
            assert len(exactfield._FIELD_DATA_CACHE) <= cap

    field, root = sqrt_element(NumberField(()), 2)
    a = root * 3 + field.i() * F(1, 7) - 1
    before = [embed(a, p) for p in (16, 64)]
    # every precision adds one box per generator of a: well past the cap
    for p in range(8, 8 + cap):
        embed(a, p)
    assert len(exactfield._BOX_CACHE) == cap
    assert (SQRT2, F(1, 1 << 24)) not in exactfield._BOX_CACHE
    assert [embed(a, p) for p in (16, 64)] == before

    # fresh fields push the field's data out; an equal new field rebuilds it
    for k in range(cap + 1):
        NumberField((GeneratorSpec(f"t{k}", (F(-2), F(0), F(1)),
                                   (F(1), F(2)), (F(0), F(0)), CONJ_REAL),)).degree
    assert len(exactfield._FIELD_DATA_CACHE) == cap
    assert field not in exactfield._FIELD_DATA_CACHE
    again = FieldElement(NumberField(field.generators), a.coeffs)
    assert again * again == a * a
    assert [embed(again, p) for p in (16, 64)] == before


def lift(sub, field, coeffs):
    """Coefficients of a subfield element over the larger field's monomials."""
    names, sub_names = field.gen_names(), sub.gen_names()
    by_exp = {tuple(e[sub_names.index(n)] if n in sub_names else 0 for n in names): c
              for e, c in zip(monomial_exponents(sub), coeffs)}
    return tuple(by_exp.get(e, F(0)) for e in monomial_exponents(field))


def draw_operand(data, field, sub):
    """A nonzero or zero element of the field or of its subfield, with its lifted coefficients."""
    kind = data.draw(st.sampled_from(["field", "sub", "zero"]))
    if kind == "zero":
        return field.zero(), (F(0),) * field.degree
    home = field if kind == "field" else sub
    coeffs = data.draw(coeff_vectors(home))
    return FieldElement(home, coeffs), lift(home, field, coeffs)


@pytest.mark.parametrize("conj_y", [False, True], ids=["plain", "conj"])
@pytest.mark.parametrize("field, sub", [(DEG8, SUB8), (DEG12, SUB12)], ids=["deg8", "deg12"])
@seed(1998)
@settings(max_examples=25, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(data=st.data())
def test_dot_matches_fraction_reference(field, sub, conj_y, data):
    # the first operand lives in the larger field, so that is the result's field
    first = data.draw(coeff_vectors(field))
    xs, ys = [FieldElement(field, first)], []
    want = [F(0)] * field.degree
    x_coeffs = [first]
    for k in range(data.draw(st.integers(min_value=1, max_value=3))):
        if k:
            x, cx = draw_operand(data, field, sub)
            xs.append(x)
            x_coeffs.append(cx)
        y, cy = draw_operand(data, field, sub)
        ys.append(y)
        prod = ref_mul(field, x_coeffs[k], ref_conj(field, cy) if conj_y else cy)
        want = [w + p for w, p in zip(want, prod)]
    got = dot(xs, ys, conj_y=conj_y)
    check_layout(got)
    assert got.field == field
    assert got.coeffs == tuple(want)


@pytest.mark.parametrize("field", [DEG8, DEG12], ids=["deg8", "deg12"])
@seed(1998)
@settings(max_examples=40, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(data=st.data())
def test_imag_part_matches_fraction_reference(field, data):
    ca = data.draw(coeff_vectors(field))
    names = field.gen_names()
    # (x - conj(x)) / (2i) = (x - conj(x)) * (-i/2), multiplied out schoolbook
    minus_half_i = tuple(F(-1, 2) if e == tuple(int(n == "i") for n in names) else F(0)
                         for e in monomial_exponents(field))
    diff = tuple(x - y for x, y in zip(ca, ref_conj(field, ca)))
    want = ref_mul(field, diff, minus_half_i)
    got = FieldElement(field, ca).imag_part()
    check_layout(got)
    assert got.coeffs == want
    assert ref_conj(field, want) == want


def test_imag_part_of_real_and_zero_elements():
    for field in (DEG8, DEG12):
        real = real_part(FieldElement(field, [F(k, 3) for k in range(field.degree)]))
        for x in (real, field.zero(), field.rational(F(-5, 2))):
            got = x.imag_part()
            assert got.is_zero() and got.num == (0,) * field.degree and got.den == 1
    assert (DEG8.i() * F(3, 4) - 1).imag_part() == F(3, 4)


def embed_samples():
    field, root = sqrt_element(NumberField(()), 2)
    samples = [root * 3 + field.i() * F(1, 7) - 1]
    for f in (DEG8, DEG12):
        for k in range(3):
            samples.append(FieldElement(f, [F((7 * j + k) % 11 - 5, 1 + (j + k) % 4)
                                            for j in range(f.degree)]))
    samples.append(FieldElement(DEG12, [F(0)] * 11 + [F(-9, 8)]))
    torus, _ = random_torus_with_sqrt_d(-5, 1)
    samples += [torus.J[r, c] for r in range(4) for c in range(4)]
    return samples


def test_embed_cache_matches_per_call_construction(monkeypatch):
    samples = embed_samples()
    cap = 8
    monkeypatch.setattr(exactfield, "CACHE_SIZE", cap)
    for p in (32, 64, 128, 512):
        monkeypatch.setattr(exactfield, "_BOX_CACHE", {})
        want = [embed_per_call(a, p) for a in samples]
        keys = {(a.field, F(1, 1 << (p + 8))) for a in samples}
        assert len(keys) <= cap
        # cold: the entries start empty and fill monomial by monomial
        monkeypatch.setattr(exactfield, "_BOX_CACHE", {})
        monkeypatch.setattr(exactfield, "_MONOMIAL_BOX_CACHE", {})
        assert [embed(a, p) for a in samples] == want, ("cold", p)
        assert keys == set(exactfield._MONOMIAL_BOX_CACHE)
        # warm: every monomial these samples use is cached
        assert [embed(a, p) for a in samples] == want, ("warm", p)
        # evicted: cap entries at other widths push all of them out
        for q in range(600, 600 + cap):
            embed(samples[0], q)
        assert len(exactfield._MONOMIAL_BOX_CACHE) == cap
        assert not keys & set(exactfield._MONOMIAL_BOX_CACHE)
        assert [embed(a, p) for a in samples] == want, ("evicted", p)
