from fractions import Fraction as F

import pytest
import sympy
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from toruslab import exactfield
from toruslab.errors import (
    DivisionByZero,
    NotInvertible,
    NotReal,
    ValidationError,
)
from toruslab.exactfield import (
    CONJ_IMAG,
    CONJ_REAL,
    ComplexBox,
    FieldElement,
    GeneratorSpec,
    NumberField,
    embed,
    exact_sign,
    is_perfect_square,
    sqrt_element,
    squarefree_decomposition,
    union_field,
)
from toruslab.cli import parse_input
from toruslab.endo import _real_root_count
from conftest import TORI
from oracle_helpers import (
    bisection_enclosure,
    box_contains,
    box_contains_zero,
    box_width,
    boxes_overlap,
    field_element,
    find_small_relation,
    monomial_exponents,
    real_part,
)

CBRT2 = GeneratorSpec("r", (F(-2), F(0), F(0), F(1)),
                      (F(5, 4), F(63, 50)), (F(0), F(0)), CONJ_REAL)
SQRTM2 = GeneratorSpec("s", (F(2), F(0), F(1)),
                       (F(0), F(0)), (F(1), F(2)), CONJ_IMAG)


@pytest.fixture(scope="module")
def qi():
    return NumberField(())


@pytest.fixture(scope="module")
def qi_sqrt2(qi):
    f, _ = sqrt_element(qi, 2)
    return f


def elements(field, max_num=9, max_den=9):
    coeff = st.fractions(min_value=-max_num, max_value=max_num,
                         max_denominator=max_den)
    n = field.degree
    return st.tuples(*[coeff] * n).map(lambda c: FieldElement(field, tuple(c)))


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_sqrt2_squares_to_two(qi_sqrt2):
    s = qi_sqrt2.gen("sqrt2")
    assert s * s == 2


def test_i_times_declared_sqrt_minus_two():
    f = NumberField((SQRTM2,))
    i, s = f.i(), f.gen("s")
    prod = i * s
    assert prod == field_element(f, {(1, 1): F(1)})     # the monomial i*s itself
    assert prod * prod == 2                      # (-1) * (-2)
    # brute-force: both sides embed into overlapping 50-bit boxes
    assert boxes_overlap(embed(prod * prod, 50), embed(f.rational(2), 50))


def test_division_identity(qi):
    one_plus_i = qi.one() + qi.i()
    assert one_plus_i / one_plus_i == 1


def test_division_by_zero(qi):
    with pytest.raises(DivisionByZero):
        qi.one() / qi.zero()


def test_zero_divisor_raises_not_invertible():
    # declaring a second square root of -1 creates (s - i)(s + i) = 0
    bogus = GeneratorSpec("s", (F(1), F(0), F(1)),
                          (F(0), F(0)), (F(1), F(1)), CONJ_IMAG)
    f = NumberField((bogus,))
    s, i = f.gen("s"), f.i()
    assert (s - i) * (s + i) == 0
    with pytest.raises(NotInvertible):
        f.one() / (s - i)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_conjugation_is_a_ring_automorphism(qi_sqrt2, data):
    a = data.draw(elements(qi_sqrt2))
    b = data.draw(elements(qi_sqrt2))
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert a.conjugate().conjugate() == a


def test_conjugate_examples(qi, qi_sqrt2):
    assert qi.i().conjugate() == -qi.i()
    s = qi_sqrt2.gen("sqrt2")
    assert s.conjugate() == s
    x = qi_sqrt2.one() + qi_sqrt2.i() * s
    assert x.conjugate().conjugate() == x


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_division_roundtrip(qi_sqrt2, data):
    a = data.draw(elements(qi_sqrt2))
    b = data.draw(elements(qi_sqrt2))
    if b.is_zero():
        return
    assert (a * b) / b == a


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def test_embed_rational(qi):
    box = embed(qi.rational(F(1, 2)), 16)
    assert box.re_lo <= F(1, 2) <= box.re_hi
    assert box.im_lo == box.im_hi == 0


def test_embed_cube_root_against_bisection_oracle():
    f = NumberField((CBRT2,))
    box = embed(f.gen("r"), 64)
    lo, hi = bisection_enclosure(CBRT2.min_poly, F(5, 4), F(63, 50),
                                 F(1, 2 ** 70))
    assert box_width(box) <= F(1, 2 ** 60)
    assert box.re_lo <= hi and lo <= box.re_hi   # enclosures overlap


def test_embed_reduces_before_evaluating(qi):
    box = embed(qi.i() * qi.i(), 16)
    assert (box.re_lo, box.re_hi, box.im_lo, box.im_hi) == (-1, -1, 0, 0)


def test_embed_box_independent_of_call_order(qi_sqrt2, monkeypatch):
    # embed(a, p) depends only on (a, p): a finer request made earlier
    # must not leak into a coarser one
    i, s = qi_sqrt2.i(), qi_sqrt2.gen("sqrt2")
    a, b = i * s, i - i * s
    monkeypatch.setattr(exactfield, "_BOX_CACHE", {})
    cold = embed(a, 32)
    monkeypatch.setattr(exactfield, "_BOX_CACHE", {})
    embed(a, 512)
    assert embed(a, 32) == cold
    assert box_width(cold) <= F(1, 2 ** 40)
    # the product pair whose containment broke once a 512-bit box was cached
    assert box_contains(embed(a, 32).mul(embed(b, 32)), embed(a * b, 512))


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_embed_soundness_for_products(qi_sqrt2, data):
    # the interval product of two enclosures must enclose a much tighter
    # certified enclosure of the exact product
    a = data.draw(elements(qi_sqrt2, max_num=4, max_den=4))
    b = data.draw(elements(qi_sqrt2, max_num=4, max_den=4))
    big = embed(a, 32).mul(embed(b, 32))
    small = embed(a * b, 512)
    assert box_contains(big, small)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_embed_soundness_for_sums(qi_sqrt2, data):
    a = data.draw(elements(qi_sqrt2, max_num=4, max_den=4))
    b = data.draw(elements(qi_sqrt2, max_num=4, max_den=4))
    big = embed(a, 32).add(embed(b, 32))
    small = embed(a + b, 512)
    assert box_contains(big, small)


# ---------------------------------------------------------------------------
# signs
# ---------------------------------------------------------------------------

def test_exact_sign_examples(qi_sqrt2):
    s = qi_sqrt2.gen("sqrt2")
    assert exact_sign(qi_sqrt2.zero()) == 0
    assert exact_sign(s - 1) == 1
    assert exact_sign(1 - s) == -1


def test_exact_sign_requires_real(qi):
    with pytest.raises(NotReal):
        exact_sign(qi.i())


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_exact_sign_zero_iff_zero_coeffs(qi_sqrt2, data):
    a = data.draw(elements(qi_sqrt2, max_num=5, max_den=5))
    real = real_part(a)
    assert (exact_sign(real) == 0) == real.is_zero()


# ---------------------------------------------------------------------------
# generator validation
# ---------------------------------------------------------------------------

def test_non_monic_rejected():
    with pytest.raises(ValidationError):
        NumberField((GeneratorSpec("x", (F(1), F(0), F(2)),
                                   (F(0), F(1)), (F(0), F(0)), CONJ_REAL),))


def test_no_sign_change_rejected():
    with pytest.raises(ValidationError):
        NumberField((GeneratorSpec("x", (F(-2), F(0), F(1)),
                                   (F(2), F(3)), (F(0), F(0)), CONJ_REAL),))


def test_two_roots_in_box_rejected():
    # x^2 - 2 over [-2, 2] contains both roots and no endpoint sign change
    with pytest.raises(ValidationError):
        NumberField((GeneratorSpec("x", (F(-2), F(0), F(1)),
                                   (F(-2), F(2)), (F(0), F(0)), CONJ_REAL),))


def test_odd_min_poly_cannot_be_imaginary():
    with pytest.raises(ValidationError):
        NumberField((GeneratorSpec("x", (F(1), F(1), F(0), F(1)),
                                   (F(0), F(0)), (F(1), F(2)), CONJ_IMAG),))


def test_reserved_name_i():
    with pytest.raises(ValidationError):
        NumberField((GeneratorSpec("i", (F(2), F(0), F(1)),
                                   (F(0), F(0)), (F(1), F(2)), CONJ_IMAG),))


def test_union_field_merges_generators(qi, qi_sqrt2):
    f3, _ = sqrt_element(qi, 3)
    u = union_field(qi_sqrt2, f3)
    assert u.gen_names() == ("i", "sqrt2", "sqrt3")
    x = qi_sqrt2.gen("sqrt2") + f3.gen("sqrt3")
    assert x.field == u


# ---------------------------------------------------------------------------
# independence screen
# ---------------------------------------------------------------------------

def test_multiquadratic_monomials_pass_screen():
    f = NumberField(())
    for n in (2, 3):
        f, _ = sqrt_element(f, n)
    monomials = [field_element(f, {e: F(1)}) for e in monomial_exponents(f)]
    assert find_small_relation(monomials, height=2, precision_bits=128) is None


def test_screen_finds_planted_relation():
    fake = GeneratorSpec("t", (F(-1), F(0), F(1)),
                         (F(1, 2), F(3, 2)), (F(0), F(0)), CONJ_REAL)
    f = NumberField((fake,))
    t = f.gen("t")
    rel = find_small_relation([f.one(), t, t * t], height=3, precision_bits=64)
    assert rel is not None
    combo = sum((f.rational(c) * x for c, x in zip(rel, [f.one(), t, t * t])),
                f.zero())
    assert box_contains_zero(embed(combo, 64))


def test_squarefree_decomposition():
    assert squarefree_decomposition(1) == (1, 1, True)
    assert squarefree_decomposition(8) == (2, 2, True)
    assert squarefree_decomposition(45) == (3, 5, True)
    k, n0, cert = squarefree_decomposition(360)
    assert k * k * n0 == 360 and n0 == 10 and cert


def test_multiquadratic_height_ten_screen():
    # a relation would have to kill the real and the purely imaginary
    # monomial groups separately, so screening the groups at height 10
    # is the full height-10 screen of the basis
    f = NumberField(())
    for n in (2, 3):
        f, _ = sqrt_element(f, n)
    real, imag = [], []
    for exp, mono in zip(monomial_exponents(f),
                         [field_element(f, {e: F(1)}) for e in monomial_exponents(f)]):
        (imag if not mono.is_real() else real).append(mono)
    assert len(real) == len(imag) == 4
    assert find_small_relation(real, height=10, precision_bits=128) is None
    assert find_small_relation(imag, height=10, precision_bits=128) is None


def test_squarefree_decomposition_beyond_trial_division():
    # cofactors above the trial-division limit go through the integer
    # square root
    p, q = 1000003, 1000033
    assert squarefree_decomposition(2 * p * p) == (p, 2, True)
    assert squarefree_decomposition(p * q) == (1, p * q, False)
    assert is_perfect_square(p * p) and not is_perfect_square(p * q)
    assert not is_perfect_square(-4)


# ---------------------------------------------------------------------------
# real roots: Sturm count and bisection
# ---------------------------------------------------------------------------

def _poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


_q = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_factor = st.tuples(st.lists(_q, min_size=1, max_size=2),
                    _q.filter(lambda c: c != 0),
                    st.integers(min_value=1, max_value=3))


@seed(1998)
@settings(max_examples=200, deadline=None)
@given(st.lists(_factor, min_size=1, max_size=3), _q, _q)
def test_count_real_roots_matches_sympy(factors, a, b):
    # products of linear and quadratic factors, some repeated
    p = [F(1)]
    for low, lead, mult in factors:
        for _ in range(mult):
            p = _poly_mul(p, low + [lead])
    lo, hi = min(a, b), max(a, b)
    assume(lo < hi)
    assume(exactfield._poly_eval(p, lo) != 0 and exactfield._poly_eval(p, hi) != 0)
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p)], sympy.Symbol("x"))
    assert exactfield._count_real_roots(p, lo, hi) == poly.count_roots(
        sympy.Rational(lo.numerator, lo.denominator),
        sympy.Rational(hi.numerator, hi.denominator))
    monic = [c / p[-1] for c in p]
    assert _real_root_count(monic) == poly.count_roots()


@pytest.mark.parametrize("bits", [40, 1032])
def test_refine_real_root_on_bundled_generators(bits):
    target = F(1, 2 ** bits)
    specs = {g for path in sorted(TORI.glob("*.json"))
             for g in parse_input(path.read_text()).generators}
    assert specs
    for spec in specs:
        q = spec.axis_poly()
        box_lo, box_hi = spec.axis_interval()
        lo, hi = exactfield._refine_real_root(q, box_lo, box_hi, target)
        assert box_lo <= lo < hi <= box_hi
        assert hi - lo <= target
        assert exactfield._poly_eval(q, lo) * exactfield._poly_eval(q, hi) < 0


def test_equal_elements_hash_equal_across_fields_and_numbers():
    from toruslab.linalg import Mat

    q = NumberField(())
    big = NumberField((CBRT2, SQRTM2))
    assert {q.rational(3), 3} == {3}
    assert len({q.rational(3), big.rational(3), 3, F(3)}) == 1
    assert len({q.rational(F(-5, 6)), F(-5, 6), big.rational(F(-5, 6))}) == 1
    lookup = {3: "int", F(1, 2): "half"}
    assert lookup[q.rational(3)] == "int"
    assert lookup[big.rational(F(1, 2))] == "half"
    x = q.i() * F(2, 3) + 1
    y = x.in_field(big)
    assert x == y and hash(x) == hash(y)
    assert {x: 1}[y] == 1
    z = big.gen("r") ** 2 / 7 + big.gen("s") * big.i()
    assert z == z.in_field(NumberField((SQRTM2, CBRT2)))
    assert len({z, z.in_field(NumberField((SQRTM2, CBRT2)))}) == 1
    assert x != z and len({x, y, z}) == 2
    assert Mat.identity(q, 2) == Mat.identity(big, 2)
    assert hash(Mat.identity(q, 2)) == hash(Mat.identity(big, 2))
    assert len({Mat.identity(q, 2), Mat.identity(big, 2)}) == 1
