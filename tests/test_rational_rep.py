"""The rational representation: A Pi = Pi R, crossed in one place.

P^-1 = [Pi^+ | conj Pi^+], so torus.lattice_action reads the lattice
action of an analytic A as X + conj X with X = Pi^+ A Pi.  These tests
compare it with the block formula P^-1 diag(A, conj A) P, pin
complete_to_unimodular to the construction through a Fraction inverse,
and check that analytic_rep and attach_multiplication refuse a matrix
that is not an endomorphism.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from conftest import TORI
from oracle_helpers import big_period_matrix, complex_structure, field_element, monomial_exponents
from toruslab.cli import parse_input
from toruslab.endo import compute_endo_ring
from toruslab.errors import InvariantViolation, NotAnEndomorphism
from toruslab.exactfield import eliminate, sqrt_element
from toruslab.linalg import Mat, _xgcd, complete_to_unimodular
from toruslab.papercheck import random_torus_with_sqrt_d
from toruslab.torus import analytic_rep, attach_multiplication, lattice_action, rational_rep


def _block_lattice_action(t, a):
    """The oracle: P^-1 diag(A, conj A) P over A's field."""
    field = a.field
    p = big_period_matrix(t)
    big = p.map(lambda x: x.in_field(field))
    big_inv = p.inv().map(lambda x: x.in_field(field))
    z = field.zero()
    block = Mat.from_rows([
        [a[0, 0], a[0, 1], z, z],
        [a[1, 0], a[1, 1], z, z],
        [z, z, a[0, 0].conjugate(), a[0, 1].conjugate()],
        [z, z, a[1, 0].conjugate(), a[1, 1].conjugate()],
    ])
    return big_inv @ block @ big


def _generic_matrix(field, rng):
    """A 2x2 matrix of small rational combinations of the field's monomials."""
    def entry():
        acc = field.zero()
        for exp in monomial_exponents(field):
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            if c:
                acc = acc + field_element(field, {exp: c})
        return acc
    return Mat.from_rows([[entry(), entry()], [entry(), entry()]])


@pytest.fixture(scope="module")
def tori():
    """Every bundled torus, and seeded random lattices for all six d."""
    out = []
    for path in sorted(TORI.glob("*.json")):
        t, mults = parse_input(path.read_text()).realize()
        out.append((path.stem, t, mults))
    for d in (2, 3, 5, -1, -2, -5):
        for s in (1, 2, 3):
            t, mult = random_torus_with_sqrt_d(d, s)
            out.append((f"random_d{d}_s{s}", t, [mult]))
    return out


def test_lattice_action_matches_the_block_formula(tori):
    rng = random.Random(1998)
    for name, t, mults in tori:
        f = t.field
        cases = [m.D_analytic for m in mults]
        cases += [Mat.diagonal([f.i(), f.i()]), _generic_matrix(f, rng)]
        for a in cases:
            assert lattice_action(t, a) == _block_lattice_action(t, a), name


def test_lattice_action_of_i_is_the_complex_structure(tori):
    for name, t, _ in tori:
        i = t.field.i()
        assert lattice_action(t, Mat.diagonal([i, i])) == complex_structure(t), name


def test_rational_rep_of_a_multiplication_is_its_integer_matrix(tori):
    for name, t, mults in tori:
        for m in mults:
            assert rational_rep(t, m.D_analytic) == [list(row) for row in m.R], name


def test_rational_rep_is_none_for_a_non_endomorphism(tori):
    _, t, _ = tori[0]
    rng = random.Random(7)
    assert rational_rep(t, _generic_matrix(t.field, rng)) is None


@pytest.mark.parametrize("stem", ["example1_m1", "example2_m1_n2", "scalar_m1"])
def test_analytic_rep_inverts_rational_rep_on_the_ring_basis(stem):
    t, _ = parse_input((TORI / f"{stem}.json").read_text()).realize()
    for b in compute_endo_ring(t).basis:
        a = analytic_rep(t, b.R)
        assert a == b.A
        assert rational_rep(t, a) == [list(row) for row in b.R]


def test_analytic_rep_refuses_a_non_endomorphism():
    # End(T) of example1_m1 has rank 2, and the matrix unit E_00 does not
    # commute with its complex structure; the check is no assert, so it
    # also raises under python -O
    t, _ = parse_input((TORI / "example1_m1.json").read_text()).realize()
    e00 = ((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    with pytest.raises(InvariantViolation):
        analytic_rep(t, e00)


def test_attach_refuses_a_non_rational_action(cm_product):
    t, _ = cm_product
    _, s2 = sqrt_element(t.field, 2)
    with pytest.raises(NotAnEndomorphism, match="non-rational"):
        attach_multiplication(t, Mat.diagonal([s2, -s2]), 2)


def test_attach_refuses_a_non_integral_action(cm_product):
    # on (Z + Zi)^2, D = [[0, 1/2], [-2, 0]] squares to -1 and maps (0, 1)
    # to (1/2, 0)
    t, _ = cm_product
    f = t.field
    d = Mat.from_rows([[f.zero(), f.rational(Fraction(1, 2))],
                       [f.rational(-2), f.zero()]])
    with pytest.raises(NotAnEndomorphism, match="non-integral"):
        attach_multiplication(t, d, -1)


def _old_complete_to_unimodular(coeffs):
    """The oracle: W with coeffs W = e1 from elementary column steps, then W^-1
    by Fraction elimination."""
    n = len(coeffs)
    w = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    cur = list(coeffs)
    for j in range(1, n):
        a, b = cur[0], cur[j]
        if b == 0:
            continue
        g2, x, y = _xgcd(a, b)
        op = [[1 if i == k else 0 for k in range(n)] for i in range(n)]
        op[0][0], op[j][0] = x, y
        op[0][j], op[j][j] = -b // g2, a // g2
        cur = [sum(cur[k] * op[k][col] for k in range(n)) for col in range(n)]
        w = [[sum(w[i][k] * op[k][c] for k in range(n)) for c in range(n)]
             for i in range(n)]
    if cur[0] == -1:
        for i in range(n):
            w[i][0] = -w[i][0]
    aug = [[Fraction(v) for v in row] + [Fraction(int(k == j)) for j in range(n)]
           for k, row in enumerate(w)]
    pivots, _ = eliminate(aug)
    assert pivots == list(range(n))
    return [[int(aug[i][n + j]) for j in range(n)] for i in range(n)]


@seed(1998)
@settings(max_examples=1000, deadline=None)
@given(st.lists(st.integers(-60, 60), min_size=1, max_size=8))
def test_complete_to_unimodular_matches_the_fraction_inverse(vec):
    assume(any(vec))
    g = gcd(*vec)
    coeffs = [v // g for v in vec]
    u = complete_to_unimodular(coeffs)
    assert u[0] == coeffs
    assert u == _old_complete_to_unimodular(coeffs)
