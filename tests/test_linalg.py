from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from toruslab.errors import DegenerateLattice
from toruslab.exactfield import GeneratorSpec, NumberField
from toruslab.linalg import (
    Mat,
    clear_denominators,
    complete_to_unimodular,
    coords_in_rows,
    hnf,
    integer_kernel,
    kernel_lattice,
    rational_kernel,
    rref,
)

from oracle_helpers import lattice_points_in_box

small_int = st.integers(min_value=-6, max_value=6)


def int_matrix(rows, cols):
    return st.lists(st.lists(small_int, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def _member(basis, vec):
    vec = list(vec)
    for row in basis:
        j = next(k for k, v in enumerate(row) if v)
        if vec[j] % row[j]:
            return False
        q = vec[j] // row[j]
        vec = [a - q * b for a, b in zip(vec, row)]
    return all(v == 0 for v in vec)


@settings(max_examples=60, deadline=None)
@given(int_matrix(3, 4))
def test_hnf_is_canonical_and_spans(rows):
    h = hnf(rows)
    assert hnf(h) == h
    for row in rows:
        if any(row):
            assert _member(h, row)
    # pivot structure: positive pivots, reduced above
    pivots = [next(k for k, v in enumerate(r) if v) for r in h]
    assert pivots == sorted(pivots)
    for idx, r in enumerate(h):
        assert r[pivots[idx]] > 0
        for above in range(idx):
            assert 0 <= h[above][pivots[idx]] < r[pivots[idx]]


@settings(max_examples=60, deadline=None)
@given(int_matrix(2, 4))
def test_integer_kernel_annihilates_and_saturates(rows):
    ker = integer_kernel(rows, 4)
    for v in ker:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0
    # saturation: any rational kernel vector, scaled integral, is in the span
    for v in rational_kernel([[F(x) for x in r] for r in rows], 4):
        assert _member(ker, clear_denominators(v))


@settings(max_examples=40, deadline=None)
@given(st.lists(small_int, min_size=4, max_size=4),
       int_matrix(3, 4))
def test_solve_rational_consistency(x, rows):
    rhs = [sum(r[k] * x[k] for k in range(4)) for r in rows]
    sol = coords_in_rows([list(c) for c in zip(*rows)], [F(v) for v in rhs])
    assert sol is not None
    for r, b in zip(rows, rhs):
        assert sum(F(v) * s for v, s in zip(r, sol)) == b


def test_complete_to_unimodular():
    u = complete_to_unimodular([6, 10, 15])
    assert u[0] == [6, 10, 15]
    det = (u[0][0] * (u[1][1] * u[2][2] - u[1][2] * u[2][1])
           - u[0][1] * (u[1][0] * u[2][2] - u[1][2] * u[2][0])
           + u[0][2] * (u[1][0] * u[2][1] - u[1][1] * u[2][0]))
    assert det in (1, -1)
    with pytest.raises(ValueError):
        complete_to_unimodular([2, 4])


def test_lattice_points_in_box():
    # the sublattice Z x 2Z clipped to the unit box
    pts = lattice_points_in_box(hnf([[1, 0], [0, 2]]), 1)
    assert set(pts) == {(-1, 0), (0, 0), (1, 0)}
    assert pts == sorted(pts)


def test_span_membership_helpers():
    rows = [[F(1), F(2)], [F(2), F(4)]]
    assert coords_in_rows(rows, [F(3), F(6)]) is not None
    assert coords_in_rows(rows, [F(1), F(0)]) is None
    assert coords_in_rows([[F(1), F(2)]], [F(2), F(4)]) == [F(2)]


def test_kernel_lattice_of_zero_system():
    assert kernel_lattice([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


# ---------------------------------------------------------------------------
# field matrices
# ---------------------------------------------------------------------------

def test_mat_inverse_and_det():
    f = NumberField(())
    i, one, zero = f.i(), f.one(), f.zero()
    m = Mat.from_rows([[one, i], [zero, one + i]])
    inv = m.inv()
    assert m @ inv == Mat.identity(f, 2)
    assert m.det() == one + i


def test_mat_singular_raises():
    f = NumberField(())
    one = f.one()
    m = Mat.from_rows([[one, one], [one, one]])
    assert m.det() == 0
    with pytest.raises(DegenerateLattice):
        m.inv()


def test_conj_transpose():
    f = NumberField(())
    i, one = f.i(), f.one()
    m = Mat.from_rows([[one, i], [-i, one]])
    assert m.conj_t() == m   # hermitian


def test_mat_det_with_zero_leading_entry():
    f = NumberField(())
    i, one, zero = f.i(), f.one(), f.zero()
    assert Mat.from_rows([[zero, i], [one + i, 2 * one]]).det() == one - i
    # one row swap brings the last row up: the sign flips
    m = Mat.from_rows([[zero, zero, i], [zero, one, zero], [one, zero, zero]])
    assert m.det() == -i


# ---------------------------------------------------------------------------
# the elimination kernel against sympy as an independent oracle
# ---------------------------------------------------------------------------

small_q = st.one_of(small_int.map(F),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4))
gauss_int = st.builds(complex, small_int, small_int)


@st.composite
def matrices(draw, entries, square=False):
    """Up to 4x5 matrices; about half get a last row that combines earlier rows,
    so singular matrices and zero pivots (row swaps) are common."""
    m = draw(st.integers(min_value=1, max_value=4))
    n = m if square else draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    if m > 1 and draw(st.booleans()):
        a, b = draw(entries), draw(entries)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[(m - 2) // 2])]
    return rows


def _sym(q):
    return sympy.Rational(q.numerator, q.denominator)


def _frac(x):
    return F(int(x.p), int(x.q))


def _coords(x):
    """(re, im) of a sympy Gaussian rational, as Fractions."""
    x = sympy.expand(x)
    return _frac(sympy.re(x)), _frac(sympy.im(x))


@seed(1998)
@settings(max_examples=80, deadline=None)
@given(matrices(small_q))
def test_rref_matches_sympy(rows):
    red, pivots = rref(rows)
    ref, ref_pivots = sympy.Matrix([[_sym(v) for v in r] for r in rows]).rref()
    assert pivots == list(ref_pivots)
    assert red == [[_frac(ref[i, j]) for j in range(ref.cols)] for i in range(ref.rows)]


@seed(1998)
@settings(max_examples=80, deadline=None)
@given(matrices(gauss_int, square=True))
def test_mat_det_and_inv_match_sympy_over_gaussian_integers(rows):
    f = NumberField(())
    i = f.i()
    m = Mat.from_rows([[f.rational(int(z.real)) + i * int(z.imag) for z in r]
                       for r in rows])
    ref = sympy.Matrix([[int(z.real) + sympy.I * int(z.imag) for z in r] for r in rows])
    ref_det = _coords(ref.det(method="bareiss"))
    assert m.det().coeffs == ref_det
    if ref_det == (0, 0):
        with pytest.raises(DegenerateLattice):
            m.inv()
        return
    n = len(rows)
    ref_inv = ref.inv()
    assert [[x.coeffs for x in r] for r in m.inv().rows] == \
        [[_coords(ref_inv[r, c]) for c in range(n)] for r in range(n)]


@seed(1998)
@settings(max_examples=80, deadline=None)
@given(matrices(small_q), st.lists(small_q, min_size=4, max_size=4))
def test_solve_rational_matches_sympy(rows, rhs):
    rhs = rhs[:len(rows)]
    a = sympy.Matrix([[_sym(v) for v in r] for r in rows])
    b = sympy.Matrix([_sym(v) for v in rhs])
    x = coords_in_rows([list(c) for c in zip(*rows)], rhs)
    assert (x is not None) == (a.rank() == a.row_join(b).rank())
    if x is None:
        return
    assert a * sympy.Matrix([_sym(v) for v in x]) == b
    # the particular solution: every free variable is zero
    _, ref_pivots = a.rref()
    assert all(x[c] == 0 for c in range(a.cols) if c not in ref_pivots)


def test_matrices_of_different_shapes_are_unequal():
    f = NumberField(())
    one, zero = f.one(), f.zero()
    eye = Mat.identity(f, 2)
    wide = Mat.from_rows([[one, zero, zero], [zero, one, zero]])
    short = Mat.from_rows([[one, zero]])
    for other in (wide, short):
        assert eye != other and other != eye
        assert not eye == other
    assert eye == Mat.from_rows([[one, 0], [0, 1]])
    assert eye != Mat.from_rows([[one, 0], [0, 2]])
    # equal entries compare across fields, as elements do
    sqrt2_field = NumberField((GeneratorSpec("sqrt2", (F(-2), F(0), F(1)),
                                             (F(1), F(2)), (F(0), F(0)), "real"),))
    assert eye == Mat.identity(sqrt2_field, 2)
