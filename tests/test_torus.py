from fractions import Fraction as F

import pytest

from toruslab.errors import (
    DegenerateLattice,
    NotAnEndomorphism,
    NotSquareRootOfD,
    PerfectSquare,
)
from toruslab.exactfield import NumberField, sqrt_element
from toruslab.linalg import Mat
from toruslab.torus import (
    MultiplicationDatum,
    PeriodMatrix,
    attach_multiplication,
    build_torus,
    sqrt_d_basis_lattice,
)

from oracle_helpers import big_period_matrix, complex_structure


def test_product_torus_complex_structure(cm_product):
    torus, _ = cm_product
    f = torus.field
    minus_id = Mat.identity(f, 4).scale(-1)
    j = complex_structure(torus)
    assert j @ j == minus_id
    for r in range(4):
        for c in range(4):
            assert j[r, c].is_real()
    # block diagonal: the two elliptic factors do not mix
    for r in (0, 1):
        for c in (2, 3):
            assert j[r, c].is_zero()
            assert j[c, r].is_zero()


def test_example1_matrix_is_nondegenerate(example1_m1):
    torus, _ = example1_m1
    det = big_period_matrix(torus).det()
    assert not det.is_zero()


def test_repeated_column_is_degenerate():
    f = NumberField(())
    i, one, zero = f.i(), f.one(), f.zero()
    pi = Mat.from_rows([[one, i, one, zero], [zero, zero, zero, i]])
    with pytest.raises(DegenerateLattice):
        build_torus(PeriodMatrix(pi))


def test_attach_scalar_multiplication(cm_product):
    torus, _ = cm_product
    i = torus.field.i()
    datum = attach_multiplication(torus, Mat.diagonal([i, i]), -1)
    assert datum.is_scalar
    assert datum.d < 0
    assert datum.diagonalizer is None


def test_attach_nonscalar_example1(example1_m1):
    torus, mult = example1_m1
    assert not mult.is_scalar
    assert mult.d == -1
    d_elt = mult.field.rational(-1)
    r = Mat.from_rows([[mult.field.rational(v) for v in row] for row in mult.R])
    assert r @ r == Mat.diagonal([d_elt, d_elt, d_elt, d_elt])
    # analytic and rational representations agree on the period matrix
    pi = torus.period.entries.map(lambda x: x.in_field(mult.field))
    assert mult.D_analytic @ pi == pi @ r


def test_attach_wrong_square_raises(example1_m1):
    torus, _ = example1_m1
    i = torus.field.i()
    with pytest.raises(NotSquareRootOfD):
        attach_multiplication(torus, Mat.diagonal([i, -i]), -2)


def test_attach_square_d_raises(cm_product):
    torus, _ = cm_product
    two = torus.field.rational(2)
    with pytest.raises(PerfectSquare):
        attach_multiplication(torus, Mat.diagonal([two, two]), 4)


def test_attach_non_endomorphism_raises(cm_product):
    torus, _ = cm_product
    f, s2 = sqrt_element(torus.field, 2)
    with pytest.raises(NotAnEndomorphism):
        attach_multiplication(torus, Mat.diagonal([s2, -s2]), 2)


def test_diagonalizer_normal_form(cm_product):
    torus, mult = cm_product
    t = mult.diagonalizer
    s = sqrt_element(mult.field, mult.d)[1]
    assert t.inv() @ mult.D_analytic @ t == Mat.diagonal([s, -s])
    assert t[0, 0] == 1   # leading eigenvector coordinate normalized


def test_sqrt_d_basis_lattice_block_form():
    f, s3 = sqrt_element(NumberField(()), 3)
    e1 = (f.one(), f.i())
    e2 = (f.i() * s3.in_field(f), f.one())
    torus, mult = sqrt_d_basis_lattice(2, e1, e2)
    assert mult.R == ((0, 0, 2, 0), (0, 0, 0, 2), (1, 0, 0, 0), (0, 1, 0, 0))
    assert mult.d == 2 and mult.d > 0 and not mult.is_scalar


def test_sqrt_d_basis_lattice_example1_reordered(example1_m1):
    # columns (e1, e2, De1, De2) with e1 = (1,1), e2 = (1+ri, ri) rebuild
    # the same lattice as the printed matrix, up to column order
    torus, _ = example1_m1
    f = torus.field
    i, one, r = f.i(), f.one(), f.gen("r")
    e1 = (one, one)
    e2 = (one + r * i, r * i)
    torus2, mult2 = sqrt_d_basis_lattice(-1, e1, e2)
    cols1 = set(zip(*torus.period.entries.rows))
    cols2 = {tuple(x.in_field(torus.field) for x in col)
             for col in zip(*torus2.period.entries.rows)}
    # De1 = (i, -i) = column 3 of the printed matrix, De2 = column 4
    assert cols1 == cols2
    assert mult2.d == -1


def test_sqrt_d_basis_lattice_rank_one_degenerate():
    f = NumberField(())
    e1 = (f.one(), f.zero())
    e2 = (f.rational(2), f.zero())
    with pytest.raises(DegenerateLattice):
        sqrt_d_basis_lattice(2, e1, e2)


def test_multiplication_datum_is_immutable(cm_product):
    _, mult = cm_product
    assert isinstance(mult, MultiplicationDatum)
    with pytest.raises(AttributeError):
        mult.d = 5
