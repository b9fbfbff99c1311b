"""Field division through the fraction-free (Bareiss) integer elimination,
`_bareiss`, against the Fraction product reference of test_field_layout.

The reference `ref_mul` reduces a schoolbook product modulo each minimal
polynomial in Fraction arithmetic, so a quotient q of a by b is checked
by ref_mul(q, b) == a without the integer multiplication table.
"""

import contextlib
from fractions import Fraction as F

import pytest
from hypothesis import Phase, given, seed, settings
from hypothesis import strategies as st

from toruslab import exactfield
from toruslab.errors import NotInvertible
from toruslab.exactfield import (
    CONJ_REAL,
    FieldElement,
    GeneratorSpec,
    NumberField,
    _bareiss,
    eliminate,
)

from test_field_layout import DEG8, DEG12, check_layout, coeff_vectors, ref_mul


@contextlib.contextmanager
def integer_path():
    """Records the entry types of every elimination that division runs.

    A `_bareiss` call records its set of entry types, an `eliminate`
    call the string "eliminate".
    """
    seen = []
    bareiss = exactfield._bareiss

    def spy(rows):
        seen.append({type(v) for row in rows for v in row})
        return bareiss(rows)

    def other(rows, reduced=True):
        seen.append("eliminate")
        return eliminate(rows, reduced)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactfield, "_bareiss", spy)
        mp.setattr(exactfield, "eliminate", other)
        yield seen


def divisors(field):
    """Nonzero coefficient vectors, half of them with a zero first entry.

    A zero constant coefficient puts a zero in the corner of the
    multiplication-by-b matrix, so the first column pivots on a later row.
    """
    q = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    rest = st.tuples(*[q] * (field.degree - 1))
    return st.tuples(st.one_of(st.just(F(0)), q), rest).map(
        lambda t: (t[0],) + t[1]).filter(lambda c: any(c[1:]))


@pytest.mark.parametrize("field", [DEG8, DEG12], ids=["deg8", "deg12-table_den2"])
@seed(1998)
@settings(max_examples=40, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(data=st.data())
def test_division_matches_fraction_reference(field, data):
    ca = data.draw(coeff_vectors(field))
    cb = data.draw(divisors(field))
    a, b = FieldElement(field, ca), FieldElement(field, cb)
    with integer_path() as seen:
        quot = a / b
        inv = 1 / b
    check_layout(quot)
    assert ref_mul(field, quot.coeffs, cb) == ca
    check_layout(inv)
    assert ref_mul(field, inv.coeffs, cb) == (F(1),) + (F(0),) * (field.degree - 1)
    # both went through the integer path: no Fraction entered an elimination
    assert seen == [{int}, {int}]


def test_division_with_a_zero_corner_swaps_rows():
    f = DEG8
    b = f.gen("sqrt2") + f.gen("s")  # constant coefficient 0
    a = f.one() + f.gen("s") * 3
    with integer_path() as seen:
        quot = a / b
    assert quot * b == a
    assert ref_mul(f, quot.coeffs, b.coeffs) == a.coeffs
    assert seen == [{int}]


def test_division_by_a_zero_divisor_is_not_invertible():
    # t = 1 is declared of degree 2, so t - 1 is a nonzero zero divisor
    t_spec = GeneratorSpec("t", (F(-1), F(0), F(1)), (F(1, 2), F(3, 2)), (F(0), F(0)),
                           CONJ_REAL)
    f = NumberField((t_spec,))
    t = f.gen("t")
    with pytest.raises(NotInvertible):
        f.one() / (t - 1)
    with pytest.raises(NotInvertible):
        (t + 2) / (t - 1)
    # t + 2 is a unit there: (t + 2) * (2 - t) = 4 - t^2 = 3
    assert f.one() / (t + 2) == (2 - t) / 3


def _fraction_det(rows):
    pivots, det = eliminate([[F(v) for v in row] for row in rows], reduced=False)
    return det if len(pivots) == len(rows) else 0


@seed(1998)
@settings(max_examples=150, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(data=st.data())
def test_integer_path_matches_fraction_path(data):
    n = data.draw(st.integers(1, 6))
    width = n + data.draw(st.integers(0, 2))
    entry = st.integers(-30, 30)
    rows = [[data.draw(st.one_of(st.just(0), entry)) for _ in range(width)]
            for _ in range(n)]
    if data.draw(st.booleans()) and n > 1:  # plant a dependent row
        k = data.draw(st.integers(-3, 3))
        rows[-1] = [x + k * y for x, y in zip(rows[0], rows[1])]
    ints = [row[:] for row in rows]
    int_pivots, int_last = _bareiss(ints)
    fracs = [[F(v) for v in row] for row in rows]
    frac_pivots, _ = eliminate(fracs)
    assert int_pivots == frac_pivots
    assert all(type(v) is int for row in ints for v in row)
    # the echelon rows span the input's row space: their reduced form is the input's
    rank = len(frac_pivots)
    assert all(ints[k][c] for k, c in enumerate(int_pivots))
    assert all(not any(row) for row in ints[rank:])
    again = [[F(v) for v in row] for row in ints[:rank]]
    eliminate(again)
    assert again == fracs[:rank]
    square = [row[:n] for row in rows]
    pivots, det = _bareiss([row[:] for row in square])
    assert (det if len(pivots) == n else 0) == _fraction_det(square)
    if rank:
        assert int_last != 0
