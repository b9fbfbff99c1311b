"""Torus construction over the real coordinate matrix, against the P-based oracle.

`build_torus` eliminates over C = [Re Pi_0; Im Pi_0; Re Pi_1; Im Pi_1]
and reads det C, P^-1 and J from that one pass.  The construction it
replaced, `build_torus_from_big_p` in oracle_helpers, eliminates over the
big period matrix P; both must give the same det P / 4, P^-1 and J,
entry for entry and in the same field.  The seeded draws of
`random_torus_with_sqrt_d` must give the tori of the monomial-sum draw
loop, a zero dividend must divide to zero without an elimination, and
the orientation sign of a torus must be certified once.  No check here
relies on an assert in the library, so the module also runs under
python -O.
"""

import sys

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from toruslab import exactfield
from toruslab.cli import parse_input
from toruslab.errors import DegenerateLattice, DivisionByZero
from toruslab.exactfield import NumberField, _field_div, sqrt_element
from toruslab.linalg import Mat
from toruslab.neronseveri import is_algebraic
from toruslab.papercheck import (
    example1,
    example2,
    random_torus_with_sqrt_d,
    scalar_cm_product,
    verify_proposition,
)
from toruslab.torus import PeriodMatrix, _eigenvector_2x2, build_torus

from conftest import TORI
from oracle_helpers import build_torus_from_big_p, random_torus_by_monomial_sums

D_VALUES = (2, 3, 5, -1, -2, -5)
SQUAREFREE = (1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15)


def _exact(m):
    """Every entry as (field, numerators, denominator): equal only if identical."""
    return [(x.field, x.num, x.den) for row in m.rows for x in row]


def _assert_matches_oracle(period):
    got = build_torus(period)
    ref = build_torus_from_big_p(period)
    assert (got.real_det.field, got.real_det.num, got.real_det.den) == (
        ref.real_det.field, ref.real_det.num, ref.real_det.den)
    assert _exact(got.big_p_inv) == _exact(ref.big_p_inv)
    assert _exact(got.J) == _exact(ref.J)
    assert _exact(got.big_p) == _exact(ref.big_p)
    assert got == ref


@seed(2301)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(D_VALUES), st.integers(1, 10 ** 6))
def test_random_tori_match_the_p_oracle(d, s):
    _assert_matches_oracle(random_torus_with_sqrt_d(d, s)[0].period)


@seed(2302)
@settings(max_examples=12, deadline=None)
@given(st.sampled_from(("example1", "example2", "scalar")), st.sampled_from(SQUAREFREE),
       st.sampled_from(SQUAREFREE))
def test_example_tori_match_the_p_oracle(kind, m, n):
    if kind == "example1":
        t = example1(m)[0]
    elif kind == "example2":
        if m == n:
            n = 17
        t = example2(m, n)[0]
    else:
        t = scalar_cm_product(m)
    _assert_matches_oracle(t.period)


def test_bundled_tori_match_the_p_oracle():
    periods = [parse_input(p.read_text()).realize()[0].period
               for p in sorted(TORI.glob("*.json"))]
    assert len(periods) == 8
    for period in periods:
        _assert_matches_oracle(period)


@seed(2303)
@settings(max_examples=20, deadline=None)
@given(st.sampled_from(D_VALUES), st.integers(1, 10 ** 6),
       st.sampled_from([(a, b) for a in range(4) for b in range(4) if a != b]))
def test_two_equal_columns_are_refused(d, s, pair):
    rows = [list(r) for r in random_torus_with_sqrt_d(d, s)[0].period.entries.rows]
    a, b = pair
    for row in rows:
        row[b] = row[a]
    period = PeriodMatrix(Mat(tuple(tuple(r) for r in rows)))
    with pytest.raises(DegenerateLattice, match="big period matrix is singular"):
        build_torus(period)
    with pytest.raises(DegenerateLattice, match="big period matrix is singular"):
        build_torus_from_big_p(period)


@seed(2304)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(D_VALUES), st.integers(1, 10 ** 6))
def test_draws_match_the_monomial_sum_loop(d, s):
    t, mult = random_torus_with_sqrt_d(d, s)
    t_ref, mult_ref = random_torus_by_monomial_sums(d, s)
    assert _exact(t.period.entries) == _exact(t_ref.period.entries)
    assert (t, mult) == (t_ref, mult_ref)


def test_zero_divided_by_nonzero_is_zero():
    field, s2 = sqrt_element(NumberField(()), 2)
    field, s3 = sqrt_element(field, 3)
    zero = field.zero()
    for b in (field.rational(-3), s2, s3 * 2 + field.i(), s2 * s3 - 1):
        q = _field_div(zero, b)
        assert q.is_zero() and q.field == field and q.den == 1
        assert zero / b == 0


def test_division_by_zero_still_raises():
    field, s2 = sqrt_element(NumberField(()), 2)
    zero = field.zero()
    for a in (zero, field.one(), s2):
        with pytest.raises(DivisionByZero):
            _field_div(a, zero)
        with pytest.raises(DivisionByZero):
            a / zero


def test_eigenvectors_of_a_diagonal_root_run_no_elimination(monkeypatch):
    """For D = diag(sqrt d, -sqrt d) the only division is 0 / (2 sqrt d)."""
    runs = []
    bareiss = exactfield._bareiss
    monkeypatch.setattr(exactfield, "_bareiss", lambda rows: runs.append(1) or bareiss(rows))
    for d in D_VALUES:
        field, s = sqrt_element(NumberField(()), d)
        dmat = Mat.diagonal([s, -s])
        assert _eigenvector_2x2(dmat, s) == (field.one(), field.zero())
        assert _eigenvector_2x2(dmat, -s) == (field.zero(), field.one())
    assert runs == []


def test_orientation_sign_is_certified_once_per_torus(monkeypatch):
    """build_torus signs det C once; verify_proposition and is_algebraic reuse it."""
    signed = []
    sign = exactfield.exact_sign
    spy = lambda a: signed.append(a) or sign(a)  # noqa: E731
    for name, module in list(sys.modules.items()):
        if name.startswith("toruslab") and getattr(module, "exact_sign", None) is sign:
            monkeypatch.setattr(module, "exact_sign", spy)
    for d in D_VALUES:
        signed.clear()
        t, mult = random_torus_with_sqrt_d(d, 23)
        verify_proposition(t, mult, seed=23)
        is_algebraic(t, mults=[mult])
        assert sum(1 for a in signed if a == t.real_det) == 1
        assert t.orientation == sign(t.real_det) != 0
