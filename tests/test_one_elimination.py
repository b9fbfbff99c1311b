"""One elimination per basis: the batched rational solver and its callers.

The batched solver must give, column for column, what a one-vector solve
gives, also when vectors outside the span sit between vectors inside it.
The structure tensor and the Rosati rows must equal the one-vector
references in oracle_helpers, and the integer involution check must
accept every genuine involution (including ones with denominators) and
reject a perturbed one.
"""

from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from toruslab.endo import RosatiData, _verify_involution, compute_endo_ring, rosati_involution
from toruslab.errors import InvariantViolation
from toruslab.linalg import coords_in_rows, coords_in_rows_many
from toruslab.neronseveri import compute_ns, is_algebraic
from toruslab.papercheck import example1, example2, scalar_cm_product

from oracle_helpers import (
    coords_one_vector,
    involution_holds_over_fractions,
    rank_last_pivot,
    rosati_rows_per_image,
    structure_tensor_per_product,
)

small_int = st.integers(min_value=-4, max_value=4)
small_q = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def basis_and_vectors(draw):
    """Rows with a dependent one among them, and vectors in and out of their span."""
    width = draw(st.integers(2, 5))
    k = draw(st.integers(1, width))
    rows = [draw(st.lists(small_int, min_size=width, max_size=width)) for _ in range(k)]
    a, b = draw(small_int), draw(small_int)
    rows.insert(draw(st.integers(0, k)), [a * x + b * y for x, y in zip(rows[0], rows[-1])])
    vecs = []
    for _ in range(draw(st.integers(1, 7))):
        if draw(st.booleans()):
            coeffs = [draw(small_q) for _ in rows]
            vecs.append([sum(c * r[i] for c, r in zip(coeffs, rows)) for i in range(width)])
        else:
            vecs.append(draw(st.lists(small_q, min_size=width, max_size=width)))
    return rows, vecs


def _check_against_one_vector_solves(rows, vecs):
    width = len(rows[0])
    rank = rank_last_pivot(rows, width)
    cols = [list(col) for col in zip(*rows)]
    batched = coords_in_rows_many(rows, vecs)
    assert len(batched) == len(vecs)
    for vec, x in zip(vecs, batched):
        outside = rank_last_pivot(rows + [vec], width) > rank
        assert (x is None) == outside
        assert x == coords_in_rows([list(c) for c in zip(*cols)], vec)
        assert x == coords_one_vector(rows, vec)
        assert x == coords_in_rows(rows, vec)
        assert (coords_in_rows(rows, vec) is not None) == (not outside)
        if x is not None:
            assert [sum(c * r[i] for c, r in zip(x, rows)) for i in range(width)] == vec


@seed(1998)
@settings(max_examples=150, deadline=None)
@given(basis_and_vectors())
def test_batched_solver_matches_one_vector_solves(case):
    rows, vecs = case
    _check_against_one_vector_solves(rows, vecs)


def test_out_of_span_vectors_between_in_span_ones():
    rows = [[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 2, 0]]  # the third row is dependent
    e4 = [F(0), F(0), F(0), F(1)]
    vecs = [e4, [1, 1, 2, 0], [2 * v for v in e4], [2, -1, 1, 0],
            [1, 0, 0, 0], [0, 0, 0, 0], [F(1, 2), F(1, 3), F(5, 6), 0], [3, 0, 0, 7]]
    assert coords_in_rows_many(rows, vecs) == [
        None, [1, 1, 0], None, [2, -1, 0], None, [0, 0, 0], [F(1, 2), F(1, 3), 0], None]
    _check_against_one_vector_solves(rows, [[F(v) for v in vec] for vec in vecs])
    # a pivot taken by an outside column must not disturb the later in-span ones
    for k in range(len(vecs)):
        rotated = vecs[k:] + vecs[:k]
        _check_against_one_vector_solves(rows, [[F(v) for v in vec] for vec in rotated])


def test_empty_basis_and_no_vectors():
    assert coords_in_rows_many([], [[0, 0], [1, 0]]) == [[], None]
    assert coords_in_rows_many([[1, 2]], []) == []
    assert coords_in_rows([], [0, 0]) is not None and coords_in_rows([], [0, 1]) is None
    with pytest.raises(ValueError):
        coords_in_rows_many([[1, 2]], [[1, 2, 3]])


# ---------------------------------------------------------------------------
# structure tensor and Rosati rows against the one-vector references
# ---------------------------------------------------------------------------

_EXAMPLES = {
    "example1(1)": lambda: example1(1)[0],
    "example1(5)": lambda: example1(5)[0],
    "example2(1, 2)": lambda: example2(1, 2)[0],
    "example2(3, 7)": lambda: example2(3, 7)[0],
    "scalar(1)": lambda: scalar_cm_product(1),
    "scalar(6)": lambda: scalar_cm_product(6),
}


@pytest.mark.parametrize("name", sorted(_EXAMPLES))
def test_structure_tensor_matches_per_product_solves(name):
    ring = compute_endo_ring(_EXAMPLES[name]())
    assert ring.structure == structure_tensor_per_product(ring.basis)


@pytest.fixture(scope="module")
def scalar1():
    t = scalar_cm_product(1)
    return t, compute_endo_ring(t), compute_ns(t)


def _polarizations(t, ns):
    """The found polarization and two non-principal NS forms."""
    yield is_algebraic(t).polarization.herm.M
    for c in ((-3, -2, 0, -3), (-3, -1, -1, -3)):
        yield ns.combination(list(c))[1].M


@pytest.mark.parametrize("m", [1, 2, 6])
def test_rosati_rows_match_per_image_solves(m, scalar1):
    if m == 1:
        t, ring, ns = scalar1
        forms = list(_polarizations(t, ns))
    else:
        t = scalar_cm_product(m)
        ring = compute_endo_ring(t)
        forms = [is_algebraic(t).polarization.herm.M]
    for h0 in forms:
        ros = rosati_involution(ring, h0)
        assert ros.involution == rosati_rows_per_image(ring, h0)
        assert involution_holds_over_fractions(ring, ros.involution)


def test_integer_check_accepts_involutions_with_denominators(scalar1):
    t, ring, ns = scalar1
    dens = set()
    for h0 in _polarizations(t, ns):
        ros = rosati_involution(ring, h0)  # runs _verify_involution
        dens.add(lcm(*(x.denominator for row in ros.involution for x in row)))
    assert dens >= {5, 7}


def _bumped(ros, j, k, by):
    rows = [list(r) for r in ros.involution]
    rows[j][k] += by
    return RosatiData(ring=ros.ring, H0=ros.H0, involution=tuple(map(tuple, rows)))


def test_bumped_involution_entry_raises(scalar1):
    t, ring, ns = scalar1
    n = ring.rank
    for h0 in _polarizations(t, ns):
        ros = rosati_involution(ring, h0)
        den = lcm(*(x.denominator for row in ros.involution for x in row))
        for j, k in ((0, 0), (0, n - 1), (n - 1, 0), (3, 5), (n - 1, n - 1)):
            for by in (F(1), F(1, den), F(-1, 2 * den)):
                bumped = _bumped(ros, j, k, by)
                assert not involution_holds_over_fractions(ring, bumped.involution)
                with pytest.raises(InvariantViolation):
                    _verify_involution(bumped)
