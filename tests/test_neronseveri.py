from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslab.endo import compute_endo_ring, rosati_involution
from toruslab.errors import NotABasis, NotInEndo, NotInND, ScalarD
from toruslab.exactfield import NumberField, sqrt_element
from toruslab.linalg import Mat
from toruslab.cli import parse_input
from toruslab.neronseveri import (
    AltForm,
    CanonicalFormCoords,
    HermForm,
    LambdaMap,
    canonical_form_matrix,
    choose_sqrt_basis,
    compute_N_D,
    compute_ns,
    e_table,
    hermitian_lift,
    is_algebraic,
    is_positive_definite,
    polarization_search,
    transport_to_diagonal,
)
from toruslab.papercheck import random_torus_with_sqrt_d, scalar_cm_product
from toruslab.torus import attach_multiplication, lattice_form

from conftest import TORI
from oracle_helpers import (
    canonical_form_coordinates,
    complex_structure,
    ns_membership_coords,
    ns_to_symmetric_endo,
    oracle_ns_rank,
)


@pytest.fixture(scope="module")
def d2_lattice():
    """The sqrt(2) test-bed lattice e1=(1,i), e2=(i*sqrt3,1)."""
    from toruslab.torus import sqrt_d_basis_lattice
    f, s3 = sqrt_element(NumberField(()), 3)
    e1 = (f.one(), f.i())
    e2 = (f.i() * s3.in_field(f), f.one())
    return sqrt_d_basis_lattice(2, e1, e2)


# ---------------------------------------------------------------------------
# NS computation
# ---------------------------------------------------------------------------

def test_ns_rank_product(cm_product):
    torus, _ = cm_product
    ns = compute_ns(torus)
    assert ns.rank == 4
    assert oracle_ns_rank(torus) == 4
    j = complex_structure(torus)
    for alt, herm in ns.basis:
        e = Mat.from_rows([[torus.field.rational(v) for v in row] for row in alt.E])
        assert j.transpose() @ e @ j == e
        assert herm.M.conj_t() == herm.M


def test_ns_rank_example1(example1_m1):
    torus, _ = example1_m1
    ns = compute_ns(torus)
    assert ns.rank == 2
    assert oracle_ns_rank(torus) == 2


def test_ns_rank_zero_generic(generic_rank0_torus):
    ns = compute_ns(generic_rank0_torus)
    assert ns.rank == 0
    assert oracle_ns_rank(generic_rank0_torus) == 0


@pytest.mark.parametrize("source", [p.name for p in sorted(TORI.glob("*.json"))]
                         + [2, -2, 3, -5])
def test_ns_basis_is_j_compatible(source):
    # compute_ns works from Pi^+ alone; the check here goes through J
    if isinstance(source, int):
        torus, _ = random_torus_with_sqrt_d(source, 2)
    else:
        torus, _ = parse_input((TORI / source).read_text()).realize()
    ns = compute_ns(torus)
    assert ns.rank == oracle_ns_rank(torus)
    j = complex_structure(torus)
    for alt, _ in ns.basis:
        e = Mat.from_rows([[torus.field.rational(v) for v in row] for row in alt.E])
        assert j.transpose() @ e @ j == e


def test_lattice_form_matches_imag_value(d2_lattice):
    torus, _ = d2_lattice
    f = torus.field
    cols = list(zip(*torus.period.entries.rows))
    outside_ns = HermForm(Mat.from_rows([[f.one(), f.i()], [-f.i(), f.rational(2)]]))
    forms = [herm for _, herm in compute_ns(torus).basis] + [outside_ns]
    for herm in forms:
        e = lattice_form(torus, herm.M)
        for k in range(4):
            for l in range(4):
                assert e[k, l] == herm.imag_value(cols[k], cols[l])


def test_hermitian_lift_rejects_form_outside_ns(cm_product):
    torus, _ = cm_product
    # E = e_02 pairs lambda_0 = (1, 0) with lambda_2 = (0, 1), but
    # E(J lambda_0, J lambda_2) = E(lambda_1, lambda_3) = 0: not J-compatible
    alt = AltForm.from_upper((0, 1, 0, 0, 0, 0))
    with pytest.raises((AssertionError, ValueError)):
        hermitian_lift(torus, alt)


def test_hermitian_lift_integrality(cm_product):
    torus, _ = cm_product
    ns = compute_ns(torus)
    cols = list(zip(*torus.period.entries.rows))
    for alt, herm in ns.basis:
        for k in range(4):
            for l in range(4):
                v = herm.imag_value(cols[k], cols[l])
                assert v == alt.E[k][l]


# ---------------------------------------------------------------------------
# positivity
# ---------------------------------------------------------------------------

def test_positive_definite_examples(gauss_field):
    f = gauss_field
    one, zero, i = f.one(), f.zero(), f.i()
    assert is_positive_definite(HermForm(Mat.diagonal([one, one])))
    anti = Mat.from_rows([[zero, one + i], [one - i, zero]])
    assert not is_positive_definite(HermForm(anti))
    assert not is_positive_definite(HermForm(Mat.diagonal([one, -one])))


# ---------------------------------------------------------------------------
# N_D and canonical coordinates
# ---------------------------------------------------------------------------

def test_nd_rank_2_product(cm_product):
    torus, mult = cm_product
    ns = compute_ns(torus)
    nd = compute_N_D(ns, mult)
    assert ns.rank == 4 and nd.rank == 2
    # containment: every N_D basis form is an integer combination of NS
    assert nd.parent_coords is not None
    for c in nd.parent_coords:
        assert all(isinstance(v, int) for v in c)


def test_nd_rank_2_d_positive(d2_lattice):
    torus, mult = d2_lattice
    nd = compute_N_D(compute_ns(torus), mult)
    assert nd.rank == 2
    for _, herm in nd.basis:
        coords = canonical_form_coordinates(mult, herm)  # diagonal shape
        rebuilt = canonical_form_matrix(mult, coords)
        assert rebuilt.M == herm.M.map(lambda x: x.in_field(rebuilt.M.field))


def test_nd_scalar_raises(cm_product):
    torus, _ = cm_product
    i = torus.field.i()
    scalar = attach_multiplication(torus, Mat.diagonal([i, i]), -1)
    with pytest.raises(ScalarD):
        compute_N_D(compute_ns(torus), scalar)


def test_canonical_coordinates_diagonal_case(d2_lattice):
    torus, mult = d2_lattice
    f = mult.field
    coords = CanonicalFormCoords(a=f.rational(3), b=f.rational(5))
    herm = canonical_form_matrix(mult, coords)
    back = canonical_form_coordinates(mult, herm)
    assert back.a == 3 and back.b == 5
    assert is_positive_definite(herm) or True  # shape only; positivity separate
    mp = transport_to_diagonal(mult, herm)
    assert mp[0, 0] == 3 and mp[1, 1] == 5 and mp[0, 1].is_zero()


def test_canonical_coordinates_antidiagonal_case(example1_m1):
    torus, mult = example1_m1
    nd = compute_N_D(compute_ns(torus), mult)
    for _, herm in nd.basis:
        coords = canonical_form_coordinates(mult, herm)
        mp = transport_to_diagonal(mult, herm)
        assert mp[0, 0].is_zero() and mp[1, 1].is_zero()
        assert mp[0, 1] == coords.a + mult.field.i() * coords.b
        # determinant of an antidiagonal hermitian matrix is never positive
        det = herm.det()
        from toruslab.exactfield import exact_sign
        assert exact_sign(det) <= 0


def test_canonical_zero_form(d2_lattice):
    torus, mult = d2_lattice
    z = Mat.zero(mult.field, 2, 2)
    coords = canonical_form_coordinates(mult, HermForm(z))
    assert coords.a == 0 and coords.b == 0


def test_not_in_nd_rejected(cm_product):
    torus, mult = cm_product
    f = torus.field
    # diag(1, -1) is in NS but transported it is not antidiagonal
    bad = HermForm(Mat.diagonal([f.one(), -f.one()]))
    with pytest.raises(NotInND):
        canonical_form_coordinates(mult, bad)


# ---------------------------------------------------------------------------
# lambda map and value table
# ---------------------------------------------------------------------------

def test_lambda_linear_zero(d2_lattice):
    torus, mult = d2_lattice
    f = mult.field
    coords = CanonicalFormCoords(a=f.zero(), b=f.zero())
    assert choose_sqrt_basis(torus, mult).values(coords) == (F(0), F(0))


def test_lambda_spec_lattice_roundtrip(d2_lattice):
    torus, mult = d2_lattice
    lam = choose_sqrt_basis(torus, mult)
    one = mult.field.one()
    coords = CanonicalFormCoords(a=one, b=one)
    u, v = lam.values(coords)
    back = lam.inverse(u, v)
    assert back.a == one and back.b == one


def test_e_table_identities(d2_lattice):
    torus, mult = d2_lattice
    lam = choose_sqrt_basis(torus, mult)
    f = mult.field
    for a, b in ((1, 0), (0, 1), (2, 3)):
        coords = CanonicalFormCoords(a=f.rational(a), b=f.rational(b))
        values, expected, holds = e_table(lam, coords)
        assert holds
        assert values["e1,De1"].is_zero()
        assert values["e2,De2"].is_zero()
        assert values["e2,De1"] == -values["e1,De2"]
        assert values["De1,De2"] == values["e1,e2"] * mult.d


def test_lambda_requires_basis(d2_lattice):
    torus, mult = d2_lattice
    f = mult.field
    coords = CanonicalFormCoords(a=f.one(), b=f.one())
    e1 = (F(1), F(0), F(0), F(0))
    de1 = (F(0), F(0), F(1), F(0))   # De1 is in the Q(sqrt d) span of e1
    with pytest.raises(NotABasis):
        LambdaMap(torus, mult, e1, de1).values(coords)


@pytest.mark.parametrize("lattice", ["d2_lattice", "cm_product"])
def test_lambda_map_object_roundtrip(lattice, request):
    torus, mult = request.getfixturevalue(lattice)
    lam = choose_sqrt_basis(torus, mult)
    for u, v in ((F(1), F(0)), (F(-3, 4), F(5, 7)), (F(0), F(9, 2))):
        coords = lam.inverse(u, v)
        assert lam.values(coords) == (u, v)
        assert choose_sqrt_basis(torus, mult).inverse(u, v) == coords
        assert choose_sqrt_basis(torus, mult).values(coords) == (u, v)
    e1 = (F(1), F(0), F(0), F(0))
    with pytest.raises(NotABasis):
        LambdaMap(torus, mult, e1, mult.r_times(e1))


@settings(max_examples=25, deadline=None)
@given(un=st.integers(-9, 9), ud=st.integers(1, 9),
       vn=st.integers(-9, 9), vd=st.integers(1, 9))
def test_lambda_roundtrip_rational_pairs(d2_lattice, un, ud, vn, vd):
    torus, mult = d2_lattice
    lam = choose_sqrt_basis(torus, mult)
    u, v = F(un, ud), F(vn, vd)
    coords = lam.inverse(u, v)
    assert lam.values(coords) == (u, v)


# ---------------------------------------------------------------------------
# polarization search and algebraicity
# ---------------------------------------------------------------------------

def test_polarization_product(cm_product):
    torus, _ = cm_product
    pol = polarization_search(compute_ns(torus))
    assert pol is not None
    assert is_positive_definite(pol.herm)


def test_polarization_inside_nd_for_positive_d(d2_lattice):
    torus, mult = d2_lattice
    nd = compute_N_D(compute_ns(torus), mult)
    pol = polarization_search(nd)
    assert pol is not None
    assert is_positive_definite(pol.herm)
    coords = canonical_form_coordinates(mult, pol.herm)  # stays in N_D
    from toruslab.exactfield import exact_sign
    assert exact_sign(coords.a) > 0 and exact_sign(coords.b) > 0


def test_no_polarization_example2(example2_m1_n2):
    torus, _ = example2_m1_n2
    assert polarization_search(compute_ns(torus)) is None


def test_is_algebraic_trichotomy(cm_product, example1_m1, example2_m1_n2,
                                 generic_rank0_torus):
    torus, mult = cm_product
    assert is_algebraic(torus, mults=[mult]).status == "algebraic"
    t1, m1 = example1_m1
    v1 = is_algebraic(t1, mults=[m1])
    assert v1.status == "not-algebraic"
    assert v1.certificate["kind"] == "antidiagonal-obstruction"
    t2, m2 = example2_m1_n2
    v2 = is_algebraic(t2, mults=[m2])
    assert v2.status == "not-algebraic"
    assert v2.certificate["kind"] == "pfaffian-nonpositive"
    v0 = is_algebraic(generic_rank0_torus)
    assert v0.status == "not-algebraic"
    assert v0.certificate["kind"] == "ns-rank-0"


def test_algebraic_d_positive(d2_lattice):
    torus, mult = d2_lattice
    verdict = is_algebraic(torus, mults=[mult])
    assert verdict.status == "algebraic"


# ---------------------------------------------------------------------------
# NS -> symmetric endomorphisms
# ---------------------------------------------------------------------------

def test_ns_to_symmetric_endo_product(cm_product):
    torus, _ = cm_product
    ring = compute_endo_ring(torus)
    ns = compute_ns(torus)
    h0 = Mat.identity(torus.field, 2)
    ros = rosati_involution(ring, h0)
    idc = [F(1)] + [F(0)] * (ring.rank - 1)
    assert list(ns_to_symmetric_endo(HermForm(h0), ros, ns, h0)) == idc
    images = [tuple(ns_to_symmetric_endo(h, ros, ns, h0)) for _, h in ns.basis]
    assert len(set(images)) == 4


def test_ns_to_symmetric_endo_rejects_outsiders(cm_product):
    torus, _ = cm_product
    ring = compute_endo_ring(torus)
    ns = compute_ns(torus)
    h0 = Mat.identity(torus.field, 2)
    ros = rosati_involution(ring, h0)
    f, s2 = sqrt_element(torus.field, 2)
    outside = HermForm(Mat.diagonal([f.one(), s2]))
    with pytest.raises(NotInEndo):
        ns_to_symmetric_endo(outside, ros, ns, h0)


def test_ns_membership_coords(cm_product):
    torus, _ = cm_product
    ns = compute_ns(torus)
    for k, (_, herm) in enumerate(ns.basis):
        coords = ns_membership_coords(ns, herm)
        assert coords == [F(1) if j == k else F(0) for j in range(ns.rank)]


def test_polarization_search_is_deterministic(cm_product):
    torus, _ = cm_product
    ns = compute_ns(torus)
    p1 = polarization_search(ns)
    p2 = polarization_search(ns)
    assert p1.coords == p2.coords and p1.alt.E == p2.alt.E
