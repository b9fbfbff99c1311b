from fractions import Fraction as F

import pytest

from toruslab.endo import (
    classify_algebra,
    compute_endo_ring,
    find_real_multiplication,
    min_poly_rational_matrix,
    rosati_involution,
    symmetric_subspace,
)
from toruslab.errors import (
    NoSuchElement,
    NotPolarization,
)
from toruslab.exactfield import GeneratorSpec, NumberField
from toruslab.linalg import Mat, hnf
from toruslab.papercheck import example2, scalar_cm_product

from oracle_helpers import (
    BoundTooLarge,
    element_a,
    endo_box_oracle,
    ring_box_intersection,
    rosati_apply,
)


def _mat_mul(x, y):
    return tuple(tuple(sum(x[r][k] * y[k][c] for k in range(4)) for c in range(4))
                 for r in range(4))


def _scalar_mat(v):
    return tuple(tuple(v if a == b else 0 for b in range(4)) for a in range(4))


# ---------------------------------------------------------------------------
# ring computation
# ---------------------------------------------------------------------------

def test_example1_ring(example1_m1):
    torus, _ = example1_m1
    ring = compute_endo_ring(torus)
    assert ring.rank == 2
    assert ring.basis[0].R == _scalar_mat(1)
    # the non-identity generator squares to -1: End = Z[sqrt(-1)]
    assert _mat_mul(ring.basis[1].R, ring.basis[1].R) == _scalar_mat(-1)
    assert min_poly_rational_matrix(ring.basis[1].R) == (F(1), F(0), F(1))


def test_example2_ring_and_relations(example2_m1_n2):
    torus, _ = example2_m1_n2
    ring = compute_endo_ring(torus)
    assert ring.rank == 4
    f = torus.field
    i, one, zero = f.i(), f.one(), f.zero()
    nu = i * f.gen("sqrt2")
    i_mat = Mat.diagonal([i, -i])
    j_mat = Mat.from_rows([[zero, one + nu * 2], [-one + nu * 2, zero]])
    k_mat = i_mat @ j_mat
    expected = [Mat.identity(f, 2), i_mat, j_mat, k_mat]
    expected_r = []
    pi = torus.period.entries
    q1 = torus.right_inverse()
    for a in expected:
        r = torus.big_p_inv @ Mat.from_rows([
            [a[0, 0], a[0, 1], zero, zero],
            [a[1, 0], a[1, 1], zero, zero],
            [zero, zero, a[0, 0].conjugate(), a[0, 1].conjugate()],
            [zero, zero, a[1, 0].conjugate(), a[1, 1].conjugate()],
        ]) @ torus.big_p
        expected_r.append([int(r[x, y].rational_value()) for x in range(4)
                           for y in range(4)])
    # same lattice: the computed basis is a unimodular change of {1, I, J, K}
    assert hnf(expected_r) == hnf(ring.basis_vecs())


def test_scalar_case_rank_8(gauss_field):
    torus = scalar_cm_product(1)
    ring = compute_endo_ring(torus)
    assert ring.rank == 8
    cls = classify_algebra(ring)
    assert cls.tag == "MatrixAlgebraOverQuadratic"
    assert cls.discriminant_data == (-1,)


def test_structure_constants_closure(example2_m1_n2):
    torus, _ = example2_m1_n2
    ring = compute_endo_ring(torus)
    tensor = ring.structure
    # identity row: 1 * b_j = b_j
    for j in range(ring.rank):
        assert tensor[0][j] == tuple(1 if k == j else 0 for k in range(ring.rank))
    # exactness: recompute one product by hand
    prod = _mat_mul(ring.basis[1].R, ring.basis[2].R)
    recon = [[0] * 4 for _ in range(4)]
    for k, c in enumerate(tensor[1][2]):
        for a in range(4):
            for b in range(4):
                recon[a][b] += c * ring.basis[k].R[a][b]
    assert prod == tuple(map(tuple, recon))


def test_classification_examples(example1_m1):
    torus, _ = example1_m1
    assert classify_algebra(compute_endo_ring(torus)).tag == "ImaginaryQuadratic"
    t2, _ = example2(2, 3)
    cls = classify_algebra(compute_endo_ring(t2))
    assert cls.tag == "DefiniteQuaternion"


def test_rank_one_ring_is_rational(generic_rank0_torus):
    ring = compute_endo_ring(generic_rank0_torus)
    assert ring.rank == 1
    assert classify_algebra(ring).tag == "RationalField"


def test_real_quadratic_classification():
    from toruslab.papercheck import random_torus_with_sqrt_d
    torus, _ = random_torus_with_sqrt_d(2, 1)
    cls = classify_algebra(compute_endo_ring(torus))
    assert cls.tag == "RealQuadratic"
    assert cls.discriminant_data == (2,)


def test_cm_field_classification():
    # Z[theta] for theta = i*sqrt((5+sqrt5)/2): min poly x^4 + 5x^2 + 5,
    # the second embedding is -(3*theta + theta^3)
    spec = GeneratorSpec("z", (F(5), F(0), F(5), F(0), F(1)),
                         (F(0), F(0)), (F(3, 2), F(2)), "imaginary-negation")
    f = NumberField((spec,))
    z, one = f.gen("z"), f.one()
    z2 = -(z * 3 + z ** 3)
    pi = Mat.from_rows([
        [one, z, z ** 2, z ** 3],
        [one, z2, z2 ** 2, z2 ** 3],
    ])
    from toruslab.torus import PeriodMatrix, build_torus
    torus = build_torus(PeriodMatrix(pi))
    ring = compute_endo_ring(torus)
    assert ring.rank == 4
    cls = classify_algebra(ring)
    assert cls.tag == "CMField"
    assert 5 in cls.discriminant_data


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def test_oracle_contains_identity_diagonal(cm_product):
    torus, _ = cm_product
    diag = endo_box_oracle(torus, 1, shape="diagonal")
    assert _scalar_mat(1) in diag


def test_oracle_equivalence_example1(example1_m1):
    torus, _ = example1_m1
    ring = compute_endo_ring(torus)
    oracle = endo_box_oracle(torus, 1)
    assert oracle == ring_box_intersection(ring, 1)
    # the paper's description: diagonal n1 + n2*sqrt(-1) with small entries
    assert len(oracle) == 9


def test_oracle_bound_guard(cm_product):
    torus, _ = cm_product
    with pytest.raises(BoundTooLarge):
        endo_box_oracle(torus, 5)


# ---------------------------------------------------------------------------
# Rosati involution
# ---------------------------------------------------------------------------

def test_rosati_is_conjugate_transpose_for_product(cm_product):
    torus, _ = cm_product
    ring = compute_endo_ring(torus)
    h0 = Mat.identity(torus.field, 2)
    ros = rosati_involution(ring, h0)
    idc = [F(1)] + [F(0)] * (ring.rank - 1)
    assert rosati_apply(ros, idc) == idc
    # against H0 = identity the involution is A -> conj-transpose(A)
    for j, b in enumerate(ring.basis):
        coords = [F(1) if k == j else F(0) for k in range(ring.rank)]
        image = rosati_apply(ros, coords)
        a_img = element_a(ring, image)
        assert a_img == b.A.conj_t()


def test_rosati_rejects_example2_forms(example2_m1_n2):
    torus, _ = example2_m1_n2
    ring = compute_endo_ring(torus)
    with pytest.raises(NotPolarization):
        rosati_involution(ring, Mat.identity(torus.field, 2))
    f = torus.field
    nu = f.i() * f.gen("sqrt2")
    indefinite = Mat.from_rows([[f.one(), nu], [-nu, -f.one()]])
    with pytest.raises(NotPolarization):
        rosati_involution(ring, indefinite)


def test_symmetric_subspace_product(cm_product):
    torus, _ = cm_product
    ring = compute_endo_ring(torus)
    ros = rosati_involution(ring, Mat.identity(torus.field, 2))
    basis, dim = symmetric_subspace(ros)
    assert dim >= 3
    rm = find_real_multiplication(ros, basis)
    assert rm.d_prime > 1 and rm.d_dblprime > 0
    assert _mat_mul(rm.beta.R, rm.beta.R) == _scalar_mat(rm.d_dblprime)


def test_symmetric_dimension_one_no_real_multiplication(generic_abelian_torus):
    from toruslab.neronseveri import compute_ns, polarization_search
    ring = compute_endo_ring(generic_abelian_torus)
    assert ring.rank == 1
    pol = polarization_search(compute_ns(generic_abelian_torus))
    ros = rosati_involution(ring, pol.herm.M)
    basis, dim = symmetric_subspace(ros)
    assert dim == 1
    with pytest.raises(NoSuchElement):
        find_real_multiplication(ros, basis)


def test_find_real_multiplication_sqrt2_lattice():
    from toruslab.neronseveri import compute_ns, polarization_search
    from toruslab.papercheck import random_torus_with_sqrt_d
    torus, mult = random_torus_with_sqrt_d(2, 1)
    ring = compute_endo_ring(torus)
    pol = polarization_search(compute_ns(torus))
    ros = rosati_involution(ring, pol.herm.M)
    rm = find_real_multiplication(ros, symmetric_subspace(ros)[0])
    # End_Q = Q(sqrt 2): the recovered real multiplication is sqrt(2) itself
    assert rm.d_prime == 2


def test_endomorphisms_commute_with_complex_structure(example2_m1_n2):
    torus, _ = example2_m1_n2
    ring = compute_endo_ring(torus)
    f = torus.field
    for b in ring.basis:
        r = Mat.from_rows([[f.rational(v) for v in row] for row in b.R])
        assert r @ torus.J == torus.J @ r
