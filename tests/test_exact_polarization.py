"""Exact polarization: the Lagrange reduction, the Pfaffian identity and the refutation."""

from fractions import Fraction as F

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from toruslab import neronseveri, papercheck
from toruslab.cli import parse_input
from toruslab.endo import is_positive_definite
from toruslab.errors import InvariantViolation
from toruslab.neronseveri import (
    _positive_vector,
    check_pfaffian_identity,
    compute_N_D,
    compute_ns,
    is_algebraic,
    orientation_sign,
    polarization_search,
)
from toruslab.papercheck import (
    example2,
    random_torus_with_sqrt_d,
    scalar_cm_product,
    verify_proposition,
)

from conftest import TORI
from oracle_helpers import big_period_matrix, is_negative_semidefinite, real_det_from_c

_SMALL = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices of size 1-6, with planted semidefinite and zero-row cases."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["random", "negative-diagonal", "minus-gram"]))
    if kind == "minus-gram":
        # -A^t A is negative semidefinite, singular when A has fewer rows
        k = draw(st.integers(1, n))
        a = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(k)]
        q = [[-F(sum(a[r][i] * a[r][j] for r in range(k))) for j in range(n)]
             for i in range(n)]
    else:
        q = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                q[i][j] = q[j][i] = draw(_SMALL)
        if kind == "negative-diagonal":
            # no positive and no zero diagonal entry: only the recursion decides
            for i in range(n):
                q[i][i] = -draw(st.fractions(min_value=F(1, 4), max_value=6,
                                             max_denominator=4))
    zero = draw(st.lists(st.integers(0, n - 1), max_size=n - 1))
    for z in zero:
        for j in range(n):
            q[z][j] = q[j][z] = F(0)
    return q


def _value(q, v):
    n = len(q)
    return sum(v[i] * q[i][j] * v[j] for i in range(n) for j in range(n))


@seed(1998)
@settings(max_examples=300, deadline=None)
@given(q=symmetric_matrices())
def test_positive_vector_matches_the_minor_oracle(q):
    v = _positive_vector(q)
    if is_negative_semidefinite(q):
        assert v is None
    else:
        assert v is not None and _value(q, v) > 0


@pytest.mark.parametrize("q, positive", [
    ([[F(-1), F(2)], [F(2), F(-1)]], True),                       # recursion needed
    ([[F(-1), F(1)], [F(1), F(-1)]], False),                      # singular, NSD
    ([[F(0), F(0)], [F(0), F(-3)]], False),                       # a zero row
    ([[F(0), F(1, 3)], [F(1, 3), F(-5)]], True),                  # zero diagonal, t = 8
    ([[F(-2), F(1), F(0)], [F(1), F(-2), F(3)], [F(0), F(3), F(-1)]], True),
])
def test_positive_vector_small_cases(q, positive):
    v = _positive_vector(q)
    assert (v is not None) == positive
    if positive:
        assert _value(q, v) > 0


def _sigma_gram(lat):
    sigma = orientation_sign(lat.torus)
    return [[sigma * g for g in row] for row in lat.pfaffian_gram()]


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, -1, -5])
def test_search_finds_a_form_iff_sigma_gram_is_not_nsd(d):
    for s in range(1, 6):
        torus, mult = random_torus_with_sqrt_d(d, s)
        ns = compute_ns(torus)
        for lat in (ns, compute_N_D(ns, mult)):
            pol = polarization_search(lat)
            assert (pol is None) == is_negative_semidefinite(_sigma_gram(lat)), (d, s)
            if pol is not None:
                assert is_positive_definite(pol.herm)
                assert lat.combination(pol.coords) == (pol.alt, pol.herm)


def _identity_lattices():
    t1, m1 = random_torus_with_sqrt_d(2, 1)
    t2, m2 = random_torus_with_sqrt_d(-5, 2)
    ns1, ns2 = compute_ns(t1), compute_ns(t2)
    return [ns1, compute_N_D(ns1, m1), ns2, compute_N_D(ns2, m2),
            compute_ns(scalar_cm_product(3)), compute_ns(example2(1, 2)[0])]


def test_real_det_is_a_quarter_of_det_p():
    # C = T P' for the row change Re = (x + conj x) / 2, Im = (x - conj x) / 2i
    for lat in _identity_lattices():
        t = lat.torus
        assert t.real_det * 4 == big_period_matrix(t).det()


def test_real_det_matches_the_real_coordinate_matrix():
    # build_torus keeps det C from its elimination; the reference builds C and takes det
    tori = [parse_input(p.read_text()).realize()[0] for p in sorted(TORI.glob("*.json"))]
    assert len(tori) == 8
    tori += [random_torus_with_sqrt_d(d, s)[0]
             for d in (2, 3, 5, -1, -2, -5) for s in (3, 4)]
    for t in tori:
        assert t.real_det == real_det_from_c(t)
        # P = M C with det M = 4
        assert big_period_matrix(t).det() * F(1, 4) == t.real_det


def test_pfaffian_identity_holds_and_catches_corruption():
    for lat in _identity_lattices():
        gram = lat.pfaffian_gram()
        det_c = lat.torus.real_det
        check_pfaffian_identity(lat, gram, det_c)
        # a flipped orientation sigma, i.e. -det C
        with pytest.raises(InvariantViolation):
            check_pfaffian_identity(lat, gram, -det_c)
        for a in range(lat.rank):
            for b in range(a, lat.rank):
                bumped = [row[:] for row in gram]
                bumped[a][b] += F(1, 2)
                bumped[b][a] = bumped[a][b]
                with pytest.raises(InvariantViolation):
                    check_pfaffian_identity(lat, bumped, det_c)


def test_a_wrong_orientation_fails_certification(monkeypatch):
    # with sigma flipped the reduction returns an indefinite form
    torus, mult = random_torus_with_sqrt_d(2, 1)
    nd = compute_N_D(compute_ns(torus), mult)
    sigma = orientation_sign(torus)
    monkeypatch.setattr(neronseveri, "orientation_sign", lambda t: -sigma)
    with pytest.raises(InvariantViolation):
        polarization_search(nd)


def test_pfaffian_certificate_of_a_non_algebraic_torus():
    torus, mult = example2(1, 2)
    ns = compute_ns(torus)
    verdict = is_algebraic(torus, mults=[mult])
    assert verdict.status == "not-algebraic"
    cert = verdict.certificate
    assert cert["kind"] == "pfaffian-nonpositive"
    assert cert["sigma"] == orientation_sign(torus)
    assert cert["gram"] == [[str(v) for v in row] for row in ns.pfaffian_gram()]
    assert is_negative_semidefinite(_sigma_gram(ns))


def test_nd_without_positive_form_is_refuted(monkeypatch):
    torus, mult = random_torus_with_sqrt_d(3, 2)
    monkeypatch.setattr(papercheck, "polarization_search", lambda ns, seed=0: None)
    report = verify_proposition(torus, mult, seed=2)
    claim = {c.claim_id: c for c in report.claims}["proposition.positive-definite-in-nd"]
    assert claim.status == "refuted"
    nd = compute_N_D(compute_ns(torus), mult)
    assert claim.witness == {
        "kind": "pfaffian-nonpositive",
        "sigma": orientation_sign(torus),
        "gram": [[str(v) for v in row] for row in nd.pfaffian_gram()],
    }
    assert report.refuted() == [claim]
