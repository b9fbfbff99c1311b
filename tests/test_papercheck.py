import json
import pathlib
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from toruslab import cli, endo, neronseveri, papercheck
from toruslab.errors import (
    IndependenceSuspect,
    PerfectSquare,
    SquareProduct,
)
from toruslab.exactfield import GeneratorSpec
from toruslab.linalg import Mat
from toruslab.papercheck import (
    example1,
    example2,
    random_torus_with_sqrt_d,
    scalar_cm_product,
    verify_corollaries,
    verify_proposition,
)
from toruslab.torus import attach_multiplication
from conftest import CBRT3_SPEC, TORI
from oracle_helpers import complex_structure

DATA = pathlib.Path(__file__).resolve().parent / "data"


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_example1_variants():
    t, m = example1(2, CBRT3_SPEC)
    assert m.d == -2 and not m.is_scalar
    from toruslab.endo import classify_algebra, compute_endo_ring
    ring = compute_endo_ring(t)
    assert ring.rank == 2
    cls = classify_algebra(ring)
    assert cls.tag == "ImaginaryQuadratic" and cls.discriminant_data == (-2,)


def test_example1_dependent_r_rejected():
    fake_one = GeneratorSpec("r", (F(-1), F(0), F(1)),
                             (F(1, 2), F(3, 2)), (F(0), F(0)), "real")
    with pytest.raises(IndependenceSuspect):
        example1(1, fake_one)


def test_example2_square_product_rejected():
    with pytest.raises(SquareProduct):
        example2(1, 4)


def test_example2_m2_n3_classification():
    from toruslab.endo import classify_algebra, compute_endo_ring
    t, m = example2(2, 3)
    assert m.d == -2
    assert classify_algebra(compute_endo_ring(t)).tag == "DefiniteQuaternion"


def test_scalar_cm_product_ranks():
    from toruslab.endo import compute_endo_ring
    from toruslab.neronseveri import compute_ns
    for m in (1, 2):
        t = scalar_cm_product(m)
        assert compute_endo_ring(t).rank == 8
        assert compute_ns(t).rank == 4


def test_random_torus_determinism():
    t1, m1 = random_torus_with_sqrt_d(-5, 7)
    t2, m2 = random_torus_with_sqrt_d(-5, 7)
    assert t1.period.entries == t2.period.entries
    assert m1.R == m2.R
    t3, _ = random_torus_with_sqrt_d(-5, 8)
    assert t3.period.entries != t1.period.entries


def test_random_torus_square_d_rejected():
    with pytest.raises(PerfectSquare):
        random_torus_with_sqrt_d(4, 1)


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def test_verify_proposition_positive_d():
    t, m = random_torus_with_sqrt_d(3, 5)
    report = verify_proposition(t, m, seed=5)
    assert all(c.status == "verified" for c in report.claims)
    ids = [c.claim_id for c in report.claims]
    assert "proposition.positive-definite-in-nd" in ids


def test_verify_proposition_negative_d(example1_m1):
    t, m = example1_m1
    report = verify_proposition(t, m)
    assert all(c.status == "verified" for c in report.claims)
    ids = [c.claim_id for c in report.claims]
    assert "proposition.antidiagonal-on-nd-basis" in ids


def test_verify_proposition_scalar_skips(cm_product):
    torus, _ = cm_product
    i = torus.field.i()
    scalar = attach_multiplication(torus, Mat.diagonal([i, i]), -1)
    report = verify_proposition(torus, scalar)
    assert all(c.status == "skipped" and c.reason == "ScalarD"
               for c in report.claims)


def test_verify_corollaries_product(cm_product):
    torus, mult = cm_product
    report = verify_corollaries(torus, [mult])
    by_id = {c.claim_id: c for c in report.claims}
    assert by_id["corollary1.algebraic"].status == "skipped"
    for cid in ("corollary2.ns-rank-ge-3", "corollary2.h0-outside-nd",
                "corollary2.h0-plus-nd-direct-sum",
                "corollary3.symmetric-dim-ge-3",
                "corollary3.real-multiplication"):
        assert by_id[cid].status == "verified", cid
    assert by_id["corollary2.ns-rank-ge-3"].witness["ns_rank"] == 4
    rm = by_id["corollary3.real-multiplication"].witness
    assert rm["d_prime"] > 1 and rm["d_dblprime"] > 0


def test_verify_corollaries_positive_d():
    t, m = random_torus_with_sqrt_d(3, 2)
    report = verify_corollaries(t, [m])
    by_id = {c.claim_id: c for c in report.claims}
    assert by_id["corollary1.algebraic"].status == "verified"
    assert by_id["corollary2.ns-rank-ge-3"].status == "skipped"


def test_verify_corollaries_example2_skips(example2_m1_n2):
    t, m = example2_m1_n2
    report = verify_corollaries(t, [m])
    assert not report.refuted()
    skipped = [c for c in report.claims if c.status == "skipped"]
    assert any(c.reason == "NotAlgebraic" for c in skipped)


def test_report_determinism():
    t, m = random_torus_with_sqrt_d(-2, 4)
    r1 = verify_proposition(t, m, seed=4)
    r2 = verify_proposition(t, m, seed=4)
    assert json.dumps(r1.to_dict(), sort_keys=True) == \
        json.dumps(r2.to_dict(), sort_keys=True)


def test_witnesses_recheckable(example1_m1):
    # the N_D witness matrices must satisfy their defining equations
    t, m = example1_m1
    report = verify_proposition(t, m)
    by_id = {c.claim_id: c for c in report.claims}
    basis_e = by_id["proposition.nd-rank-2"].witness["basis_E"]
    f = t.field
    j = complex_structure(t)
    for e_rows in basis_e:
        e_mat = Mat.from_rows([[f.rational(v) for v in row] for row in e_rows])
        assert j.transpose() @ e_mat @ j == e_mat
        for r in range(4):
            for c in range(4):
                assert e_rows[r][c] == -e_rows[c][r]


@pytest.mark.parametrize("d, seed", [(-2, 1), (-5, 1), (3, 2)])
def test_verify_proposition_matches_golden_report(d, seed):
    # reports captured from the per-pair lambda_inverse/lambda_values round trip
    t, m = random_torus_with_sqrt_d(d, seed)
    golden = json.loads((DATA / f"verify_prop_random_d{d}_seed{seed}.json").read_text())
    assert verify_proposition(t, m, seed=seed).to_dict() == golden


def test_polarization_search_runs_once(cm_product, monkeypatch):
    torus, mult = cm_product
    search = neronseveri.polarization_search
    calls = []

    def counted(ns):
        calls.append(ns)
        return search(ns)

    for mod in (neronseveri, papercheck, cli):
        monkeypatch.setattr(mod, "polarization_search", counted, raising=False)

    class Doc:
        def realize(self):
            return torus, [mult]

    out, _ = cli._cmd_polarize(Doc(), SimpleNamespace(seed=0, precision=128))
    assert out["witnesses"]["verdict"] == "algebraic"
    assert len(calls) == 1
    calls.clear()
    report = verify_corollaries(torus, [mult])
    assert [c.claim_id for c in report.claims if c.status == "skipped"][0] == "corollary1.algebraic"
    assert not report.refuted()
    assert len(calls) == 1

    ns = neronseveri.compute_ns(torus)
    verdict = neronseveri.is_algebraic(torus, mults=[mult])
    assert verdict.polarization == search(ns)


def test_lambda_roundtrip_refutes_a_corrupted_det_inv(monkeypatch):
    # values() never goes through det_inv, so a wrong inverse cannot hide
    torus, mult = random_torus_with_sqrt_d(-1, 1)
    init = neronseveri.LambdaMap.__init__

    def corrupted_init(self, *args):
        init(self, *args)
        self.det_inv = self.det_inv * 2

    claim_id = "proposition.lambda-roundtrip"
    honest = {c.claim_id: c for c in verify_proposition(torus, mult).claims}[claim_id]
    assert honest.status == "verified"
    monkeypatch.setattr(neronseveri.LambdaMap, "__init__", corrupted_init)
    bad = {c.claim_id: c for c in verify_proposition(torus, mult).claims}[claim_id]
    assert bad.status == "refuted"
    assert (F(bad.witness["u2"]), F(bad.witness["v2"])) == (
        2 * F(bad.witness["u"]), 2 * F(bad.witness["v"]))


def test_verify_corollaries_computes_the_symmetric_subspace_once(monkeypatch):
    calls = []
    symmetric = endo.symmetric_subspace
    monkeypatch.setattr(endo, "symmetric_subspace",
                        lambda ros: calls.append(ros) or symmetric(ros))
    t, mults = cli.parse_input((TORI / "scalar_m1.json").read_text()).realize()
    report = verify_corollaries(t, mults)
    assert [c.claim_id for c in report.claims if c.status == "verified"][-2:] == \
        ["corollary3.symmetric-dim-ge-3", "corollary3.real-multiplication"]
    assert len(calls) == 1


def test_verify_proposition_checks_each_basis_candidate_once(monkeypatch):
    """One basis check per candidate e2 tried, and the first one that passes is kept."""
    tried = []
    check = neronseveri._check_sqrt_basis
    monkeypatch.setattr(neronseveri, "_check_sqrt_basis",
                        lambda mult, e1, e2: tried.append(e2) or check(mult, e1, e2))
    generator = [tuple(int(k == j) for k in range(4)) for j in range(4)]
    for d in (2, 3, 5, -1, -2, -5):
        tried.clear()
        assert verify_proposition(*random_torus_with_sqrt_d(d, 21)).refuted() == []
        assert tried == [generator[1]]
    # on the CM products e1, e2 and De1 are dependent, so e2 is the third generator
    for stem in ("scalar_m1", "scalar_m2"):
        t, (mult,) = cli.parse_input((TORI / f"{stem}.json").read_text()).realize()
        tried.clear()
        assert verify_proposition(t, mult).refuted() == []
        assert tried == generator[1:3]
