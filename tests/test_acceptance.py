"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines and timings.  Everything asserted here is exact (zero tolerance);
the stated wall-clock targets are asserted with generous headroom.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

from toruslab.endo import classify_algebra, compute_endo_ring
from toruslab.linalg import Mat, hnf
from toruslab.neronseveri import compute_ns, is_algebraic, is_positive_definite
from toruslab.papercheck import (
    example1,
    example2,
    random_torus_with_sqrt_d,
    scalar_cm_product,
    verify_corollaries,
    verify_proposition,
)

from conftest import CBRT3_SPEC, TORI
from oracle_helpers import endo_box_oracle, oracle_ns_rank, ring_box_intersection

D_VALUES = (2, 3, 5, -1, -2, -5)
SEEDS = tuple(range(1, 21))


def _criterion(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status}"
          + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {number} ({name}) failed {detail}"


def _scalar_mat(v):
    return tuple(tuple(v if a == b else 0 for b in range(4)) for a in range(4))


def _mat_mul(x, y):
    return tuple(tuple(sum(x[r][k] * y[k][c] for k in range(4)) for c in range(4))
                 for r in range(4))


@pytest.fixture(scope="module")
def proposition_suite():
    """All 120 seeded runs of the proposition verifier, with verdicts."""
    t0 = time.time()
    runs = []
    for d in D_VALUES:
        for seed in SEEDS:
            torus, mult = random_torus_with_sqrt_d(d, seed)
            ns = compute_ns(torus)
            report = verify_proposition(torus, mult, seed=seed, ns=ns)
            verdict = (is_algebraic(torus, mults=[mult], seed=seed, ns=ns)
                       if d > 0 else None)
            runs.append({"d": d, "seed": seed, "report": report,
                         "ns": ns, "verdict": verdict})
    elapsed = time.time() - t0
    print(f"\n[acceptance] proposition suite: {len(runs)} runs "
          f"in {elapsed:.1f}s")
    return {"runs": runs, "elapsed": elapsed}


def test_criterion_1_example1_reproduction():
    t0 = time.time()
    ok = True
    detail = []
    for m, r_spec in ((1, None), (2, CBRT3_SPEC)):
        tc = time.time()
        torus, _ = example1(m) if r_spec is None else example1(m, r_spec)
        ring = compute_endo_ring(torus)
        cls = classify_algebra(ring)
        case_ok = (ring.rank == 2 and cls.tag == "ImaginaryQuadratic"
                   and cls.discriminant_data == (-m,))
        case_time = time.time() - tc
        ok = ok and case_ok and case_time < 10
        detail.append(f"m={m}: rank={ring.rank} tag={cls.tag} "
                      f"data={cls.discriminant_data} {case_time:.2f}s")
    _criterion(1, "Example 1 reproduction", ok, "; ".join(detail))


def test_criterion_2_example2_reproduction():
    ok = True
    detail = []
    for m, n in ((1, 2), (2, 3)):
        tc = time.time()
        torus, _ = example2(m, n)
        ring = compute_endo_ring(torus)
        cls = classify_algebra(ring)
        f = torus.field
        i, one, zero = f.i(), f.one(), f.zero()
        _, mu = _sqrt_in(f, -m)
        _, nu = _sqrt_in(f, -n)
        i_mat = Mat.diagonal([mu, -mu])
        j_mat = Mat.from_rows([[zero, one + nu * 2], [-one + nu * 2, zero]])
        k_mat = i_mat @ j_mat
        rs = [_rational_rep_int(torus, a) for a in
              (Mat.identity(f, 2), i_mat, j_mat, k_mat)]
        lattice_equal = (hnf([[v for row in r for v in row] for r in rs])
                         == hnf(ring.basis_vecs()))
        relations = (
            _mat_mul(rs[1], rs[1]) == _scalar_mat(-m)
            and _mat_mul(rs[2], rs[2]) == _scalar_mat(-1 - 4 * n)
            and _mat_mul(rs[1], rs[2])
            == tuple(tuple(-v for v in row) for row in _mat_mul(rs[2], rs[1]))
            and rs[3] == _mat_mul(rs[1], rs[2])
        )
        case_time = time.time() - tc
        case_ok = (ring.rank == 4 and lattice_equal and relations
                   and cls.tag == "DefiniteQuaternion" and case_time < 30)
        ok = ok and case_ok
        detail.append(f"(m,n)=({m},{n}): rank={ring.rank} "
                      f"unimodular={lattice_equal} relations={relations} "
                      f"tag={cls.tag} {case_time:.2f}s")
    _criterion(2, "Example 2 reproduction", ok, "; ".join(detail))


def _sqrt_in(field, n):
    from toruslab.exactfield import sqrt_element
    f2, root = sqrt_element(field, n)
    assert f2 == field, "field already contains the root"
    return f2, root


def _rational_rep_int(torus, a):
    from toruslab.endo import _rational_rep
    rows = _rational_rep(torus, a)
    return tuple(tuple(int(v) for v in row) for row in rows)


def test_criterion_3_scalar_case():
    ok = True
    detail = []
    for m in (1, 2):
        tc = time.time()
        torus = scalar_cm_product(m)
        ring = compute_endo_ring(torus)
        cls = classify_algebra(ring)
        ns = compute_ns(torus)
        case_time = time.time() - tc
        case_ok = (ring.rank == 8 and cls.tag == "MatrixAlgebraOverQuadratic"
                   and ns.rank == 4 and case_time < 30)
        ok = ok and case_ok
        detail.append(f"m={m}: end_rank={ring.rank} tag={cls.tag} "
                      f"ns_rank={ns.rank} {case_time:.2f}s")
    _criterion(3, "scalar case", ok, "; ".join(detail))


def test_criterion_4_proposition_suite(proposition_suite):
    runs = proposition_suite["runs"]
    refuted = sum(len(r["report"].refuted()) for r in runs)
    rank_ok = all(
        next(c for c in r["report"].claims
             if c.claim_id == "proposition.nd-rank-2").status == "verified"
        for r in runs)
    dichotomy_ok = True
    for r in runs:
        want = ("proposition.positive-definite-in-nd" if r["d"] > 0
                else "proposition.antidiagonal-on-nd-basis")
        claim = next(c for c in r["report"].claims if c.claim_id == want)
        dichotomy_ok = dichotomy_ok and claim.status == "verified"
    in_time = proposition_suite["elapsed"] < 600
    _criterion(4, "proposition suite",
               refuted == 0 and rank_ok and dichotomy_ok and in_time,
               f"120 runs, refuted={refuted}, "
               f"elapsed={proposition_suite['elapsed']:.1f}s")


def test_criterion_5_e_table_and_lambda(proposition_suite):
    runs = proposition_suite["runs"]
    table_ok = all(
        next(c for c in r["report"].claims
             if c.claim_id == "proposition.e-table").status == "verified"
        for r in runs)
    lambda_ok = all(
        next(c for c in r["report"].claims
             if c.claim_id == "proposition.lambda-roundtrip").status == "verified"
        for r in runs)
    _criterion(5, "value table and lambda bijectivity", table_ok and lambda_ok,
               f"table={table_ok} lambda={lambda_ok} over {len(runs)} runs")


def test_criterion_6_corollary_1(proposition_suite):
    runs = [r for r in proposition_suite["runs"] if r["d"] > 0]
    ok = True
    recheck = True
    for r in runs:
        v = r["verdict"]
        ok = ok and v is not None and v.status == "algebraic" \
            and v.certificate["kind"] == "positive-definite-form"
        coords = v.certificate["coords"]
        _, herm = r["ns"].combination(coords)
        recheck = recheck and is_positive_definite(herm)
    _criterion(6, "Corollary 1 (d > 0 is algebraic)", ok and recheck,
               f"{len(runs)} certificates re-verified exactly")


def test_criterion_7_corollaries_2_3(cm_product):
    tc = time.time()
    torus, mult = cm_product
    report = verify_corollaries(torus, [mult])
    by_id = {c.claim_id: c for c in report.claims}
    needed = ("corollary2.ns-rank-ge-3", "corollary2.h0-outside-nd",
              "corollary2.h0-plus-nd-direct-sum",
              "corollary3.symmetric-dim-ge-3", "corollary3.real-multiplication")
    ok = all(by_id[cid].status == "verified" for cid in needed)
    ns_rank = by_id["corollary2.ns-rank-ge-3"].witness["ns_rank"]
    rm = by_id["corollary3.real-multiplication"].witness
    beta = tuple(tuple(v for v in row) for row in rm["beta_R"])
    beta_sq_ok = _mat_mul(beta, beta) == _scalar_mat(rm["d_dblprime"])
    elapsed = time.time() - tc
    _criterion(7, "Corollaries 2 and 3 on the CM product",
               ok and ns_rank == 4 and beta_sq_ok and elapsed < 60,
               f"ns_rank={ns_rank} d'={rm['d_prime']} "
               f"beta^2=d''I={beta_sq_ok} {elapsed:.2f}s")


def test_criterion_8_non_algebraicity(example1_m1, example2_m1_n2):
    t1, m1 = example1_m1
    v1 = is_algebraic(t1, mults=[m1])
    ns1 = compute_ns(t1)
    t2, m2 = example2_m1_n2
    v2 = is_algebraic(t2, mults=[m2])
    ns2 = compute_ns(t2)
    ok = (v1.status == "not-algebraic"
          and v1.certificate["kind"] == "antidiagonal-obstruction"
          and v2.status == "not-algebraic"
          and v2.certificate["kind"] == "pfaffian-nonpositive"
          and ns1.rank == oracle_ns_rank(t1) == 2
          and ns2.rank == oracle_ns_rank(t2) == 3)
    _criterion(8, "non-algebraicity with structural certificates", ok,
               f"example1: {v1.certificate['kind']} ns={ns1.rank}; "
               f"example2: {v2.certificate['kind']} ns={ns2.rank}")


def test_criterion_9_oracle_equivalence(example1_m1):
    t1, _ = example1_m1
    ring1 = compute_endo_ring(t1)
    eq1 = endo_box_oracle(t1, 1) == ring_box_intersection(ring1, 1)
    ts = scalar_cm_product(1)
    rings = compute_endo_ring(ts)
    eq2 = endo_box_oracle(ts, 1) == ring_box_intersection(rings, 1)
    _criterion(9, "brute-force oracle equivalence", eq1 and eq2,
               f"example1={eq1} scalar={eq2}")


def test_criterion_10_cli_contract(tmp_path):
    bundled = str(TORI / "random_d2_seed1.json")
    base = [sys.executable, "-m", "toruslab.cli"]
    r_ok = subprocess.run(base + ["verify-prop", bundled, "--mult", "0"],
                          capture_output=True)
    doc = json.loads((TORI / "random_d2_seed1.json").read_text())
    doc["period"][0][3] = doc["period"][0][3] + " + 1"
    bad = tmp_path / "corrupt.json"
    bad.write_text(json.dumps(doc))
    r_bad = subprocess.run(base + ["verify-prop", str(bad), "--mult", "0"],
                           capture_output=True, text=True)
    j1 = subprocess.run(base + ["--json", "verify-prop", bundled, "--mult", "0"],
                        capture_output=True)
    j2 = subprocess.run(base + ["--json", "verify-prop", bundled, "--mult", "0"],
                        capture_output=True)
    ok = (r_ok.returncode == 0
          and r_bad.returncode == 2
          and "NotAnEndomorphism" in r_bad.stderr
          and j1.returncode == 0
          and j1.stdout == j2.stdout and j1.stdout.strip() != b"")
    _criterion(10, "CLI contract", ok,
               f"verify={r_ok.returncode} corrupt={r_bad.returncode} "
               f"json-identical={j1.stdout == j2.stdout}")
