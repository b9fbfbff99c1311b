"""Explicit example builders and one-call verifiers for the main claims.

The builders reproduce the two printed example lattices (imaginary
quadratic and definite quaternion endomorphisms), the split CM product,
and seeded random test-bed lattices with a chosen square-root
multiplication.  The verifiers re-check, with exact witnesses:

  * rank N_D = 2, with the definiteness dichotomy by the sign of d,
  * the six-entry value table and the bijectivity of the lambda map,
  * algebraicity for d > 0, and the consequences for NS rank, the
    Rosati-symmetric dimension and the extracted real multiplication.

Every refutation carries an exact witness.  A claim is skipped only
where it does not apply: a scalar multiplication, no multiplication of
the sign it needs, or a torus that is not algebraic.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import (
    DegenerateLattice,
    GenerationFailed,
    PerfectSquare,
    SquareProduct,
    UncertifiedBasis,
)
from .exactfield import (
    FieldElement,
    GeneratorSpec,
    NumberField,
    certify_independence,
    is_perfect_square,
    sqrt_element,
    squarefree_decomposition,
)
from .linalg import Mat, rref
from .neronseveri import (
    CanonicalFormCoords,
    choose_sqrt_basis,
    compute_N_D,
    compute_ns,
    e_table,
    is_algebraic,
    pfaffian_certificate,
    polarization_search,
    transport_to_diagonal,
)
from .record import Record
from .torus import (
    MultiplicationDatum,
    PeriodMatrix,
    Torus,
    attach_multiplication,
    build_torus,
    sqrt_d_basis_lattice,
)

#: default real cubic parameter: the real root of x^3 - 2
DEFAULT_R_SPEC = GeneratorSpec(
    name="r",
    min_poly=(Fraction(-2), Fraction(0), Fraction(0), Fraction(1)),
    root_re=(Fraction(5, 4), Fraction(63, 50)),
    root_im=(Fraction(0), Fraction(0)),
    conj="real",
)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class Claim(Record):
    claim_id: str
    status: str                      # "verified" | "refuted" | "skipped"
    reason: str | None
    witness: dict | None

    def __init__(self, claim_id, status, reason=None, witness=None):
        object.__setattr__(self, "claim_id", claim_id)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "witness", witness)

    def to_dict(self):
        out = {"id": self.claim_id, "status": self.status}
        if self.reason is not None:
            out["reason"] = self.reason
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class VerificationReport(Record):
    claims: tuple[Claim, ...]

    def __init__(self, claims):
        object.__setattr__(self, "claims", claims)

    def refuted(self):
        return [c for c in self.claims if c.status == "refuted"]

    def to_dict(self):
        return {"claims": [c.to_dict() for c in self.claims]}


# ---------------------------------------------------------------------------
# example builders
# ---------------------------------------------------------------------------

def example1(m: int, r_spec: GeneratorSpec | None = None):
    """Lattice with End isomorphic to Z[sqrt(-m)], from a real parameter r.

    Requires 1, r*sqrt(m), r^2 to be linearly independent over Q.  r must
    be a cubic generator and the field's monomial basis is certified
    independent (`certify_independence`); either failure raises
    UncertifiedBasis.  Then 1, r^2 and r*sqrt(m) are rational multiples of
    distinct basis monomials, hence independent.  A quadratic r is refused
    because its r^2 is rational.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if r_spec is None:
        r_spec = DEFAULT_R_SPEC
    if r_spec.degree != 3:
        raise UncertifiedBasis(r_spec.name, f"r has degree {r_spec.degree}, and only "
                               "for a cubic r is r^2 a basis monomial")
    field = NumberField((r_spec,))
    field, mu = sqrt_element(field, -m)
    field, _ = sqrt_element(field, m)
    certify_independence(field)
    r = field.gen(r_spec.name)
    i = field.i()
    one = field.one()
    row1 = [one, one + r * i, mu, mu * (one + r * i)]
    row2 = [one, r * i, -mu, -mu * r * i]
    torus = build_torus(PeriodMatrix(Mat.from_rows([row1, row2])))
    mult = attach_multiplication(torus, Mat.diagonal([mu, -mu]), -m)
    return torus, mult


def example2(m: int, n: int):
    """Lattice with End a definite quaternion order Z + ZI + ZJ + ZK."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive integers")
    if is_perfect_square(m * n):
        raise SquareProduct(f"m*n = {m*n} is a perfect square")
    field = NumberField(())
    field, mu = sqrt_element(field, -m)
    field, nu = sqrt_element(field, -n)
    mu = mu.in_field(field)
    one = field.one()
    row1 = [one, one + nu, mu, mu * (one + nu)]
    row2 = [one, nu, -mu, -mu * nu]
    torus = build_torus(PeriodMatrix(Mat.from_rows([row1, row2])))
    mult = attach_multiplication(torus, Mat.diagonal([mu, -mu]), -m)
    return torus, mult


def scalar_cm_product(m: int) -> Torus:
    """(Z + Z sqrt(-m))^2: the scalar case, End of rank 8, NS of rank 4."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    field = NumberField(())
    field, mu = sqrt_element(field, -m)
    one, zero = field.one(), field.zero()
    pi = Mat.from_rows([[one, mu, zero, zero], [zero, zero, one, mu]])
    return build_torus(PeriodMatrix(pi))


def random_torus_with_sqrt_d(d: int, seed: int):
    """Seeded random lattice of the form (e1, e2, D e1, D e2).

    Entries are small rational combinations of the monomials of a field
    containing i, sqrt(d) and one extra quadratic generator.  Retries up
    to 16 degenerate draws, deterministically in the seed.
    """
    if d == 0 or (d > 0 and is_perfect_square(d)):
        raise PerfectSquare(f"d = {d} is a square")
    field = NumberField(())
    field, _ = sqrt_element(field, abs(d))
    _, d0, _ = squarefree_decomposition(abs(d))
    extra = next(p for p in (2, 3, 5, 7, 11) if p != d0)
    field, _ = sqrt_element(field, extra)
    rng = random.Random(seed)
    n = field.degree

    def draw_element():
        # coefficient k, in monomial order, is randint(-2, 2) / choice((1, 2))
        return FieldElement(field, [rng.randint(-2, 2) * (2 // rng.choice((1, 2)))
                                    for _ in range(n)], 2)

    for _ in range(16):
        e1 = (draw_element(), draw_element())
        e2 = (draw_element(), draw_element())
        try:
            return sqrt_d_basis_lattice(d, e1, e2)
        except DegenerateLattice:
            continue
    raise GenerationFailed(f"16 degenerate draws for d={d}, seed={seed}")


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def verify_proposition(t: Torus, mult: MultiplicationDatum,
                       seed: int = 0) -> VerificationReport:
    """Check rank N_D = 2, the definiteness dichotomy, the value table
    and the lambda round trip for one (torus, multiplication) pair.

    For d > 0 the definiteness claim is verified by a certified positive
    definite form in N_D, or refuted by the Pfaffian certificate of N_D.
    The value table and the round trip share one LambdaMap.  seed picks
    the 100 rational pairs of the lambda round trip; nothing else
    depends on it."""
    ids = ["proposition.nd-rank-2",
           "proposition.positive-definite-in-nd" if mult.d > 0
           else "proposition.antidiagonal-on-nd-basis",
           "proposition.e-table",
           "proposition.lambda-roundtrip"]
    if mult.is_scalar:
        return VerificationReport(tuple(
            Claim(cid, "skipped", reason="ScalarD") for cid in ids))
    claims = []
    nd = compute_N_D(compute_ns(t), mult)
    witness_nd = {"rank": nd.rank,
                  "basis_E": [[list(r) for r in alt.E] for alt, _ in nd.basis]}
    claims.append(Claim(ids[0], "verified" if nd.rank == 2 else "refuted",
                        witness=witness_nd))
    if mult.d > 0:
        pol = polarization_search(nd)
        if pol is None:
            claims.append(Claim(ids[1], "refuted", witness=pfaffian_certificate(nd)))
        else:
            claims.append(Claim(ids[1], "verified", witness={
                "coords_in_nd": list(pol.coords),
                "E": [list(r) for r in pol.alt.E],
                "M": pol.herm.M.entries_str(),
            }))
    else:
        transported = [transport_to_diagonal(mult, herm) for _, herm in nd.basis]
        bad = [mp.entries_str() for mp in transported
               if not (mp[0, 0].is_zero() and mp[1, 1].is_zero())]
        if bad:
            claims.append(Claim(ids[1], "refuted", witness={"diagonal_entries": bad}))
        else:
            claims.append(Claim(ids[1], "verified", witness={
                "transported": [mp.entries_str() for mp in transported]}))
    lam = choose_sqrt_basis(t, mult)
    table_ok = True
    table_witness = {}
    fld = mult.field
    for a, b in ((1, 0), (0, 1), (1, 1)):
        coords = CanonicalFormCoords(a=fld.rational(a), b=fld.rational(b))
        values, expected, holds = e_table(lam, coords)
        table_ok = table_ok and holds
        table_witness[f"a={a},b={b}"] = {k: str(v) for k, v in values.items()}
    claims.append(Claim(ids[2], "verified" if table_ok else "refuted",
                        witness=table_witness))
    rng = random.Random(1000003 * seed + 777)
    bad_pair = None
    for _ in range(100):
        u = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        u2, v2 = lam.values(lam.inverse(u, v))
        if not (u2 == u and v2 == v):
            bad_pair = {"u": str(u), "v": str(v), "u2": str(u2), "v2": str(v2)}
            break
    claims.append(Claim(ids[3], "verified" if bad_pair is None else "refuted",
                        witness=bad_pair or {"pairs_checked": 100}))
    return VerificationReport(tuple(claims))


def verify_corollaries(t: Torus, mults=()) -> VerificationReport:
    """Check algebraicity for d > 0 and the NS-rank / Rosati / real
    multiplication consequences when a d < 0 multiplication is present.

    Every step is deterministic, so the report depends on t and mults
    alone."""
    claims = []
    verdict = is_algebraic(t, mults=mults)
    has_positive = any(m.d > 0 for m in mults)
    negative = [m for m in mults if m.d < 0 and not m.is_scalar]

    cid1 = "corollary1.algebraic"
    if not has_positive:
        claims.append(Claim(cid1, "skipped", reason="no-positive-multiplication"))
    else:
        claims.append(Claim(cid1, "verified" if verdict.is_algebraic else "refuted",
                            witness=verdict.certificate))

    later = ["corollary2.ns-rank-ge-3", "corollary2.h0-outside-nd",
             "corollary2.h0-plus-nd-direct-sum",
             "corollary3.symmetric-dim-ge-3", "corollary3.real-multiplication"]
    if not negative:
        claims.extend(Claim(cid, "skipped", reason="no-negative-multiplication")
                      for cid in later)
        return VerificationReport(tuple(claims))
    if not verdict.is_algebraic:
        claims.extend(Claim(cid, "skipped", reason="NotAlgebraic") for cid in later)
        return VerificationReport(tuple(claims))

    pol = verdict.polarization
    mult = negative[0]
    ns = compute_ns(t)
    nd = compute_N_D(ns, mult)
    claims.append(Claim(later[0], "verified" if ns.rank >= 3 else "refuted",
                        witness={"ns_rank": ns.rank}))
    # the N_D rows are independent, so h0 lies outside their span exactly
    # when it raises the rank by one, which is also the direct-sum claim
    _, pivots = rref(list(nd.parent_coords) + [pol.coords])
    direct = len(pivots) == len(nd.parent_coords) + 1
    claims.append(Claim(later[1], "verified" if direct else "refuted",
                        witness={"h0_coords_in_ns": [str(c) for c in pol.coords],
                                 "nd_coords_in_ns": [list(c) for c in nd.parent_coords]}))
    claims.append(Claim(later[2], "verified" if direct else "refuted",
                        witness={"combined_rank": len(pivots)}))

    # the Rosati claims are the only ones that need the endomorphism ring
    from .endo import (
        compute_endo_ring,
        find_real_multiplication,
        rosati_involution,
        symmetric_subspace,
    )

    ring = compute_endo_ring(t)
    ros = rosati_involution(ring, pol.herm.M)
    sym_basis, dim = symmetric_subspace(ros)
    claims.append(Claim(later[3], "verified" if dim >= 3 else "refuted",
                        witness={"symmetric_dimension": dim}))
    rm = find_real_multiplication(ros, sym_basis)
    ok = (rm.d_prime > 1 and not is_perfect_square(rm.d_prime)
          and rm.d_dblprime > 0)
    claims.append(Claim(later[4], "verified" if ok else "refuted", witness={
        "d_prime": rm.d_prime,
        "d_dblprime": rm.d_dblprime,
        "beta_R": [list(r) for r in rm.beta.R],
        "squarefree_certified": rm.squarefree_certified,
    }))
    return VerificationReport(tuple(claims))
