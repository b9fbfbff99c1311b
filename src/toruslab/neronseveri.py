"""Neron-Severi lattices of hermitian forms and polarization search.

NS(T) is the lattice of integral alternating forms E on the lattice
coordinates satisfying J^t E J = E.  With Pi^+ = Torus.right_inverse(),
P^-1 = [Pi^+ | conj Pi^+], so E is J-compatible exactly when the one
free entry of (Pi^+)^t E Pi^+ vanishes: one field-valued linear
condition on the six upper entries of E.  Each E carries its hermitian
lift H(x, y) = E(ix, y) + i E(x, y) = x^t M conj(y), M = 2i (Pi^+)^t E
conj(Pi^+); torus.lattice_form evaluates Im H back on the generators.

For a nonscalar multiplication D by sqrt(d), N_D is the saturated
sublattice of forms whose D-twist H(x, Dy) is again hermitian.  In
D-diagonal coordinates every member of N_D is diagonal (d > 0) or
antidiagonal (d < 0); the latter shape makes every determinant
nonpositive, which is the exact non-algebraicity certificate.

Polarization is decided exactly, with no float.  For C the real
coordinate matrix of the lattice, det(C) det(M_E) = Pf(E), a quadratic
form c^t G c in NS coordinates; so H_c is definite exactly when
sigma c^t G c > 0, sigma the sign of det C.  One Lagrange reduction of
sigma G either finds such a c, whose form is certified positive
definite, or proves sigma G negative semidefinite: then no form is
positive definite (the Pfaffian certificate, with the identity checked
on the forms that determine G).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotABasis, NotReal, ScalarD, invariant
from .exactfield import FieldElement, dot, exact_sign
from .linalg import (
    Mat,
    clear_denominators,
    integer_kernel,
    is_positive_definite,
    monomial_rows,
    rational_kernel,
)
from .record import Record
from .torus import MultiplicationDatum, Torus, lattice_form

_F0 = Fraction(0)
_F1 = Fraction(1)

_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class AltForm(Record):
    """Integral alternating form: values E(lambda_k, lambda_l) on generators."""

    E: tuple[tuple[int, ...], ...]

    def __init__(self, E):
        for k in range(4):
            for l in range(4):
                if E[k][l] != -E[l][k]:
                    raise ValueError("matrix is not antisymmetric")
        object.__setattr__(self, "E", E)

    @staticmethod
    def from_upper(vals) -> "AltForm":
        e = [[0] * 4 for _ in range(4)]
        for (k, l), v in zip(_PAIRS, vals):
            e[k][l] = int(v)
            e[l][k] = -int(v)
        return AltForm(tuple(map(tuple, e)))

    def pfaffian(self) -> int:
        e = self.E
        return e[0][1] * e[2][3] - e[0][2] * e[1][3] + e[0][3] * e[1][2]


class HermForm(Record):
    """Hermitian form H(x, y) = x^t M conj(y) on C^2."""

    M: Mat

    def __init__(self, M):
        if M.conj_t() != M:
            raise ValueError("matrix is not hermitian")
        object.__setattr__(self, "M", M)

    def row(self, x) -> tuple[FieldElement, FieldElement]:
        """x^t M."""
        return tuple(dot(x, col) for col in zip(*self.M.rows))

    def value(self, x, y) -> FieldElement:
        return dot(self.row(x), y, conj_y=True)

    def imag_value(self, x, y) -> FieldElement:
        return self.value(x, y).imag_part()

    def det(self) -> FieldElement:
        return self.M.det()


class NSLattice(Record):
    torus: Torus
    basis: tuple[tuple[AltForm, HermForm], ...]
    parent_coords: tuple[tuple[int, ...], ...] | None

    def __init__(self, torus, basis, parent_coords=None):
        object.__setattr__(self, "torus", torus)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "parent_coords", parent_coords)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def combination(self, coeffs) -> tuple[AltForm, HermForm]:
        """Integer or rational combination of the basis pairs."""
        e = [[_F0] * 4 for _ in range(4)]
        field = self.torus.field if not self.basis else self.basis[0][1].M.field
        m = Mat.zero(field, 2, 2)
        for c, (alt, herm) in zip(coeffs, self.basis):
            c = Fraction(c)
            if not c:
                continue
            for k in range(4):
                for l in range(4):
                    e[k][l] += c * alt.E[k][l]
            m = m + herm.M.scale(field.rational(c))
        if all(v.denominator == 1 for row in e for v in row):
            alt = AltForm(tuple(tuple(int(v) for v in row) for row in e))
        else:
            alt = None
        return alt, HermForm(m)

    def pfaffian_gram(self):
        """Rational Gram matrix G with Pf(E_c) = c^t G c on coordinates."""
        r = self.rank
        alts = [alt for alt, _ in self.basis]
        g = [[_F0] * r for _ in range(r)]
        for a in range(r):
            g[a][a] = Fraction(alts[a].pfaffian())
        for a in range(r):
            for b in range(a + 1, r):
                mixed = AltForm(tuple(
                    tuple(alts[a].E[k][l] + alts[b].E[k][l] for l in range(4))
                    for k in range(4)))
                g[a][b] = g[b][a] = Fraction(
                    mixed.pfaffian() - alts[a].pfaffian() - alts[b].pfaffian(), 2)
        return g


def compute_ns(t: Torus) -> NSLattice:
    """Saturated basis of the J-compatible integral alternating forms, with lifts.

    E is compatible exactly when (Pi^+)^t E Pi^+ = 0.  Its one free entry
    is the sum over k < l of e_kl (Pi^+_k0 Pi^+_l1 - Pi^+_l0 Pi^+_k1),
    linear in the six upper entries of E.  The basis is computed once per
    torus object (`Torus.memo`); each call wraps it in a new record.
    """
    return NSLattice(torus=t, basis=t.memo("_ns_basis", lambda: _ns_basis(t)))


def _ns_basis(t: Torus):
    q = t.right_inverse()
    minors = [q[k, 0] * q[l, 1] - q[l, 0] * q[k, 1] for k, l in _PAIRS]
    basis_upper = integer_kernel(monomial_rows([minors]), 6)
    pairs = []
    for upper in basis_upper:
        alt = AltForm.from_upper(upper)
        pairs.append((alt, hermitian_lift(t, alt)))
    return tuple(pairs)


def hermitian_lift(t: Torus, alt: AltForm) -> HermForm:
    """The hermitian form with Im H = E: M = 2i (Pi^+)^t E conj(Pi^+).

    This is H(x, y) = E(ix, y) + i E(x, y) for a J-compatible E.
    Consistency (Im H(lambda_k, lambda_l) = E_kl exactly) is asserted; it
    fails for an E outside NS.
    """
    field = t.field
    q = t.right_inverse()
    e_f = Mat.from_rows([[field.rational(v) for v in row] for row in alt.E])
    herm = HermForm((q.transpose() @ e_f @ q.conj()).scale(field.i() * 2))
    e = lattice_form(t, herm.M)
    invariant(all(e[k, l] == alt.E[k][l] for k in range(4) for l in range(4)),
              "hermitian lift is inconsistent with its alternating form")
    return herm


def compute_N_D(ns: NSLattice, mult: MultiplicationDatum) -> NSLattice:
    """Sublattice of forms whose D-twist H(x, Dy) is again hermitian.

    The twist of M is M conj(D); its hermitian defect is linear in the NS
    coordinates, so N_D is the saturated integer kernel.  Integrality of
    the twisted alternating form is automatic (it is E * R_D).
    """
    if mult.is_scalar:
        raise ScalarD("N_D requires a nonscalar multiplication")
    field = mult.field
    dbar = mult.D_analytic.conj()
    defects = []
    for _, herm in ns.basis:
        x = herm.M.map(lambda v: v.in_field(field)) @ dbar
        defects.append(x - x.conj_t())
    conditions = [[defect[a, b] for defect in defects]
                  for a, b in ((0, 0), (0, 1), (1, 1))]
    coords = integer_kernel(monomial_rows(conditions), ns.rank)
    pairs = []
    for cvec in coords:
        alt, herm = ns.combination(cvec)
        invariant(alt is not None, "N_D member has no alternating form")
        # integer-side cross-check: the twisted alternating form E * R_D
        # must be integral (automatic) and again antisymmetric
        twist = [[sum(alt.E[k][j] * mult.R[j][l] for j in range(4))
                  for l in range(4)] for k in range(4)]
        invariant(all(twist[k][l] == -twist[l][k] for k in range(4) for l in range(4)),
                  "twisted form of an N_D member is not alternating")
        pairs.append((alt, herm))
    return NSLattice(torus=ns.torus, basis=tuple(pairs),
                     parent_coords=tuple(tuple(c) for c in coords))


class CanonicalFormCoords(Record):
    """Coordinates (a, b) of a form in D-diagonal coordinates.

    d > 0: the transported matrix is diag(a, b); d < 0: it is
    antidiagonal with upper entry a + i b.  Both a and b are real.
    """

    a: FieldElement
    b: FieldElement

    def __init__(self, a, b):
        if not (a.is_real() and b.is_real()):
            raise NotReal("canonical coordinates must be real")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def transport_to_diagonal(mult: MultiplicationDatum, h) -> Mat:
    """Congruence M -> T^t M conj(T) into D-diagonal coordinates."""
    if mult.is_scalar:
        raise ScalarD("no diagonalizing coordinates for a scalar multiplication")
    m = h.M if isinstance(h, HermForm) else h
    t = mult.diagonalizer
    field = mult.field
    m = m.map(lambda v: v.in_field(field))
    return t.transpose() @ m @ t.conj()


def canonical_form_matrix(mult: MultiplicationDatum, coords: CanonicalFormCoords) -> HermForm:
    """The form with canonical coordinates (a, b), in original coordinates."""
    if mult.is_scalar:
        raise ScalarD("no diagonalizing coordinates for a scalar multiplication")
    field = mult.field
    a = coords.a.in_field(field)
    b = coords.b.in_field(field)
    z = field.zero()
    if mult.d > 0:
        m_ab = Mat.from_rows([[a, z], [z, b]])
    else:
        top = a + field.i() * b
        m_ab = Mat.from_rows([[z, top], [top.conjugate(), z]])
    ti = mult.diagonalizer_inv
    m = ti.transpose() @ m_ab @ ti.conj()
    return HermForm(m)


# ---------------------------------------------------------------------------
# the lambda map and the six-entry table
# ---------------------------------------------------------------------------

def _check_sqrt_basis(mult: MultiplicationDatum, e1, e2):
    """(De1, De2), once e1, e2, De1, De2 are checked to span the lattice rationally."""
    de1, de2 = mult.r_times(e1), mult.r_times(e2)
    cols = [list(map(Fraction, e1)), list(map(Fraction, e2)), list(de1), list(de2)]
    rows = [[cols[c][r] for c in range(4)] for r in range(4)]
    if rational_kernel(rows, 4):
        raise NotABasis("e1, e2, De1, De2 do not span the lattice rationally")
    return de1, de2


class LambdaMap:
    """lambda(a, b) = (E_{a,b}(e1, e2), E_{a,b}(e1, D e2)) on one basis.

    e1 and e2 are rational coordinate vectors in the lattice basis and
    must form a Q(sqrt d)-basis.  Everything that does not depend on
    (a, b) is set up once: the basis check, the images of e1, e2, De1
    and De2 in the field of the multiplication (`images`, which
    e_table reads too), the basis images l1 = lambda(1, 0) and
    l2 = lambda(0, 1), and 1 / det L for L = (l1 | l2), so that
    inverse() needs no field division.  det L = 0 raises DivisionByZero.
    values() still builds the canonical form M of (a, b) on every call;
    both values are evaluated exactly from the one row z(e1)^t M.
    """

    def __init__(self, t: Torus, mult: MultiplicationDatum, e1, e2):
        de1, de2 = _check_sqrt_basis(mult, e1, e2)
        self.mult = mult
        field = mult.field
        pi = t.period.entries.map(lambda v: v.in_field(field))
        self.images = tuple(pi.mul_vec(e) for e in (e1, e2, de1, de2))
        one, zero = field.one(), field.zero()
        self.l1 = self.values(CanonicalFormCoords(a=one, b=zero))
        self.l2 = self.values(CanonicalFormCoords(a=zero, b=one))
        det = self.l1[0] * self.l2[1] - self.l2[0] * self.l1[1]
        self.det_inv = 1 / det

    def values(self, coords: CanonicalFormCoords):
        """Field-valued lambda: (E_{a,b}(e1,e2), E_{a,b}(e1,De2)), both real."""
        z1, z2, _, dz2 = self.images
        row = canonical_form_matrix(self.mult, coords).row(z1)
        return tuple(dot(row, z, conj_y=True).imag_part() for z in (z2, dz2))

    def inverse(self, u, v) -> CanonicalFormCoords:
        """Solve lambda(a, b) = (u, v); u and v are rationals or real field elements."""
        (p, q), (r, s) = self.l1, self.l2
        return CanonicalFormCoords(a=(s * u - r * v) * self.det_inv,
                                   b=(p * v - q * u) * self.det_inv)


def e_table(lam: LambdaMap, coords: CanonicalFormCoords):
    """The six displayed values of E_{a,b} on e1, e2, De1, De2.

    The four lattice images are the ones lam set up.  Returns (values,
    expected, holds): with u = E(e1,e2), v = E(e1,De2) the expected
    pattern is (u, 0, v, -v, 0, d*u), exactly.
    """
    mult = lam.mult
    herm = canonical_form_matrix(mult, coords)
    field = herm.M.field
    z = dict(zip(("e1", "e2", "De1", "De2"), lam.images))
    labels = (("e1", "e2"), ("e1", "De1"), ("e1", "De2"),
              ("e2", "De1"), ("e2", "De2"), ("De1", "De2"))
    values = {f"{x},{y}": herm.imag_value(z[x], z[y]) for x, y in labels}
    u = values["e1,e2"]
    v = values["e1,De2"]
    zero = field.zero()
    expected = {
        "e1,e2": u,
        "e1,De1": zero,
        "e1,De2": v,
        "e2,De1": -v,
        "e2,De2": zero,
        "De1,De2": u * mult.d,
    }
    holds = all(values[k] == expected[k] for k in values)
    return values, expected, holds


def choose_sqrt_basis(t: Torus, mult: MultiplicationDatum) -> LambdaMap:
    """The lambda map on a deterministic Q(sqrt d)-basis (e1, e2) of generators.

    e1 is the first generator; e2 is the first generator for which e1, e2,
    De1, De2 span the lattice rationally (so e2 is outside span{e1, De1}).
    Each candidate is checked once, by the LambdaMap built on it.
    """
    e1 = (_F1, _F0, _F0, _F0)
    for j in range(1, 4):
        e2 = tuple(_F1 if k == j else _F0 for k in range(4))
        try:
            return LambdaMap(t, mult, e1, e2)
        except NotABasis:
            continue
    raise NotABasis("no lattice generator completes a sqrt(d)-basis")


# ---------------------------------------------------------------------------
# polarization search
# ---------------------------------------------------------------------------

class Polarization(Record):
    coords: tuple[int, ...]
    alt: AltForm
    herm: HermForm

    def __init__(self, coords, alt, herm):
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "alt", alt)
        object.__setattr__(self, "herm", herm)


def _positive_vector(q):
    """A rational v with v^t q v > 0 for a symmetric rational q, or None.

    Lagrange's reduction.  A positive diagonal entry q_aa gives e_a.  A
    zero one with q_ab != 0 gives t e_a + e_b, of value 2 t q_ab + q_bb > 0
    for t = sign(q_ab) (floor(|q_bb| / |2 q_ab|) + 1).  Otherwise the first
    negative q_aa is completed to a square: x^t q x is q_aa (x_a + ...)^2
    plus the Schur complement S on the other coordinates, so q takes a
    positive value exactly when S does, at the vector lifted back with
    the square term zero.  None is returned for q = 0 only, so it proves
    q negative semidefinite.
    """
    n = len(q)
    for a in range(n):
        if q[a][a] > 0:
            return [_F1 if j == a else _F0 for j in range(n)]
    for a in range(n):
        if q[a][a] != 0:
            continue
        b = next((b for b in range(n) if q[a][b] != 0), None)
        if b is not None:
            t = abs(q[b][b]) // abs(2 * q[a][b]) + 1
            v = [_F0] * n
            v[a], v[b] = Fraction(t if q[a][b] > 0 else -t), _F1
            return v
    a = next((a for a in range(n) if q[a][a] < 0), None)
    if a is None:
        return None
    rest = [j for j in range(n) if j != a]
    w = _positive_vector([[q[i][j] - Fraction(q[i][a] * q[a][j], q[a][a]) for j in rest]
                          for i in rest])
    if w is None:
        return None
    x_a = -Fraction(sum(q[a][j] * wj for j, wj in zip(rest, w)), q[a][a])
    return w[:a] + [x_a] + w[a:]


def polarization_search(ns: NSLattice) -> Polarization | None:
    """An exactly certified positive definite integral form, or None when there is none.

    For C the real coordinate matrix of the lattice (`Torus.real_det`),
    det(C) det(M_c) = Pf(E_c) = c^t G c with G = ns.pfaffian_gram(), so
    M_c is definite exactly when sigma c^t G c > 0, sigma =
    orientation_sign.  `_positive_vector(sigma G)` finds such a c; it is
    made primitive and integral, negated when M_c is negative definite,
    and certified.  None means sigma G is negative semidefinite;
    `pfaffian_certificate` turns that into a proof.  No choice is left
    to the caller: the reduction is deterministic.
    """
    sigma = orientation_sign(ns.torus)
    v = _positive_vector([[sigma * g for g in row] for row in ns.pfaffian_gram()])
    if v is None:
        return None
    coords = clear_denominators(v)
    alt, herm = ns.combination(coords)
    if exact_sign(herm.M[0, 0]) < 0:
        coords = [-c for c in coords]
        alt, herm = ns.combination(coords)
    invariant(is_positive_definite(herm),
              "a form with sigma * Pf > 0 failed its positivity certificate")
    return Polarization(coords=tuple(coords), alt=alt, herm=herm)


def pfaffian_certificate(ns: NSLattice) -> dict:
    """Witness that no form of ns is positive definite, for a None from polarization_search.

    sigma G is then negative semidefinite, and det(M_c) has the sign of
    sigma c^t G c, so no M_c is definite positive.  The identity
    det(C) det(M_c) = c^t G c behind that is checked first.
    """
    gram = ns.pfaffian_gram()
    check_pfaffian_identity(ns, gram, ns.torus.real_det)
    return {"kind": "pfaffian-nonpositive",
            "sigma": orientation_sign(ns.torus),
            "gram": [[str(v) for v in row] for row in gram]}


def check_pfaffian_identity(ns: NSLattice, gram, det_c) -> None:
    """det_c * det(M_c) == c^t gram c exactly, on the basis forms and their pair sums.

    Both sides are quadratic in c, and these r(r + 1)/2 supports
    determine a quadratic form, so the identity then holds for every c.
    A mismatch raises InvariantViolation.
    """
    r = ns.rank
    for support in [(a,) for a in range(r)] + [(a, b) for a in range(r) for b in range(a + 1, r)]:
        _, herm = ns.combination([int(a in support) for a in range(r)])
        pf = sum(gram[a][b] for a in support for b in support)
        invariant(det_c * herm.det() == herm.M.field.rational(pf),
                  "det(C) det(M) differs from the Pfaffian")


# ---------------------------------------------------------------------------
# algebraicity
# ---------------------------------------------------------------------------

class AlgebraicityVerdict(Record):
    status: str                    # "algebraic" | "not-algebraic"
    certificate: dict
    polarization: Polarization | None   # the certified form when "algebraic"

    def __init__(self, status, certificate, polarization=None):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "polarization", polarization)

    @property
    def is_algebraic(self):
        return self.status == "algebraic"


def orientation_sign(t: Torus) -> int:
    """Sign of det C for the real coordinate matrix C, as `build_torus` certified it."""
    return t.orientation


def is_algebraic(t: Torus, mults=(), seed: int = 0) -> AlgebraicityVerdict:
    """Decide algebraicity, with an exact certificate either way.

    NotAlgebraic certificates, tried in order:
      * NS rank 0,
      * for an attached nonscalar multiplication with d < 0: every NS
        basis form is antidiagonal in D-diagonal coordinates (then no
        real combination has positive determinant),
      * the Pfaffian quadratic form of NS, corrected by the lattice
        orientation, is negative semidefinite (`pfaffian_certificate`).

    Otherwise polarization_search returns a certified positive definite
    integral form, the verdict's polarization.  NS comes from
    compute_ns(t), which computes it once per torus object.  The verdict
    does not depend on seed: it is accepted and ignored only because the
    benchmark's prop-sweep workload passes it.
    """
    ns = compute_ns(t)
    if ns.rank == 0:
        return AlgebraicityVerdict("not-algebraic", {"kind": "ns-rank-0"})
    for idx, mult in enumerate(mults):
        if mult.is_scalar or mult.d > 0:
            continue
        transported = [transport_to_diagonal(mult, herm) for _, herm in ns.basis]
        if all(m[0, 0].is_zero() and m[1, 1].is_zero() for m in transported):
            return AlgebraicityVerdict("not-algebraic", {
                "kind": "antidiagonal-obstruction",
                "mult_index": idx,
                "d": mult.d,
                "transported": [m.entries_str() for m in transported],
            })
    found = polarization_search(ns)
    if found is None:
        return AlgebraicityVerdict("not-algebraic", pfaffian_certificate(ns))
    return AlgebraicityVerdict("algebraic", {
        "kind": "positive-definite-form",
        "coords": list(found.coords),
        "E": [list(r) for r in found.alt.E],
        "M": found.herm.M.entries_str(),
    }, polarization=found)
