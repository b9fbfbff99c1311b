"""Two-dimensional complex tori as exact period matrices.

A torus is C^2 / (Pi * Z^4) for a 2x4 period matrix Pi over a declared
number field.  The 4x4 big period matrix P stacks Pi over its entrywise
conjugate; invertibility of P is the lattice condition, certified by the
one Gauss-Jordan pass that also gives P^-1.  J is the real 4x4 matrix of
multiplication by i in lattice coordinates.

The rational representation lives here alone: an analytic 2x2 A and a
4x4 R on the lattice belong together when A Pi = Pi R (`rational_rep`
from A to R, `analytic_rep` from R to A).

A "multiplication by sqrt(d)" is an analytic 2x2 matrix D with D^2 = d
(d a nonsquare integer) whose rational representation on the lattice is
integral.  Nonscalar multiplications come with a diagonalizing
coordinate change putting D into diag(sqrt(d), -sqrt(d)) form, with the
+sqrt(d) eigenvector first.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DegenerateLattice,
    NotAnEndomorphism,
    NotReal,
    NotSquareRootOfD,
    PerfectSquare,
    invariant,
)
from .exactfield import (
    FieldElement,
    NumberField,
    exact_sign,
    is_perfect_square,
    sqrt_element,
    union_field,
)
from .linalg import Mat
from .record import Record


class PeriodMatrix(Record):
    """2x4 matrix whose columns generate the lattice."""

    entries: Mat

    def __init__(self, entries):
        if entries.shape != (2, 4):
            raise ValueError("period matrix must be 2x4")
        object.__setattr__(self, "entries", entries)

    @property
    def field(self) -> NumberField:
        return self.entries.field

    def big(self) -> Mat:
        """The 4x4 big period matrix [Pi over conj(Pi)]."""
        return self.entries.stack(self.entries.conj())

    def column(self, k: int):
        return self.entries.col(k)


class Torus(Record):
    period: PeriodMatrix
    field: NumberField
    J: Mat           # real 4x4, multiplication by i on lattice coordinates
    big_p: Mat       # cached big period matrix
    big_p_inv: Mat

    def __init__(self, period, field, J, big_p, big_p_inv):
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "big_p", big_p)
        object.__setattr__(self, "big_p_inv", big_p_inv)

    def right_inverse(self) -> Mat:
        """Pi^+ with Pi * Pi^+ = I_2 (first two columns of P^{-1})."""
        return self.big_p_inv.submatrix(range(4), range(2))

    def memo(self, key: str, compute):
        """compute(), run once for this torus object and kept under key.

        The value must not refer back to the torus: that would make a
        reference cycle, and the torus would then wait for the cycle
        collector instead of going with its last reference.  Callers keep
        the torus-free part of a result here and rebuild the record around
        it.  The memo is no field, so equality, hashing and repr ignore it,
        and equal but distinct tori do not share it.  A compute() that
        raises keeps nothing.
        """
        kept = self.__dict__
        if key not in kept:
            object.__setattr__(self, key, compute())
        return kept[key]

    @property
    def real_det(self) -> FieldElement:
        """det C for the real coordinate matrix C = [Re Pi_0; Im Pi_0; Re Pi_1; Im Pi_1].

        P = M C with det M = 4, so det C = det P / 4; `build_torus` keeps it
        from the det P it certifies.  Its sign orients the lattice.
        """
        return self.memo("_real_det", lambda: self.big_p.det() * Fraction(1, 4))


def build_torus(period: PeriodMatrix) -> Torus:
    """Certify the lattice condition and assemble the complex structure.

    One Gauss-Jordan pass over [P | I] gives both det P and P^-1.  J is
    P^-1 diag(i, i, -i, -i) P = P^-1 [i Pi; -i conj Pi], and
    -i conj Pi = conj(i Pi), so J is one product of P^-1 with the big
    period matrix of i Pi.

    Raises DegenerateLattice when det P = 0, NotReal when J fails its
    exact realness check (inconsistent conjugation declarations).
    """
    p = period.big()
    field = p.field
    det, p_inv = p.det_and_inverse()
    if p_inv is None or exact_sign(det * det.conjugate()) <= 0:
        raise DegenerateLattice("big period matrix is singular")
    i = field.i()
    j = p_inv @ PeriodMatrix(period.entries.map(lambda x: x * i)).big()
    for r in range(4):
        for c in range(4):
            if not j[r, c].is_real():
                raise NotReal(
                    f"complex structure entry ({r},{c}) = {j[r, c]} is not real")
    minus_id = Mat.identity(field, 4).scale(-1)
    invariant(j @ j == minus_id, "complex structure does not square to -1")
    period = PeriodMatrix(period.entries.map(lambda x: x.in_field(field)))
    t = Torus(period=period, field=field, J=j, big_p=p, big_p_inv=p_inv)
    t.memo("_real_det", lambda: det * Fraction(1, 4))
    return t


class MultiplicationDatum(Record):
    """An exact multiplication by sqrt(d) on a torus."""

    D_analytic: Mat                 # 2x2, D^2 = d
    R: tuple[tuple[int, ...], ...]  # 4x4 integer rational representation
    d: int
    epsilon: int
    is_scalar: bool
    diagonalizer: Mat | None        # columns: +sqrt(d) then -sqrt(d) eigenvectors
    diagonalizer_inv: Mat | None
    sqrt_d: FieldElement | None
    field: NumberField              # field of D and the diagonalizer

    def __init__(self, D_analytic, R, d, epsilon, is_scalar, diagonalizer,
                 diagonalizer_inv, sqrt_d, field):
        object.__setattr__(self, "D_analytic", D_analytic)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "is_scalar", is_scalar)
        object.__setattr__(self, "diagonalizer", diagonalizer)
        object.__setattr__(self, "diagonalizer_inv", diagonalizer_inv)
        object.__setattr__(self, "sqrt_d", sqrt_d)
        object.__setattr__(self, "field", field)

    def r_matrix(self) -> Mat:
        f = self.field
        return Mat.from_rows([[f.rational(v) for v in row] for row in self.R])

    def r_times(self, coords):
        """Integer matrix action on a rational coordinate vector."""
        return tuple(sum(Fraction(a) * Fraction(x) for a, x in zip(row, coords))
                     for row in self.R)


def attach_multiplication(t: Torus, d_analytic, d: int) -> MultiplicationDatum:
    """Validate D^2 = d and D Lambda <= Lambda; classify scalar vs nonscalar.

    For a nonscalar D the field is extended by a generator for sqrt(d)
    when necessary, and the diagonalizer is normalized so its first
    column is the +sqrt(d) eigenvector with leading coordinate 1.
    """
    if not isinstance(d, int):
        raise ValueError("d must be an integer")
    if d >= 0 and is_perfect_square(d):
        raise PerfectSquare(f"d = {d} is a perfect square")
    if not isinstance(d_analytic, Mat):
        d_analytic = Mat.from_rows(d_analytic)
    field = union_field(t.field, d_analytic.field)
    dmat = d_analytic.map(lambda x: x.in_field(field))
    d_elt = field.rational(d)
    if (dmat @ dmat) != Mat.diagonal([d_elt, d_elt]):
        raise NotSquareRootOfD(f"D^2 is not {d} * identity")

    rows = rational_rep(t, dmat)
    if rows is None:
        raise NotAnEndomorphism("D acts on the lattice by a non-rational matrix")
    if any(q.denominator != 1 for row in rows for q in row):
        raise NotAnEndomorphism("D acts by a non-integral matrix; D Lambda is not in Lambda")
    r_rows = [tuple(int(q) for q in row) for row in rows]

    scalar = (dmat[0, 1].is_zero() and dmat[1, 0].is_zero()
              and dmat[0, 0] == dmat[1, 1])
    diagonalizer = None
    diagonalizer_inv = None
    sqrt_d = None
    if not scalar:
        field, sqrt_d = sqrt_element(field, d)
        dmat = dmat.map(lambda x: x.in_field(field))
        plus = _eigenvector_2x2(dmat, sqrt_d)
        minus = _eigenvector_2x2(dmat, -sqrt_d)
        diagonalizer = Mat.from_rows([[plus[0], minus[0]], [plus[1], minus[1]]])
        diagonalizer_inv = diagonalizer.inv()
        check = diagonalizer_inv @ dmat @ diagonalizer
        invariant(check == Mat.diagonal([sqrt_d, -sqrt_d]), "diagonalizer does not diagonalize D")
    return MultiplicationDatum(
        D_analytic=dmat, R=tuple(r_rows), d=d, epsilon=1 if d > 0 else -1,
        is_scalar=scalar, diagonalizer=diagonalizer,
        diagonalizer_inv=diagonalizer_inv, sqrt_d=sqrt_d, field=field)


def lattice_action(t: Torus, a: Mat) -> Mat:
    """P^-1 diag(A, conj A) P over A's field: the 2x2 analytic A on lattice coordinates.

    P^-1 = [Pi^+ | conj Pi^+], so the action is X + conj X for
    X = Pi^+ A Pi.  A maps the lattice into itself exactly when every
    entry is an integer.
    """
    field = a.field
    q = t.right_inverse().map(lambda x: x.in_field(field))
    pi = t.period.entries.map(lambda x: x.in_field(field))
    x = q @ a @ pi
    return Mat(tuple(tuple(v + v.conjugate() for v in row) for row in x.rows))


def rational_rep(t: Torus, a: Mat):
    """The lattice action of A as rows of Fractions, or None if it is not rational."""
    r = lattice_action(t, a)
    if not all(x.is_rational() for row in r.rows for x in row):
        return None
    return [[x.rational_value() for x in row] for row in r.rows]


def analytic_rep(t: Torus, r_rows) -> Mat:
    """A = Pi R Pi^+ for a lattice action R; InvariantViolation unless A Pi = Pi R."""
    field = t.field
    pi = t.period.entries
    pi_r = pi @ Mat(tuple(tuple(field.rational(v) for v in row) for row in r_rows))
    a = pi_r @ t.right_inverse()
    invariant(a @ pi == pi_r, "R is not the lattice action of an endomorphism")
    return a


def lattice_form(t: Torus, m: Mat) -> Mat:
    """Im(Pi^t M conj(Pi)): the values Im H(lambda_k, lambda_l) on the generators.

    H(x, y) = x^t M conj(y); for hermitian M this is the alternating form
    E = Im H in lattice coordinates, over the union of both fields.
    """
    pi = t.period.entries
    return (pi.transpose() @ m @ pi.conj()).map(lambda x: x.imag_part())


def _eigenvector_2x2(m: Mat, eigenvalue: FieldElement):
    """Eigenvector with first nonzero coordinate normalized to 1.

    Deterministic: kernel vector is read off the first nonzero row of
    (M - lambda), ties broken by lowest row index.
    """
    field = m.field
    a = m[0, 0] - eigenvalue
    b = m[0, 1]
    c = m[1, 0]
    e = m[1, 1] - eigenvalue
    if not (a.is_zero() and b.is_zero()):
        v = (-b, a)
    elif not (c.is_zero() and e.is_zero()):
        v = (-e, c)
    else:
        raise NotSquareRootOfD("matrix is scalar; no eigenvector normal form")
    if not v[0].is_zero():
        return (field.one(), v[1] / v[0])
    return (field.zero(), field.one())


def sqrt_d_basis_lattice(d: int, e1, e2) -> tuple[Torus, MultiplicationDatum]:
    """Torus with lattice basis (e1, e2, D e1, D e2) for D = diag(sqrt d, -sqrt d).

    This is the finite-index test-bed lattice: in this basis the rational
    representation of D is the block matrix [[0, d*I], [I, 0]].
    """
    if d >= 0 and is_perfect_square(d):
        raise PerfectSquare(f"d = {d} is a perfect square")
    entries = list(e1) + list(e2)
    field = entries[0].field
    for x in entries[1:]:
        field = union_field(field, x.field)
    field, s = sqrt_element(field, d)
    e1 = [x.in_field(field) for x in e1]
    e2 = [x.in_field(field) for x in e2]
    de1 = [s * e1[0], -s * e1[1]]
    de2 = [s * e2[0], -s * e2[1]]
    pi = Mat.from_rows([[e1[0], e2[0], de1[0], de2[0]],
                        [e1[1], e2[1], de1[1], de2[1]]])
    torus = build_torus(PeriodMatrix(pi))
    dmat = Mat.diagonal([s, -s])
    mult = attach_multiplication(torus, dmat, d)
    return torus, mult
