"""Endomorphism rings of two-dimensional complex tori.

An endomorphism is a pair (R, A): an integral 4x4 action on lattice
coordinates and the 2x2 analytic action on C^2, linked by A*Pi = Pi*R.
The ring is computed as the saturated integer kernel of the linear
condition "the lower-left 2x2 block of P R P^{-1} vanishes", written
with Pi and Pi^+ alone.  Both directions of A*Pi = Pi*R come from
`torus`: `analytic_rep` gives each basis element its A, and
`rational_rep` gives the lattice action of a Rosati image.

Also here: structure constants, the algebra classifier (quadratic /
CM / quaternion via the reduced norm form / matrix algebra), the Rosati
involution of a polarization, and the constructive extraction of a real
quadratic multiplication from the Rosati-symmetric subspace.  Every
batch of coordinates against the ring basis (the n^2 basis products,
the n Rosati images) comes from one elimination, and the involution
identities are checked on integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import (
    NegativeDiscriminant,
    NoSuchElement,
    NotClosed,
    NotPolarization,
    NotStable,
    UnrecognizedStructure,
    invariant,
)
from .exactfield import (
    _count_real_roots,
    eliminate,
    integer_roots,
    monic_integer,
    squarefree_decomposition,
)
from .linalg import (
    Mat,
    clear_denominators,
    complete_to_unimodular,
    coords_in_rows,
    coords_in_rows_many,
    integer_kernel,
    is_positive_definite,
    monomial_rows,
    rational_kernel,
)
from .record import Record
from .torus import Torus, analytic_rep, lattice_form
from .torus import rational_rep as _rational_rep

_F0 = Fraction(0)
_F1 = Fraction(1)


class Endomorphism(Record):
    R: tuple[tuple[int, ...], ...]
    A: Mat

    def __init__(self, R, A):
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "A", A)

    def vec(self) -> tuple[int, ...]:
        return tuple(v for row in self.R for v in row)

    def r_trace(self) -> int:
        return sum(self.R[k][k] for k in range(4))


class EndoRing(Record):
    torus: Torus
    basis: tuple[Endomorphism, ...]       # first element is the identity
    structure: tuple                      # structure[i][j] = integer coords of b_i b_j

    def __init__(self, torus, basis, structure):
        object.__setattr__(self, "torus", torus)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "structure", structure)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def basis_vecs(self):
        return [list(b.vec()) for b in self.basis]

    def element_r(self, coords):
        """R-matrix (Fractions) of a rational coordinate vector."""
        out = [[_F0] * 4 for _ in range(4)]
        for c, b in zip(coords, self.basis):
            if c:
                for r in range(4):
                    for s in range(4):
                        out[r][s] += Fraction(c) * b.R[r][s]
        return out

    def multiply_coords(self, x, y):
        """Product in the algebra, in rational coordinates."""
        n = self.rank
        out = [_F0] * n
        for i in range(n):
            if not x[i]:
                continue
            for j in range(n):
                if not y[j]:
                    continue
                f = Fraction(x[i]) * Fraction(y[j])
                for k, s in enumerate(self.structure[i][j]):
                    if s:
                        out[k] += f * s
        return out


def compute_endo_ring(t: Torus) -> EndoRing:
    """All integral 4x4 matrices commuting with the complex structure.

    The condition is linear in the 16 unknown entries: R commutes with J
    exactly when the lower-left block of P R P^{-1} vanishes, and the
    (a, b) entry of that block for R = E_kl is conj(Pi)[a, k] Pi^+[l, b].
    Expand these over the monomial basis, take the saturated integer
    kernel, and normalize the first basis vector to the identity by a
    unimodular change of basis.  The basis and structure constants
    are computed once per torus object (`Torus.memo`); each call wraps
    them in a new record.
    """
    basis, structure = t.memo("_endo_ring", lambda: _endo_basis(t))
    return EndoRing(torus=t, basis=basis, structure=structure)


def _endo_basis(t: Torus):
    pi_c, q = t.period.entries.conj(), t.right_inverse()
    conditions = [[pi_c[a, k] * q[l, b] for k in range(4) for l in range(4)]
                  for a in (0, 1) for b in (0, 1)]
    basis_vecs = integer_kernel(monomial_rows(conditions), 16)
    id_vec = [1 if k % 5 == 0 else 0 for k in range(16)]
    coords = coords_in_rows(basis_vecs, id_vec)
    invariant(coords is not None, "identity missing from endomorphism lattice")
    coords = [int(c) for c in coords]
    invariant(gcd(*coords) == 1, "identity is imprimitive in a saturated lattice")
    u = complete_to_unimodular(coords)
    n = len(basis_vecs)
    new_vecs = [[sum(u[i][j] * basis_vecs[j][k] for j in range(n)) for k in range(16)]
                for i in range(n)]
    basis = []
    for vec in new_vecs:
        r_rows = tuple(tuple(vec[4 * r + c] for c in range(4)) for r in range(4))
        basis.append(Endomorphism(R=r_rows, A=analytic_rep(t, r_rows)))
    return tuple(basis), _structure_tensor(basis)


def _mat_mul_int(x, y):
    return tuple(tuple(sum(x[r][k] * y[k][c] for k in range(4)) for c in range(4))
                 for r in range(4))


def _structure_tensor(basis):
    """Integer coordinates of every product b_i b_j, from one elimination.

    All n^2 products are solved against the basis together; each must lie
    in the span with integral coordinates.
    """
    n = len(basis)
    prods = [[v for row in _mat_mul_int(bi.R, bj.R) for v in row]
             for bi in basis for bj in basis]
    coords = coords_in_rows_many([b.vec() for b in basis], prods)
    if any(c is None or any(x.denominator != 1 for x in c) for c in coords):
        raise NotClosed("basis product left the Z-span; kernel computation is broken")
    return tuple(tuple(tuple(int(x) for x in coords[n * i + j]) for j in range(n))
                 for i in range(n))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

class AlgebraClass(Record):
    tag: str
    discriminant_data: tuple[int, ...]

    def __init__(self, tag, discriminant_data):
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "discriminant_data", discriminant_data)


def min_poly_rational_matrix(rows):
    """Monic minimal polynomial (constant-first Fractions) of a 4x4 matrix."""
    rows = [[Fraction(v) for v in r] for r in rows]
    power = [[_F1 if i == j else _F0 for j in range(4)] for i in range(4)]
    vecs = []
    for _ in range(5):
        vecs.append([v for r in power for v in r])
        if len(vecs) > 1:
            sol = coords_in_rows(vecs[:-1], vecs[-1])
            if sol is not None:
                return tuple([-c for c in sol] + [_F1])
        power = [[sum(power[r][k] * rows[k][c] for k in range(4)) for c in range(4)]
                 for r in range(4)]
    raise UnrecognizedStructure("no minimal polynomial of degree <= 4")


def _signed_squarefree(q: Fraction) -> int:
    """Squarefree integer with the same square class as the rational q."""
    n = q.numerator * q.denominator
    if n == 0:
        return 0
    _, n0, _ = squarefree_decomposition(abs(n))
    return n0 if n > 0 else -n0


def _center_coords(ring: EndoRing):
    n = ring.rank
    rows = []
    for j in range(n):
        for k in range(n):
            row = [ring.structure[i][j][k] - ring.structure[j][i][k] for i in range(n)]
            rows.append([Fraction(v) for v in row])
    return rational_kernel(rows, n)


def _is_irreducible(coeffs) -> bool:
    """Whether a monic rational quartic (constant-first) is irreducible over Q.

    Scaled to a monic integer quartic q (`monic_integer`), it is reducible
    exactly when it has an integer root or, by Gauss's lemma, a monic
    integer quadratic factor.  A factorization
    q = (y^2 + a y + b)(y^2 + c y + e) makes b + e an integer root of the
    resolvent cubic, whose roots are the sums r1 r2 + r3 r4 of paired
    roots; then b, e are the roots of z^2 - (b + e) z + c0, a, c those of
    z^2 - c3 z + c2 - (b + e), and a e + b c = c1 picks the pairing.
    """
    q = monic_integer(coeffs)
    if integer_roots(q):
        return False
    c0, c1, c2, c3, _ = q
    resolvent = (4 * c0 * c2 - c0 * c3 * c3 - c1 * c1, c1 * c3 - 4 * c0, -c2, 1)
    for theta in integer_roots(resolvent):
        be = _integer_quadratic_roots(theta, c0)
        ac = _integer_quadratic_roots(c3, c2 - theta)
        if be is None or ac is None:
            continue
        b, e = be
        if any(a * e + b * c == c1 for a, c in (ac, ac[::-1])):
            return False
    return True


def _integer_quadratic_roots(s: int, p: int):
    """The integer roots (z1, z2) of z^2 - s z + p, or None when they are not integers."""
    disc = s * s - 4 * p
    r = isqrt(disc) if disc >= 0 else -1
    if r * r != disc:
        return None
    return (s - r) // 2, (s + r) // 2  # s^2 - r^2 = 4p: s and r have one parity


def _real_root_count(coeffs) -> int:
    """Distinct real roots of a monic polynomial (constant-first).

    Every root lies inside (-B, B) for the Cauchy bound B = 1 + sum |c_k|.
    """
    bound = 1 + sum(abs(c) for c in coeffs[:-1])
    return _count_real_roots(coeffs, -bound, bound)


def classify_algebra(ring: EndoRing) -> AlgebraClass:
    """Branch on rank and center dimension; all sign tests are exact."""
    n = ring.rank
    if n == 1:
        return AlgebraClass("RationalField", ())
    if n == 2:
        mp = min_poly_rational_matrix(ring.element_r([0, 1]))
        if len(mp) != 3:
            raise UnrecognizedStructure("rank-2 ring with non-quadratic generator")
        tr, nr = -mp[1], mp[0]
        disc = tr * tr - 4 * nr
        sf = _signed_squarefree(disc)
        if disc == 0:
            return AlgebraClass("Other", (0,))
        if sf == 1:
            return AlgebraClass("Other", (1,))
        if disc > 0:
            return AlgebraClass("RealQuadratic", (sf,))
        return AlgebraClass("ImaginaryQuadratic", (sf,))
    if n == 4:
        center = _center_coords(ring)
        cdim = len(center)
        if cdim == 1:
            return _classify_quaternion(ring)
        if cdim == 4:
            return _classify_commutative_quartic(ring)
        return AlgebraClass("Other", (cdim,))
    if n == 8:
        center = _center_coords(ring)
        if len(center) != 2:
            raise UnrecognizedStructure(
                f"rank-8 ring with center of dimension {len(center)}")
        gamma = _non_rational_center_element(ring, center)
        mp = min_poly_rational_matrix(ring.element_r(gamma))
        if len(mp) != 3:
            raise UnrecognizedStructure("rank-8 center is not quadratic")
        disc = mp[1] * mp[1] - 4 * mp[0]
        return AlgebraClass("MatrixAlgebraOverQuadratic", (_signed_squarefree(disc),))
    raise UnrecognizedStructure(f"rank {n} is not possible for a 2-torus")


def _non_rational_center_element(ring, center):
    for v in center:
        if any(v[k] != 0 for k in range(1, ring.rank)):
            return v
    raise UnrecognizedStructure("center is rational only")


def _classify_quaternion(ring: EndoRing) -> AlgebraClass:
    n = ring.rank
    traces = [[Fraction(b.r_trace()) for b in ring.basis]]
    pure = rational_kernel(traces, n)
    if len(pure) != 3:
        raise UnrecognizedStructure("trace-zero subspace has wrong dimension")
    # Gram matrix of the reduced norm form on the trace-zero subspace:
    # for pure u, v the anticommutator u v + v u is a rational scalar.
    def scalar_of(x):
        if any(x[k] != 0 for k in range(1, n)):
            raise UnrecognizedStructure("anticommutator of pure elements not scalar")
        return x[0]

    gram = [[_F0] * 3 for _ in range(3)]
    for a in range(3):
        for b in range(3):
            anti = [x + y for x, y in zip(ring.multiply_coords(pure[a], pure[b]),
                                          ring.multiply_coords(pure[b], pure[a]))]
            gram[a][b] = -scalar_of(anti) / 2
    definite = True
    for k in (1, 2, 3):
        pivots, minor = eliminate([row[:k] for row in gram[:k]], reduced=False)
        definite = definite and len(pivots) == k and minor > 0
    tag = "DefiniteQuaternion" if definite else "IndefiniteQuaternion"
    data = _quaternion_generators(ring, pure, gram)
    return AlgebraClass(tag, data)


def _quaternion_generators(ring, pure, gram):
    """Squarefree pair (a, b) with the algebra isomorphic to (a, b / Q).

    Gram-Schmidt over Q on the norm form; u^2 = -Q(u) for pure u.
    """
    v1 = pure[0]
    q1 = gram[0][0]
    if q1 == 0:
        return (1, 1)  # isotropic: split algebra, M2(Q)
    # orthogonalize the second basis vector against the first
    b12 = gram[0][1]
    v2 = [Fraction(x) - b12 / q1 * Fraction(y) for x, y in zip(pure[1], v1)]
    q2 = _quadratic_value(ring, v2)
    if q2 == 0:
        return (1, 1)
    return (_signed_squarefree(-q1), _signed_squarefree(-q2))


def _quadratic_value(ring, v):
    sq = ring.multiply_coords(v, v)
    if any(sq[k] != 0 for k in range(1, ring.rank)):
        raise UnrecognizedStructure("square of a pure element is not scalar")
    return -sq[0]


def _classify_commutative_quartic(ring: EndoRing) -> AlgebraClass:
    n = ring.rank
    units = [[_F1 if k == j else _F0 for k in range(n)] for j in range(1, n)]
    candidates = _small_combinations(units, ((1, 1), (1, -1), (1, 2), (2, 1)))
    polys = []
    for v in candidates:
        polys.append(min_poly_rational_matrix(ring.element_r(v)))
        if len(polys[-1]) == 5 and _is_irreducible(polys[-1]):
            break
    else:
        return AlgebraClass("Other", ())
    if _real_root_count(polys[-1]) != 0:
        return AlgebraClass("Other", ())
    # totally imaginary quartic field: CM iff it has a real quadratic subfield
    polys += [min_poly_rational_matrix(ring.element_r(v)) for v in candidates]
    subfield_discs = set()
    for mp in polys:
        if len(mp) == 3:
            disc = mp[1] * mp[1] - 4 * mp[0]
            if disc > 0 and _signed_squarefree(disc) != 1:
                subfield_discs.add(_signed_squarefree(disc))
    if subfield_discs:
        return AlgebraClass("CMField", tuple(sorted(subfield_discs)))
    return AlgebraClass("Other", ())


def _small_combinations(vectors, pairs):
    """The vectors, then ca * v_a + cb * v_b for a < b and each (ca, cb) in pairs, lazily."""
    yield from vectors
    for a in range(len(vectors)):
        for b in range(a + 1, len(vectors)):
            for ca, cb in pairs:
                yield [ca * x + cb * y for x, y in zip(vectors[a], vectors[b])]


# ---------------------------------------------------------------------------
# Rosati involution
# ---------------------------------------------------------------------------

class RosatiData(Record):
    ring: EndoRing
    H0: Mat                                   # positive definite hermitian matrix
    involution: tuple[tuple[Fraction, ...], ...]  # row j = coords of basis_j'

    def __init__(self, ring, H0, involution):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "H0", H0)
        object.__setattr__(self, "involution", involution)

    @property
    def rank(self) -> int:
        return self.ring.rank


def check_in_ns(t: Torus, m0: Mat) -> None:
    """H0 hermitian, positive definite, with integral Im on the lattice."""
    if m0.conj_t() != m0:
        raise NotPolarization("matrix is not hermitian")
    if not is_positive_definite(m0):
        raise NotPolarization("hermitian form is not positive definite")
    e = lattice_form(t, m0)
    for k in range(4):
        for l in range(k + 1, 4):
            if not e[k, l].is_rational() or e[k, l].rational_value().denominator != 1:
                raise NotPolarization(
                    f"Im H(lambda_{k+1}, lambda_{l+1}) = {e[k, l]} is not integral")


def rosati_involution(ring: EndoRing, h0) -> RosatiData:
    """The involution alpha -> conj(M0)^-1 * conj_t(A) * conj(M0) in ring coordinates.

    h0 must be a positive definite hermitian matrix whose imaginary part
    is integral on the lattice.  The n images are solved against the
    basis in one elimination; each must act rationally on the lattice and
    lie in the span (else NotStable).  Verifies exactly, on integers,
    that the result is an involutive anti-automorphism.
    """
    t = ring.torus
    if not isinstance(h0, Mat):
        h0 = Mat.from_rows(h0)
    m0 = h0.map(lambda x: x.in_field(t.field))
    check_in_ns(t, m0)
    m0c = m0.conj()
    m0c_inv = m0c.inv()
    images = []
    for b in ring.basis:
        r_prime = _rational_rep(t, m0c_inv @ b.A.conj_t() @ m0c)
        if r_prime is None:
            raise NotStable(
                "Rosati image has a non-rational lattice action; H0 is not in NS")
        images.append([v for row in r_prime for v in row])
    rows = coords_in_rows_many(ring.basis_vecs(), images)
    if any(c is None for c in rows):
        raise NotStable("Rosati image left the endomorphism algebra")
    ros = RosatiData(ring=ring, H0=m0, involution=tuple(map(tuple, rows)))
    _verify_involution(ros)
    return ros


def _verify_involution(ros: RosatiData) -> None:
    """sigma^2 = id and sigma(b_j b_k) = sigma(b_k) sigma(b_j), in integers.

    With den the lcm of the involution's denominators and I = den * inv
    (row j = den * sigma(b_j)), the identities read
      I I = den^2 * id,
      den * sum_l S[j][k][l] I[l] = sum_{a,b} I[k][a] I[j][b] S[a][b],
    which are exact integer identities for all n + n^2 pairs.
    """
    n = ros.rank
    den = lcm(*(x.denominator for row in ros.involution for x in row))
    inv = [[int(x * den) for x in row] for row in ros.involution]

    def combine(coeffs, rows):
        out = [0] * n
        for c, row in zip(coeffs, rows):
            if c:
                for p, v in enumerate(row):
                    out[p] += c * v
        return out

    for j in range(n):
        invariant(combine(inv[j], inv) == [den * den if l == j else 0 for l in range(n)],
                  "involution squared is not the identity")
    s = ros.ring.structure
    for j in range(n):
        u = [combine(inv[j], s[a]) for a in range(n)]  # den * b_a sigma(b_j)
        for k in range(n):
            invariant([den * x for x in combine(s[j][k], inv)] == combine(inv[k], u),
                      "Rosati is not an anti-automorphism")


def symmetric_subspace(ros: RosatiData):
    """Basis and dimension of the Rosati-fixed subspace over Q."""
    n = ros.rank
    rows = []
    for k in range(n):
        rows.append([ros.involution[j][k] - (_F1 if j == k else _F0)
                     for j in range(n)])
    basis = rational_kernel(rows, n)
    return basis, len(basis)


class RealMultiplication(Record):
    d_prime: int             # positive squarefree part, > 1
    d_dblprime: int          # beta^2 = d_dblprime * identity
    beta: Endomorphism
    squarefree_certified: bool

    def __init__(self, d_prime, d_dblprime, beta, squarefree_certified):
        object.__setattr__(self, "d_prime", d_prime)
        object.__setattr__(self, "d_dblprime", d_dblprime)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "squarefree_certified", squarefree_certified)


def find_real_multiplication(ros: RosatiData, sym_basis) -> RealMultiplication:
    """A beta in the ring with beta^2 a positive nonsquare integer.

    ``sym_basis`` is the basis `symmetric_subspace(ros)` returns, which a
    caller that also reports its dimension computes once for both.
    Walks the Rosati-symmetric subspace in a deterministic order (basis
    vectors first, then small pair combinations), takes the minimal
    quadratic x^2 - t x + n of the first non-rational candidate whose
    discriminant is not a perfect square, and clears denominators from
    2*alpha - t.  A symmetric element with discriminant <= 0 contradicts
    a proved invariant and raises NegativeDiscriminant.
    """
    if len(sym_basis) < 2:
        raise NoSuchElement("symmetric subspace is rational only")
    ring = ros.ring
    n = ring.rank
    pairs = ((1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (2, -1))
    for coords in _small_combinations(sym_basis, pairs):
        if all(coords[k] == 0 for k in range(1, n)):
            continue
        r_alpha = ring.element_r(coords)
        mp = min_poly_rational_matrix(r_alpha)
        if len(mp) != 3:
            continue
        tr, nr = -mp[1], mp[0]
        disc = tr * tr - 4 * nr
        if disc <= 0:
            raise NegativeDiscriminant(
                f"symmetric element with discriminant {disc}; "
                "this contradicts a proved invariant of genuine polarizations")
        if _signed_squarefree(disc) == 1:
            continue
        beta0 = [2 * r_alpha[r][c] - (tr if r == c else 0)
                 for r in range(4) for c in range(4)]
        flat = clear_denominators(beta0)
        ints = [flat[4 * r:4 * r + 4] for r in range(4)]
        sq = _mat_mul_int(tuple(map(tuple, ints)), tuple(map(tuple, ints)))
        d_dbl = sq[0][0]
        invariant(all(sq[r][c] == (d_dbl if r == c else 0)
                      for r in range(4) for c in range(4)), "beta^2 is not scalar")
        invariant(d_dbl > 0, "beta^2 is not a positive scalar")
        _, d0, certified = squarefree_decomposition(d_dbl)
        r_beta = tuple(map(tuple, ints))
        beta = Endomorphism(R=r_beta, A=analytic_rep(ring.torus, r_beta))
        return RealMultiplication(d_prime=d0, d_dblprime=d_dbl, beta=beta,
                                  squarefree_certified=certified)
    raise NoSuchElement(
        "every explored symmetric element has a square discriminant")
