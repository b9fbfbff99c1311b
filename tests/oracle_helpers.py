"""Independent cross-check routines for the tests.

These deliberately avoid the library's elimination code: the rank oracle
builds the compatibility system with reversed variable and equation
order and reduces it with its own last-column-first pivoting, and the
root enclosure comes from integer roots rather than from refining a box.
The semidefiniteness oracle tests every principal minor with its own
Fraction determinant, where the library runs one Lagrange reduction.
The embed reference builds every generator and power box afresh on each
call, as embed did before it cached monomial boxes.  The structure-tensor and
Rosati references run `eliminate` on one right-hand column at a time, as
the library did before it solved every vector against a basis in one
elimination, and check the involution over Fractions instead of
integers.

The complex structure J = P^-1 diag(i, i, -i, -i) P and the big period
matrix P are built here alone, with P^-1 from `Mat.inv` over P, an
elimination apart from the library's pass over the real coordinate
matrix C; the library keeps only Pi^+ and det C.  The NS rank oracle
and the tests that check NS forms by J^t E J = E and End by R J = J R
read J from here.

The brute-force End oracle enumerates endomorphisms in a box through the
commutation J R = R J, a different formulation from the ring computation,
and the ring side lists its own elements in the same box.  The numeric
independence screen searches small integer relations among embedded
elements; no construction path runs it, the exact certificate does that
job.  The real-determinant reference takes det C by a forward
elimination, where the library keeps it from its Gauss-Jordan pass.

The last routines are the library's own earlier versions, kept verbatim
as references: the row HNF that reduced above its pivots only in a final
pass, root bisection on Fraction endpoints, the multiplication table
built from Fraction power rows, the torus construction that eliminated
over the big period matrix P, and the seeded draw that summed monomial
multiples.  The library now reduces after every input vector, bisects
and builds tables on integers, eliminates over the real coordinate
matrix C and draws each element as one coefficient vector, with the
same results.

The box predicates, `real_part`, the monomial helpers and the final
section are maps that no command runs, so they live here: canonical
(a, b) coordinates of a form in N_D (the library goes the other way, by
`canonical_form_matrix`), ring elements as analytic matrices, the Rosati
involution on coordinates, and the NS -> End^s map with its membership
and isomorphism checks.
"""

import itertools
import math
import random
import types
from fractions import Fraction
from itertools import combinations
from math import isqrt

from toruslab.errors import (
    DegenerateLattice,
    GenerationFailed,
    NotInEndo,
    NotInND,
    NotReal,
    PerfectSquare,
    ValidationError,
    invariant,
)
from toruslab.endo import EndoRing, _mat_mul_int, symmetric_subspace
from toruslab.exactfield import (
    ComplexBox,
    FieldElement,
    NumberField,
    _box_pow,
    _field_data,
    _gen_box,
    _poly_eval,
    _sign,
    eliminate,
    embed,
    exact_sign,
    is_perfect_square,
    sqrt_element,
    squarefree_decomposition,
    union_field,
)
from toruslab.linalg import Mat, _xgcd, coords_in_rows, coords_in_rows_many, hnf, rref
from toruslab.neronseveri import (
    _PAIRS,
    CanonicalFormCoords,
    HermForm,
    transport_to_diagonal,
)
from toruslab.torus import PeriodMatrix, Torus, lattice_form, rational_rep, sqrt_d_basis_lattice

_F0 = Fraction(0)
_F1 = Fraction(1)

_REVERSED_PAIRS = ((2, 3), (1, 3), (1, 2), (0, 3), (0, 2), (0, 1))


def oracle_ns_rank(t) -> int:
    """Rank of NS(T) by an independent elimination order."""
    field = t.field
    n_mono = field.degree
    j = complex_structure(t)
    jt = j.transpose()
    system = {}
    for col, (k, l) in enumerate(_REVERSED_PAIRS):
        e0 = [[0] * 4 for _ in range(4)]
        e0[k][l], e0[l][k] = 1, -1
        e0_f = Mat.from_rows([[field.rational(v) for v in r] for r in e0])
        diff = (jt @ e0_f @ j) - e0_f
        for a, b in _REVERSED_PAIRS:
            for m in range(n_mono):
                c = diff[a, b].coeffs[m]
                if c:
                    row = system.setdefault((a, b, m), [Fraction(0)] * 6)
                    row[col] += c
    mat = [row for row in system.values() if any(v != 0 for v in row)]
    return _kernel_dim_last_pivot(mat, 6)


def _kernel_dim_last_pivot(rows, ncols) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(ncols - 1, -1, -1):
        piv = None
        for r in range(len(rows) - 1, -1, -1):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        pivot_row = rows.pop(piv)
        inv = 1 / pivot_row[col]
        pivot_row = [v * inv for v in pivot_row]
        rows = [[v - r[col] * w for v, w in zip(r, pivot_row)]
                if r[col] != 0 else r for r in rows]
        rank += 1
    return ncols - rank


def bisection_enclosure(coeffs, lo: Fraction, hi: Fraction, width: Fraction):
    """Enclosure of width <= width of the root n^(1/j) of x^j - n in [lo, hi].

    Built from integer roots, not by refining [lo, hi]: for the least k
    with 2^-k <= width, a = floor(2^k n^(1/j)) is the integer j-th root
    of n 2^(jk), and the root lies in [a / 2^k, (a + 1) / 2^k].  The name
    is kept from the bisection this replaced.
    """
    j = len(coeffs) - 1
    n = -coeffs[0]
    assert coeffs[-1] == 1 and not any(coeffs[1:-1]), "not a binomial x^j - n"
    assert n > 0 and n.denominator == 1 and 0 < lo and lo ** j <= n <= hi ** j
    k = 0
    while Fraction(1, 2 ** k) > width:
        k += 1
    big = int(n) << (j * k)
    a = _integer_root(big, j)
    if a ** j == big:
        return Fraction(a, 2 ** k), Fraction(a, 2 ** k)
    return Fraction(a, 2 ** k), Fraction(a + 1, 2 ** k)


def _integer_root(n: int, j: int) -> int:
    """floor(n^(1/j)) for n >= 1: math.isqrt, or integer Newton from above."""
    if j == 2:
        return isqrt(n)
    x = 1 << -(-n.bit_length() // j)      # 2^ceil(bits / j) > n^(1/j)
    while True:
        y = ((j - 1) * x + n // x ** (j - 1)) // j
        if y >= x:
            return x
        x = y


def is_negative_semidefinite(q) -> bool:
    """Exact test: every principal minor of -q is nonnegative."""
    n = len(q)
    neg = [[-Fraction(v) for v in row] for row in q]
    return all(fraction_det([[neg[a][b] for b in subset] for a in subset]) >= 0
               for size in range(1, n + 1)
               for subset in combinations(range(n), size))


def fraction_det(m) -> Fraction:
    """Determinant by Gaussian elimination over Fractions, counting row swaps."""
    m = [list(row) for row in m]
    n = len(m)
    det = _F1
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return _F0
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def embed_per_call(a, precision_bits: int) -> ComplexBox:
    """embed with the generator and power boxes built on every call.

    The monomial box of each nonzero coefficient is the product, in
    generator order, of the powers of the refined generator boxes; the
    cached embed must return exactly these endpoints.
    """
    if precision_bits < 8:
        raise ValidationError("precision_bits must be >= 8")
    width = Fraction(1, 1 << (precision_bits + 8))
    data = _field_data(a.field)
    gen_boxes = {}
    needed = set()
    for k, c in enumerate(a.num):
        if not c:
            continue
        for j, e in enumerate(data.exps[k]):
            if e:
                needed.add(j)
    for j in needed:
        gen_boxes[j] = _gen_box(a.field.generators[j], width)
    total = ComplexBox.exact(_F0)
    pow_cache: dict[tuple[int, int], ComplexBox] = {}
    for k, c in enumerate(a.num):
        if not c:
            continue
        mono = ComplexBox.exact(_F1)
        for j, e in enumerate(data.exps[k]):
            if not e:
                continue
            key = (j, e)
            if key not in pow_cache:
                pow_cache[key] = _box_pow(gen_boxes[j], e)
            mono = mono.mul(pow_cache[key])
        total = total.add(mono.scale(c))
    # den > 0: the same endpoints as a sum of coefficient-scaled boxes
    return total if a.den == 1 else total.scale(Fraction(1, a.den))


def rank_last_pivot(rows, ncols) -> int:
    """Rank of a rational matrix by the last-column-first elimination."""
    return ncols - _kernel_dim_last_pivot([[Fraction(v) for v in r] for r in rows], ncols)


def coords_one_vector(rows, vec):
    """Coordinates of vec in the row span, by one elimination of [rows^t | vec]."""
    n = len(rows)
    aug = [[Fraction(r[i]) for r in rows] + [Fraction(vec[i])] for i in range(len(vec))]
    pivots, _ = eliminate(aug)
    if n in pivots:
        return None
    x = [_F0] * n
    for r, pc in enumerate(pivots):
        x[pc] = aug[r][n]
    return x


def structure_tensor_per_product(basis):
    """Integer coordinates of each b_i b_j, one solve per product."""
    vecs = [b.vec() for b in basis]
    tensor = []
    for bi in basis:
        row = []
        for bj in basis:
            prod = _mat_mul_int(bi.R, bj.R)
            coords = coords_one_vector(vecs, [v for r in prod for v in r])
            assert coords is not None and all(c.denominator == 1 for c in coords)
            row.append(tuple(int(c) for c in coords))
        tensor.append(tuple(row))
    return tuple(tensor)


def rosati_rows_per_image(ring, m0):
    """Ring coordinates of conj(M0)^-1 conj_t(A_j) conj(M0), one solve per basis element."""
    t = ring.torus
    m0c = m0.map(lambda x: x.in_field(t.field)).conj()
    m0c_inv = m0c.inv()
    rows = []
    for b in ring.basis:
        r_prime = rational_rep(t, m0c_inv @ b.A.conj_t() @ m0c)
        assert r_prime is not None
        coords = coords_one_vector([b.vec() for b in ring.basis],
                                   [v for row in r_prime for v in row])
        assert coords is not None
        rows.append(tuple(coords))
    return tuple(rows)


def involution_holds_over_fractions(ring, involution) -> bool:
    """sigma^2 = id and sigma(b_j b_k) = sigma(b_k) sigma(b_j) over Fractions."""
    n = ring.rank

    def apply(coords):
        return [sum(Fraction(coords[j]) * involution[j][k] for j in range(n))
                for k in range(n)]

    e = [[_F1 if i == j else _F0 for j in range(n)] for i in range(n)]
    img = [apply(e[j]) for j in range(n)]
    if any(apply(img[j]) != e[j] for j in range(n)):
        return False
    return all(apply(ring.structure[j][k]) == ring.multiply_coords(img[k], img[j])
               for j in range(n) for k in range(n))


class BoundTooLarge(Exception):
    """The box oracle was asked for more candidates than it enumerates."""


def endo_box_oracle(t: Torus, bound: int, shape: str = "full"):
    """Independent enumeration of endomorphisms with entries in [-bound, bound].

    Uses the commutation J R = R J (a different formulation than the ring
    computation) to cut the search to the free coordinates of the
    solution space, then validates every candidate against the defining
    equation A Pi = Pi R.  Intended for cross-checking compute_endo_ring
    in tests; bound is capped at 3.
    """
    if bound < 1 or bound > 3:
        raise BoundTooLarge("oracle bound must be between 1 and 3")
    field = t.field
    pi = t.period.entries
    q1 = t.pi_plus

    def definition_check(r_rows):
        rmat = Mat.from_rows([[field.rational(v) for v in row] for row in r_rows])
        a = (pi @ rmat) @ q1
        return (a @ pi) == (pi @ rmat)

    results = []
    if shape == "diagonal":
        for diag in itertools.product(range(-bound, bound + 1), repeat=4):
            r_rows = tuple(tuple(diag[r] if r == c else 0 for c in range(4))
                           for r in range(4))
            if definition_check(r_rows):
                results.append(r_rows)
        return sorted(results)
    if shape != "full":
        raise ValueError(f"unknown shape {shape!r}")

    j = complex_structure(t)
    rows = []
    for r in range(4):
        for c in range(4):
            cols = [field.zero()] * 16
            for k in range(4):
                cols[4 * k + c] = cols[4 * k + c] + j[r, k]
            for k in range(4):
                cols[4 * r + k] = cols[4 * r + k] - j[k, c]
            for row in zip(*(x.coeffs for x in cols)):
                if any(v != 0 for v in row):
                    rows.append(list(row))
    red, pivots = rref(rows)
    free = [c for c in range(16) if c not in pivots]
    if len(free) > 9:
        raise BoundTooLarge("solution space too large for full enumeration")
    for assignment in itertools.product(range(-bound, bound + 1), repeat=len(free)):
        vec = [_F0] * 16
        ok = True
        for fc, v in zip(free, assignment):
            vec[fc] = Fraction(v)
        for r, pc in enumerate(pivots):
            val = -sum(red[r][fc] * vec[fc] for fc in free)
            if val.denominator != 1 or abs(val) > bound:
                ok = False
                break
            vec[pc] = val
        if not ok:
            continue
        r_rows = tuple(tuple(int(vec[4 * r + c]) for c in range(4)) for r in range(4))
        if definition_check(r_rows):
            results.append(r_rows)
    return sorted(results)


def ring_box_intersection(ring: EndoRing, bound: int):
    """All ring elements with every R entry in [-bound, bound]."""
    h = hnf(ring.basis_vecs())
    pts = lattice_points_in_box(h, bound)
    return sorted(tuple(tuple(v[4 * r + c] for c in range(4)) for r in range(4))
                  for v in pts)


def lattice_points_in_box(hnf_rows, bound):
    """All lattice vectors (Z-combinations of HNF rows) with sup-norm <= bound.

    Walks coordinates in pivot order, pruning with the pivot entries;
    output is sorted lexicographically.
    """
    if not hnf_rows:
        return [tuple()]
    n = len(hnf_rows[0])
    pivots = [next(k for k, v in enumerate(row) if v) for row in hnf_rows]
    out = []

    def rec(idx, partial):
        if idx == len(hnf_rows):
            if all(abs(v) <= bound for v in partial):
                out.append(tuple(partial))
            return
        row = hnf_rows[idx]
        p = pivots[idx]
        # partial[p] + c * row[p] must land in [-bound, bound]; row[p] > 0
        a = row[p]
        cmin = _ceil_div(-bound - partial[p], a)
        cmax = (bound - partial[p]) // a
        for c in range(cmin, cmax + 1):
            rec(idx + 1, [v + c * w for v, w in zip(partial, row)])

    rec(0, [0] * n)
    return sorted(out)


def _ceil_div(a, b):
    return -((-a) // b)


def find_small_relation(elements, height: int = 10, precision_bits: int = 128):
    """Search for a small integer relation among the given elements.

    Returns the first coefficient vector (entries bounded by ``height``,
    first nonzero entry positive) whose combination embeds into a box
    containing 0 at the requested precision, or None.  A returned vector
    is a *suspicion*, not a proof of dependence; None is a sanity screen,
    not a proof of independence.  It tries (2 * height + 1)^n vectors, so
    no construction path calls it: `certify_independence` is the proof.
    """
    elements = list(elements)
    if not elements:
        return None
    field = elements[0].field
    for e in elements[1:]:
        field = union_field(field, e.field)
    elements = [e.in_field(field) for e in elements]
    boxes = [embed(e, precision_bits + 32) for e in elements]
    mids = [complex((b.re_lo + b.re_hi) / 2, (b.im_lo + b.im_hi) / 2) for b in boxes]
    scale = max(abs(m) for m in mids) + 1.0
    ranges = [range(-height, height + 1)] * len(elements)
    for c in itertools.product(*ranges):
        if all(v == 0 for v in c):
            continue
        first = next(v for v in c if v != 0)
        if first < 0:
            continue
        approx = sum(v * m for v, m in zip(c, mids))
        if abs(approx) > 1e-9 * scale * height:
            continue
        total = ComplexBox.exact(_F0)
        for v, b in zip(c, boxes):
            if v:
                total = total.add(b.scale(Fraction(v)))
        if box_contains_zero(total):
            return tuple(c)
    return None


def box_contains_zero(box: ComplexBox) -> bool:
    return box.re_lo <= 0 <= box.re_hi and box.im_lo <= 0 <= box.im_hi


def box_contains(outer: ComplexBox, inner: ComplexBox) -> bool:
    return (outer.re_lo <= inner.re_lo and inner.re_hi <= outer.re_hi and
            outer.im_lo <= inner.im_lo and inner.im_hi <= outer.im_hi)


def boxes_overlap(a: ComplexBox, b: ComplexBox) -> bool:
    return (a.re_lo <= b.re_hi and b.re_lo <= a.re_hi and
            a.im_lo <= b.im_hi and b.im_lo <= a.im_hi)


def box_width(box: ComplexBox) -> Fraction:
    return max(box.re_hi - box.re_lo, box.im_hi - box.im_lo)


def real_part(x):
    """(x + conj x) / 2, a real element of the field of x."""
    return (x + x.conjugate()) * Fraction(1, 2)


def real_det_from_c(t):
    """det C for the real coordinate matrix C = [Re Pi_0; Im Pi_0; Re Pi_1; Im Pi_1]."""
    rows = []
    for r in range(2):
        rows.append([real_part(t.period.entries[r, c]) for c in range(4)])
        rows.append([t.period.entries[r, c].imag_part() for c in range(4)])
    return Mat.from_rows(rows).det()


def hnf_reduced_at_end(rows):
    """Canonical row Hermite normal form; zero rows dropped.

    Pivots are positive, entries above a pivot are reduced into
    [0, pivot), rows ordered by pivot column.
    """
    rows = [list(map(int, r)) for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    pivot_row: dict[int, int] = {}
    store: list[list[int]] = []
    for vec in rows:
        vec = vec[:]
        j = 0
        while j < ncols:
            if vec[j] == 0:
                j += 1
                continue
            p = pivot_row.get(j)
            if p is None:
                pivot_row[j] = len(store)
                store.append(vec)
                break
            row = store[p]
            a, b = row[j], vec[j]
            if b % a == 0:
                q = b // a
                for k in range(j, ncols):
                    vec[k] -= q * row[k]
            else:
                g, x, y = _xgcd(a, b)
                ag, bg = a // g, b // g
                for k in range(j, ncols):
                    ra, va = row[k], vec[k]
                    row[k] = x * ra + y * va
                    vec[k] = -bg * ra + ag * va
    basis = [store[p] for _, p in sorted(pivot_row.items())]
    # canonical reduction: positive pivots, reduce above
    for idx in range(len(basis)):
        row = basis[idx]
        j = next(k for k, v in enumerate(row) if v)
        if row[j] < 0:
            row = basis[idx] = [-v for v in row]
        for above in range(idx):
            q = basis[above][j] // row[j]
            if q:
                basis[above] = [v - q * w for v, w in zip(basis[above], row)]
    return basis


def refine_real_root_fractions(coeffs, lo: Fraction, hi: Fraction, target: Fraction):
    """Shrink an isolating interval to width at most ``target`` by bisection.

    The interval must contain exactly one root with a sign change at the
    endpoints (enforced by GeneratorSpec.validate); every step halves it,
    so the loop ends after about log2((hi - lo) / target) steps.
    """
    if lo == hi:
        return lo, hi
    sign_lo = _sign(_poly_eval(coeffs, lo))
    while hi - lo > target:
        mid = (lo + hi) / 2
        s = _sign(_poly_eval(coeffs, mid))
        if s == 0:
            return mid, mid
        if s == sign_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def power_rows_fractions(min_poly: tuple[Fraction, ...]) -> list[list[Fraction]]:
    d = len(min_poly) - 1
    neg_tail = [-min_poly[j] for j in range(d)]
    rows = [[_F0] * d for _ in range(2 * d - 1)]
    rows[0][0] = _F1
    for e in range(1, 2 * d - 1):
        prev = rows[e - 1]
        cur = [_F0] * d
        for j in range(d - 1):
            cur[j + 1] += prev[j]
        top = prev[d - 1]
        if top:
            for j in range(d):
                cur[j] += top * neg_tail[j]
        rows[e] = cur
    return rows


def field_table_fractions(field):
    """(table, table_den) of a field's integer product table, built over Fractions."""
    data = _field_data(field)
    self = types.SimpleNamespace(gens=data.gens, exps=data.exps, index=data.index,
                                 size=data.size)
    rows = [power_rows_fractions(g.min_poly) for g in self.gens]
    table = [[None] * self.size for _ in range(self.size)]
    for a, ea in enumerate(self.exps):
        for b, eb in enumerate(self.exps):
            terms = [((), _F1)]
            for j in range(len(self.gens)):
                row = rows[j][ea[j] + eb[j]]
                nxt = []
                for prefix, c in terms:
                    for p, rc in enumerate(row):
                        if rc:
                            nxt.append((prefix + (p,), c * rc))
                terms = nxt
            table[a][b] = tuple((self.index[exp], c) for exp, c in terms)
    den = self.table_den = math.lcm(*(c.denominator for r in table for t in r for _, c in t))
    self.table = [[tuple((k, int(c * den)) for k, c in t) for t in r] for r in table]
    return self.table, self.table_den


def monomial_exponents(field):
    """The exponent vectors of the field's monomial basis, in basis order."""
    return _field_data(field).exps


def field_element(field, coeff_map):
    """The element sum(c * monomial(exp)) for a map exp -> c of rational coefficients."""
    data = _field_data(field)
    coeffs = [_F0] * data.size
    for exp, c in coeff_map.items():
        coeffs[data.index[exp]] = c
    return FieldElement(field, coeffs)


def _over_conj(m: Mat) -> Mat:
    """m stacked over its entrywise conjugate."""
    return Mat(m.rows + m.conj().rows)


def big_period_matrix(t) -> Mat:
    """The 4x4 big period matrix P = [Pi over conj(Pi)] of a torus."""
    return _over_conj(t.period.entries)


def complex_structure(t) -> Mat:
    """J = P^-1 diag(i, i, -i, -i) P, multiplication by i on lattice coordinates."""
    p = big_period_matrix(t)
    i = t.field.i()
    return p.inv() @ Mat.diagonal([i, i, -i, -i]) @ p


def build_torus_from_big_p(period: PeriodMatrix):
    """`build_torus` as it was, over the big period matrix P, with J beside the torus.

    One Gauss-Jordan pass over [P | I] gives both det P and P^-1, whose
    first two columns are Pi^+.  J is P^-1 diag(i, i, -i, -i) P =
    P^-1 [i Pi; -i conj Pi], and -i conj Pi = conj(i Pi), so J is one
    product of P^-1 with the big period matrix of i Pi.

    Raises DegenerateLattice when det P = 0, NotReal when J fails its
    exact realness check (inconsistent conjugation declarations).
    """
    pi = period.entries
    p = _over_conj(pi)
    field = p.field
    det, p_inv = p.det_and_inverse()
    if p_inv is None or exact_sign(det * det.conjugate()) <= 0:
        raise DegenerateLattice("big period matrix is singular")
    i = field.i()
    j = p_inv @ _over_conj(pi.map(lambda x: x * i))
    for r in range(4):
        for c in range(4):
            if not j[r, c].is_real():
                raise NotReal(
                    f"complex structure entry ({r},{c}) = {j[r, c]} is not real")
    minus_id = Mat.identity(field, 4).scale(-1)
    invariant(j @ j == minus_id, "complex structure does not square to -1")
    period = PeriodMatrix(pi.map(lambda x: x.in_field(field)))
    real_det = det * Fraction(1, 4)
    pi_plus = Mat(tuple(row[:2] for row in p_inv.rows))
    t = Torus(period=period, field=field, pi_plus=pi_plus, real_det=real_det,
              orientation=exact_sign(real_det))
    return t, j


def random_torus_by_monomial_sums(d: int, seed: int):
    """`random_torus_with_sqrt_d`, drawing each element as a sum of monomial multiples."""
    if d == 0 or (d > 0 and is_perfect_square(d)):
        raise PerfectSquare(f"d = {d} is a square")
    field = NumberField(())
    field, _ = sqrt_element(field, abs(d))
    _, d0, _ = squarefree_decomposition(abs(d))
    extra = next(p for p in (2, 3, 5, 7, 11) if p != d0)
    field, _ = sqrt_element(field, extra)
    rng = random.Random(seed)
    monomials = [field_element(field, {exp: Fraction(1)}) for exp in monomial_exponents(field)]

    def draw_element():
        acc = field.zero()
        for mono in monomials:
            c = Fraction(rng.randint(-2, 2), rng.choice((1, 2)))
            if c:
                acc = acc + mono * c
        return acc

    for _ in range(16):
        e1 = (draw_element(), draw_element())
        e2 = (draw_element(), draw_element())
        try:
            return sqrt_d_basis_lattice(d, e1, e2)
        except DegenerateLattice:
            continue
    raise GenerationFailed(f"16 degenerate draws for d={d}, seed={seed}")


# ---------------------------------------------------------------------------
# canonical coordinates, ring elements and the NS -> End^s map
# ---------------------------------------------------------------------------

def canonical_form_coordinates(mult, h) -> CanonicalFormCoords:
    """(a, b) of a form in N_D; the library goes the other way, by canonical_form_matrix."""
    mp = transport_to_diagonal(mult, h)
    if mult.d > 0:
        if not (mp[0, 1].is_zero() and mp[1, 0].is_zero()):
            raise NotInND(
                f"transported matrix has off-diagonal entries {mp[0, 1]}, {mp[1, 0]}")
        return CanonicalFormCoords(a=mp[0, 0], b=mp[1, 1])
    if not (mp[0, 0].is_zero() and mp[1, 1].is_zero()):
        raise NotInND(
            f"transported matrix has diagonal entries {mp[0, 0]}, {mp[1, 1]}")
    top = mp[0, 1]
    return CanonicalFormCoords(a=real_part(top), b=top.imag_part())


def element_a(ring: EndoRing, coords) -> Mat:
    """Analytic matrix of a rational coordinate vector of the ring."""
    field = ring.torus.field
    acc = Mat.zero(field, 2, 2)
    for c, b in zip(coords, ring.basis):
        if c:
            acc = acc + b.A.scale(field.rational(Fraction(c)))
    return acc


def rosati_apply(ros, coords):
    """Coordinates of alpha' for alpha given in ring coordinates."""
    n = ros.rank
    return [sum(Fraction(coords[j]) * ros.involution[j][k] for j in range(n))
            for k in range(n)]


def ns_membership_coords(ns, h) -> list[Fraction]:
    """Rational coordinates of a hermitian form in the NS basis, or raise."""
    m = h.M if isinstance(h, HermForm) else h
    t = ns.torus
    field = union_field(t.field, m.field)
    hf = HermForm(m.map(lambda v: v.in_field(field)))
    e = lattice_form(t, hf.M)
    vals = []
    for k, l in _PAIRS:
        if not e[k, l].is_rational():
            raise NotInEndo("form has irrational lattice values; not in NS_Q")
        vals.append(e[k, l].rational_value())
    basis_rows = [[Fraction(alt.E[k][l]) for k, l in _PAIRS] for alt, _ in ns.basis]
    coords = coords_in_rows(basis_rows, vals) if basis_rows else None
    if coords is None:
        raise NotInEndo("form is outside the rational span of NS")
    _, recon = ns.combination(coords)
    if recon.M != hf.M.map(lambda v: v.in_field(recon.M.field)):
        raise NotInEndo("form matches NS on the lattice but is incompatible")
    return coords


def ns_to_symmetric_endo(h, ros, ns, h0):
    """Ring coordinates of the endomorphism with analytic matrix conj(M0)^-1 conj(M).

    M0 is the matrix h0 that ros was built from by `rosati_involution`.

    Verifies membership in the ring and Rosati-symmetry; asserts
    injectivity on the NS basis and dim NS_Q = dim of the symmetric
    subspace.
    """
    ns_membership_coords(ns, h)  # raises NotInEndo when h is outside NS_Q
    (coords,) = _psi_coords(ros, h0, [h])
    if rosati_apply(ros, coords) != list(coords):
        raise NotInEndo("image endomorphism is not Rosati-symmetric")
    _verify_ns_endo_iso(ros, ns, h0)
    return coords


def _psi_coords(ros, h0, hs):
    """Ring coordinates of conj(M0)^-1 conj(M) for each form, from one elimination."""
    ring = ros.ring
    t = ring.torus
    field = t.field
    m0c_inv = h0.map(lambda v: v.in_field(field)).conj().inv()
    images = []
    for h in hs:
        m = h.M if isinstance(h, HermForm) else h
        r = rational_rep(t, m0c_inv @ m.map(lambda v: v.in_field(field)).conj())
        if r is None:
            raise NotInEndo("induced map does not act rationally on the lattice")
        images.append([v for row in r for v in row])
    coords = coords_in_rows_many(ring.basis_vecs(), images)
    if any(c is None for c in coords):
        raise NotInEndo("induced map is not in the endomorphism algebra")
    return coords


def _verify_ns_endo_iso(ros, ns, h0) -> None:
    images = _psi_coords(ros, h0, [herm for _, herm in ns.basis])
    if images:
        _, pivots = rref(images)
        invariant(len(pivots) == ns.rank, "NS -> End^s map is not injective on the basis")
    _, sym_dim = symmetric_subspace(ros)
    invariant(sym_dim == ns.rank, "dim NS_Q differs from dim End_Q^s")
