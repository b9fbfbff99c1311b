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
"""

from fractions import Fraction
from itertools import combinations
from math import isqrt

from toruslab.errors import ValidationError
from toruslab.endo import _mat_mul_int, _rational_rep
from toruslab.exactfield import ComplexBox, _box_pow, _field_data, _gen_box, eliminate
from toruslab.linalg import Mat

_F0 = Fraction(0)
_F1 = Fraction(1)

_REVERSED_PAIRS = ((2, 3), (1, 3), (1, 2), (0, 3), (0, 2), (0, 1))


def oracle_ns_rank(t) -> int:
    """Rank of NS(T) by an independent elimination order."""
    field = t.field
    n_mono = field.degree
    jt = t.J.transpose()
    system = {}
    for col, (k, l) in enumerate(_REVERSED_PAIRS):
        e0 = [[0] * 4 for _ in range(4)]
        e0[k][l], e0[l][k] = 1, -1
        e0_f = Mat.from_rows([[field.rational(v) for v in r] for r in e0])
        diff = (jt @ e0_f @ t.J) - e0_f
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
        r_prime = _rational_rep(t, m0c_inv @ b.A.conj_t() @ m0c)
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
