"""Exact matrices over field elements, rational elimination, integer lattices.

Matrix entries are FieldElements; the rational and integer routines work
on plain lists of Fractions / ints.  Everything is deterministic: pivots
are chosen first-nonzero, Hermite normal forms are canonical (positive
pivots, reduced entries above), so ranks and bases are reproducible.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

from .errors import DegenerateLattice, invariant
from .exactfield import FieldElement, NumberField, dot, eliminate, exact_sign, union_field
from .record import Record

_F0 = Fraction(0)


# ---------------------------------------------------------------------------
# matrices over a number field
# ---------------------------------------------------------------------------

class Mat(Record):
    rows: tuple[tuple[FieldElement, ...], ...]

    def __init__(self, rows):
        object.__setattr__(self, "rows", rows)

    @staticmethod
    def from_rows(rows) -> "Mat":
        rows = [list(r) for r in rows]
        field = None
        for r in rows:
            for x in r:
                if isinstance(x, FieldElement):
                    field = x.field if field is None else union_field(field, x.field)
        if field is None:
            raise ValueError("matrix needs at least one field element")
        out = []
        for r in rows:
            out.append(tuple(
                x.in_field(field) if isinstance(x, FieldElement) else field.rational(x)
                for x in r))
        return Mat(tuple(out))

    @staticmethod
    def identity(field: NumberField, n: int) -> "Mat":
        one, zero = field.one(), field.zero()
        return Mat(tuple(tuple(one if i == j else zero for j in range(n))
                         for i in range(n)))

    @staticmethod
    def zero(field: NumberField, m: int, n: int) -> "Mat":
        z = field.zero()
        return Mat(tuple(tuple(z for _ in range(n)) for _ in range(m)))

    @staticmethod
    def diagonal(entries) -> "Mat":
        entries = list(entries)
        field = entries[0].field
        n = len(entries)
        z = field.zero()
        return Mat.from_rows([[entries[i] if i == j else z for j in range(n)]
                              for i in range(n)])

    @property
    def field(self) -> NumberField:
        return self.rows[0][0].field

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]))

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.shape[1] != other.shape[0]:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.rows))
        return Mat(tuple(tuple(dot(r, c) for c in cols) for r in self.rows))

    def __add__(self, other: "Mat") -> "Mat":
        return Mat.from_rows([[a + b for a, b in zip(ra, rb)]
                              for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "Mat") -> "Mat":
        return Mat.from_rows([[a - b for a, b in zip(ra, rb)]
                              for ra, rb in zip(self.rows, other.rows)])

    def scale(self, s) -> "Mat":
        return self.map(lambda x: x * s)

    def map(self, f) -> "Mat":
        return Mat(tuple(tuple(f(x) for x in r) for r in self.rows))

    def transpose(self) -> "Mat":
        m, n = self.shape
        return Mat(tuple(tuple(self.rows[i][j] for i in range(m)) for j in range(n)))

    def conj(self) -> "Mat":
        return self.map(lambda x: x.conjugate())

    def conj_t(self) -> "Mat":
        return self.transpose().conj()

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.shape == other.shape and all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb))

    def __hash__(self):
        return hash(self.rows)

    def det(self) -> FieldElement:
        m, n = self.shape
        if m != n:
            raise ValueError("determinant of a non-square matrix")
        pivots, det = eliminate([list(r) for r in self.rows], reduced=False)
        return det if len(pivots) == n else self.field.zero()

    def inv(self) -> "Mat":
        inverse = self.det_and_inverse()[1]
        if inverse is None:
            raise DegenerateLattice("singular matrix")
        return inverse

    def det_and_inverse(self) -> tuple[FieldElement, "Mat | None"]:
        """(det M, M^-1) from one Gauss-Jordan pass over [M | I]; (0, None) when singular.

        The pass normalizes each pivot row only after reading its pivot, and
        the rows below see the same updates as in a forward elimination, so
        the signed pivot product `eliminate` returns is det M.
        """
        m, n = self.shape
        if m != n:
            raise ValueError("inverse of a non-square matrix")
        identity = Mat.identity(self.field, n).rows
        aug = [list(r) + list(e) for r, e in zip(self.rows, identity)]
        pivots, det = eliminate(aug)
        if pivots != list(range(n)):
            return self.field.zero(), None
        return det, Mat(tuple(tuple(row[n:]) for row in aug))

    def mul_vec(self, vec):
        """Matrix times a column vector of rationals."""
        vec = [self.field.rational(x) for x in vec]
        return tuple(dot(row, vec) for row in self.rows)

    def entries_str(self):
        return [[str(x) for x in r] for r in self.rows]


def is_positive_definite(h) -> bool:
    """Exact: leading entry and determinant both positive.

    ``h`` is a 2x2 hermitian Mat or a form holding one as ``h.M``.
    """
    m = h if isinstance(h, Mat) else h.M
    return exact_sign(m[0, 0]) > 0 and exact_sign(m.det()) > 0


# ---------------------------------------------------------------------------
# rational elimination
# ---------------------------------------------------------------------------

def rref(rows):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = [list(map(Fraction, r)) for r in rows]
    pivots, _ = eliminate(rows)
    return rows, pivots


def rational_kernel(rows, ncols):
    """Basis of the right kernel of a rational matrix, as Fraction vectors."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [_F0] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def coords_in_rows_many(rows, vecs):
    """Coordinates of each vec in the rational row span of ``rows``.

    Returns one entry per vec: Fractions x with sum(x[i] * rows[i]) = vec,
    the coordinates of non-pivot rows set to 0, or None when vec is
    outside the span.  One elimination of [rows^t | vec_1 ... vec_k]
    serves every vec.  The row operations that reduce the rows^t block
    act on each right-hand column on its own, so an in-span column reads
    its coordinates off the first ``rank`` rows, and a column lies
    outside the span exactly when it is nonzero below them.  A column
    outside the span may take a pivot of its own; its pivot row is zero
    in every in-span column, so clearing with it leaves those columns
    alone.
    """
    vecs = [[Fraction(v) for v in vec] for vec in vecs]
    n = len(rows)
    if not n:
        return [None if any(vec) else [] for vec in vecs]
    width = len(rows[0])
    if any(len(vec) != width for vec in vecs):
        raise ValueError("vector length does not match the rows")
    aug = [[Fraction(row[i]) for row in rows] + [vec[i] for vec in vecs]
           for i in range(width)]
    pivots, _ = eliminate(aug)
    rank = sum(1 for c in pivots if c < n)
    out = []
    for j in range(n, n + len(vecs)):
        if any(aug[i][j] for i in range(rank, width)):
            out.append(None)
            continue
        x = [_F0] * n
        for i in range(rank):
            x[pivots[i]] = aug[i][j]
        out.append(x)
    return out


def monomial_rows(conditions):
    """Primitive integer rows of field-valued linear conditions, one per monomial.

    conditions[r][j] is the coefficient of unknown j in condition r, all
    in one field.  Each condition is scaled by the lcm of its
    denominators, and each row is divided by its gcd.  An integer vector
    satisfies every condition exactly when the rows annihilate it.
    """
    out = []
    for cond in conditions:
        l = lcm(*(x.den for x in cond))
        scaled = [x.num if x.den == l else [v * (l // x.den) for v in x.num]
                  for x in cond]
        for row in zip(*scaled):
            g = gcd(*row)
            out.append(list(row) if g <= 1 else [v // g for v in row])
    return out


def clear_denominators(row):
    """Scale a rational row to a primitive integer row."""
    l = lcm(*(v.denominator for v in row))
    ints = [int(v * l) for v in row]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


# ---------------------------------------------------------------------------
# integer lattices
# ---------------------------------------------------------------------------

def _xgcd(a, b):
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return g, x, y


def hnf(rows):
    """Canonical row Hermite normal form; zero rows dropped.

    Pivots are positive, entries above a pivot are reduced into
    [0, pivot), rows ordered by pivot column.  The stored rows are put in
    that form after each input vector (Kannan and Bachem, SIAM J. Comput.
    8, 1979), so entries stay near the size of the answer instead of
    growing until a final pass.
    """
    rows = [list(map(int, r)) for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    pivot_row: dict[int, int] = {}
    store: list[list[int]] = []
    column: list[int] = []  # the pivot column of each stored row
    order: list[int] = []   # the stored rows by pivot column
    for vec in rows:
        vec = vec[:]
        changed = []  # the stored rows this vector changes
        j = 0
        while j < ncols:
            if vec[j] == 0:
                j += 1
                continue
            p = pivot_row.get(j)
            if p is None:
                p = pivot_row[j] = len(store)
                store.append(vec)
                column.append(j)
                changed.append(p)
                order.insert(bisect_left(order, j, key=column.__getitem__), p)
                break
            row = store[p]
            a, b = row[j], vec[j]
            if b % a == 0:
                q = b // a
                for k in range(j, ncols):
                    vec[k] -= q * row[k]
            else:
                changed.append(p)
                g, x, y = _xgcd(a, b)
                ag, bg = a // g, b // g
                for k in range(j, ncols):
                    ra, va = row[k], vec[k]
                    row[k] = x * ra + y * va
                    vec[k] = -bg * ra + ag * va
        if not changed:
            continue
        # Make every pivot positive and reduce the entries above it into
        # [0, pivot).  The rows were in that form before the rows in
        # `changed` changed, so the walk starts at the first changed pivot.
        # Pivots are visited in column order, and reducing with a row
        # changes the rows above it only from its pivot column on, so each
        # pivot sees the final values of the rows above it.  A changed
        # pivot row is checked against every row above it; an unchanged
        # one only against the rows changed so far.
        for idx in range(order.index(changed[0]), len(order)):
            p = order[idx]
            j, row = column[p], store[p]
            if p in changed:
                if row[j] < 0:
                    row = store[p] = [-v for v in row]
                above = order[:idx]
            else:
                above = [a for a in changed if column[a] < j]
            pivot = row[j]
            for a in above:
                target = store[a]
                q = target[j] // pivot
                if q:
                    for k in range(j, ncols):
                        target[k] -= q * row[k]
                    if a not in changed:
                        changed.append(a)
    return [store[p] for p in order]


def integer_kernel(rows, ncols):
    """Z-basis of {x in Z^n : M x = 0}, saturated, as a canonical HNF.

    Row-reduces [M^t | I]: the unimodular transform rows that kill the
    M^t part are exactly the kernel vectors.  They are the rows of the
    canonical HNF with their pivot in the I part, so they are a
    canonical HNF already.  Zero rows of M are dropped; the rows need
    not be primitive, since scaling them does not change the kernel.
    """
    rows = [list(r) for r in rows if any(r)]
    m = len(rows)
    aug = []
    for c in range(ncols):
        left = [rows[r][c] for r in range(m)]
        right = [1 if k == c else 0 for k in range(ncols)]
        aug.append(left + right)
    return [row[m:] for row in hnf(aug) if not any(row[:m])]


def coords_in_rows(rows, vec):
    """Coordinates of vec in the given rows, or None (see coords_in_rows_many)."""
    return coords_in_rows_many(rows, [vec])[0]


def complete_to_unimodular(coeffs):
    """A unimodular integer matrix U whose first row is ``coeffs``.

    Requires gcd(coeffs) = 1.  The extended Euclidean algorithm reduces
    ``coeffs`` to +-e1 by 2x2 steps on the entries 0 and j; U is built
    as the product of their integer inverses, each acting on the rows
    0 and j, so that coeffs = e1 U.
    """
    n = len(coeffs)
    if gcd(*coeffs) != 1:
        raise ValueError("first row must be primitive")
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    cur = coeffs[0]
    for j in range(1, n):
        b = coeffs[j]
        if b == 0:
            continue
        g2, x, y = _xgcd(cur, b)
        # (cur, b) [[x, -b/g2], [y, cur/g2]] = (g2, 0); the inverse step
        # [[cur/g2, b/g2], [-y, x]] acts on the rows 0 and j of U
        ag, bg = cur // g2, b // g2
        u[0], u[j] = ([ag * p + bg * q for p, q in zip(u[0], u[j])],
                      [x * q - y * p for p, q in zip(u[0], u[j])])
        cur = g2
    invariant(cur in (1, -1), "coefficients are not primitive")
    if cur == -1:
        u[0] = [-v for v in u[0]]
    return u
