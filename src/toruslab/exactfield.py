"""Exact arithmetic in declared algebraic number fields.

A field is presented as a tensor of simple extensions: each generator
carries a monic rational minimal polynomial, a complex interval isolating
the intended root, and a conjugation kind.  An element is a tuple of
integer numerators over one positive denominator in the monomial basis
(all products of generator powers below the respective degrees); each
field builds once an integer multiplication table over one denominator,
so products run on ints only.  Sums of products (matrix products,
hermitian values) go through one fused kernel, `dot`, which accumulates
every product over one common denominator and normalizes once; the
monomial boxes behind `embed` are cached per (field, width).  Division
solves the integer multiplication-by-b system fraction-free, by
`_bareiss`, which shares its pivot rule with the Fraction and field
elimination kernel, `eliminate`.

Q-linear independence of the monomial basis is *certified*, once per
field, by `certify_independence`: every minimal polynomial is
irreducible (a quadratic by its discriminant, a cubic by the rational
root test), the quadratic generators' discriminants are independent in
Q*/Q*^2 (Kummer theory; Besicovitch 1940), and the odd-degree generators
have pairwise coprime degrees.  Any other field is refused with a typed
error; no numeric screen stands in for the certificate.

Arithmetic is the operators +, -, *, / and the method ``conjugate()`` of
`FieldElement`; `embed` and `exact_sign` read an element through the
declared root boxes.

Conventions:

* every field contains the generator ``i`` (min poly x^2+1, root +i);
  this keeps real/imaginary parts of elements inside the field,
* ``conj="real"`` means complex conjugation fixes the generator (real
  root), ``conj="imaginary-negation"`` means it negates it (purely
  imaginary root of an even polynomial),
* zero tests are exact coefficient comparisons; sign tests refine
  interval enclosures and never guess.

A declared root box is checked once per generator spec object, with a
Sturm count over the rationals (exactly one root inside, a sign change
at the endpoints), and is then narrowed by bisection, which halves it
at every step and runs on integer numerators over D 2^k.  The
multiplication table is built on integers too, from integer-scaled
power rows.  No floating-point value ever enters a coefficient.
Intervals have rational endpoints, so interval arithmetic here is exact
and trivially outward-rounded.  Only the standard library is imported.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import (
    DivisionByZero,
    IncompatibleGenerators,
    NotInvertible,
    NotRational,
    NotReal,
    PrecisionExhausted,
    UncertifiedBasis,
    ValidationError,
)
from .record import Record

Rational = Fraction

CONJ_REAL = "real"
CONJ_IMAG = "imaginary-negation"

_F0 = Fraction(0)
_F1 = Fraction(1)


# ---------------------------------------------------------------------------
# generator specs
# ---------------------------------------------------------------------------

class GeneratorSpec(Record):
    """One simple extension: a named root of a monic rational polynomial.

    ``min_poly`` is constant-first, so x^3 - 2 is (-2, 0, 0, 1).  The root
    box must isolate exactly one root on the declared axis: a real
    interval for ``conj="real"``, a purely imaginary one (given by its
    imaginary part) for ``conj="imaginary-negation"``.
    """

    name: str
    min_poly: tuple[Fraction, ...]
    root_re: tuple[Fraction, Fraction]
    root_im: tuple[Fraction, Fraction]
    conj: str

    def __init__(self, name, min_poly, root_re, root_im, conj):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "min_poly", min_poly)
        object.__setattr__(self, "root_re", root_re)
        object.__setattr__(self, "root_im", root_im)
        object.__setattr__(self, "conj", conj)

    @property
    def degree(self) -> int:
        return len(self.min_poly) - 1

    def axis_interval(self) -> tuple[Fraction, Fraction]:
        """The real parameter interval that pins the root."""
        return self.root_re if self.conj == CONJ_REAL else self.root_im

    def axis_poly(self) -> tuple[Fraction, ...]:
        """Polynomial whose real root is the axis parameter.

        For a real generator this is the min poly itself; for a purely
        imaginary generator g = i*y it is q(y) = p(i*y), which has
        rational coefficients because p is even.
        """
        if self.conj == CONJ_REAL:
            return self.min_poly
        return tuple(c * (-1) ** (k // 2) if k % 2 == 0 else _F0
                     for k, c in enumerate(self.min_poly))

    def validate(self) -> None:
        """Raise ValidationError unless the spec is well formed; checked once per object.

        A spec that passes is marked in its ``__dict__``, the way
        `Torus.memo` keeps its values: the mark is no field, so equality,
        hashing and repr ignore it, and an equal but distinct spec is
        checked again.  A spec that fails keeps nothing and raises on
        every use.
        """
        if "_valid" not in self.__dict__:
            self._check()
            object.__setattr__(self, "_valid", True)

    def _check(self) -> None:
        p = self.min_poly
        if len(p) < 3:
            raise ValidationError(f"generator {self.name}: min_poly degree must be >= 2")
        if p[-1] != 1:
            raise ValidationError(f"generator {self.name}: min_poly must be monic")
        if not self.name.isidentifier():
            raise ValidationError(f"generator name {self.name!r} is not an identifier")
        if self.conj not in (CONJ_REAL, CONJ_IMAG):
            raise ValidationError(f"generator {self.name}: unknown conj kind {self.conj!r}")
        re_lo, re_hi = self.root_re
        im_lo, im_hi = self.root_im
        if re_lo > re_hi or im_lo > im_hi:
            raise ValidationError(f"generator {self.name}: empty root box")
        if self.conj == CONJ_REAL:
            if (im_lo, im_hi) != (_F0, _F0):
                raise ValidationError(
                    f"generator {self.name}: real generator needs a real root box")
        else:
            if (re_lo, re_hi) != (_F0, _F0):
                raise ValidationError(
                    f"generator {self.name}: imaginary generator needs a purely imaginary root box")
            if any(c != 0 for c in p[1::2]):
                raise ValidationError(
                    f"generator {self.name}: imaginary-negation requires an even min_poly")
        q = self.axis_poly()
        lo, hi = self.axis_interval()
        if lo == hi:
            if _poly_eval(q, lo) != 0:
                raise ValidationError(
                    f"generator {self.name}: zero-width root box does not hit a root")
            return
        qlo, qhi = _poly_eval(q, lo), _poly_eval(q, hi)
        if qlo == 0 or qhi == 0:
            raise ValidationError(
                f"generator {self.name}: root box endpoint is a rational root; shrink the box")
        if (qlo > 0) == (qhi > 0):
            raise ValidationError(
                f"generator {self.name}: min_poly does not change sign over the root box")
        if _count_real_roots(q, lo, hi) != 1:
            raise ValidationError(
                f"generator {self.name}: root box does not isolate a single root")


I_SPEC = GeneratorSpec(
    name="i",
    min_poly=(_F1, _F0, _F1),
    root_re=(_F0, _F0),
    root_im=(_F1, _F1),
    conj=CONJ_IMAG,
)


# ---------------------------------------------------------------------------
# polynomial and interval helpers (real, exact rational endpoints)
# ---------------------------------------------------------------------------

def _poly_eval(coeffs, x: Fraction) -> Fraction:
    acc = _F0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_deriv(coeffs) -> tuple[Fraction, ...]:
    return tuple(coeffs[k] * k for k in range(1, len(coeffs)))


def _imul(a, b):
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(p), max(p))


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _poly_rem(a, b) -> list[Fraction]:
    """Remainder of a by b (b with a nonzero leading coefficient), trimmed."""
    r = list(a)
    db = len(b) - 1
    while len(r) > db:
        f = r[-1] / b[-1]
        shift = len(r) - 1 - db
        for k in range(db):
            r[shift + k] -= f * b[k]
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r


def _count_real_roots(coeffs, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi], by Sturm's theorem.

    ``coeffs`` is constant-first with a nonzero leading coefficient and
    positive degree; repeated factors are allowed, since the Sturm chain
    then ends in their gcd and still counts each root once.
    """
    chain = _sturm_chain(coeffs)
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


def _sturm_chain(coeffs) -> list:
    chain = [coeffs, _poly_deriv(coeffs)]
    while len(chain[-1]) > 1:
        r = _poly_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def _sign_changes(chain, x) -> int:
    signs = [s for s in (_sign(_poly_eval(p, x)) for p in chain) if s]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def monic_integer(coeffs) -> tuple[int, ...]:
    """q(y) = D^n p(y / D), monic with integer coefficients, for a monic rational p.

    D is the lcm of the coefficient denominators, so every D^(n-k) c_k
    is an integer; the roots of p are the roots of q divided by D, so p
    has a rational root exactly when q has an integer one.
    """
    n = len(coeffs) - 1
    den = math.lcm(*(Fraction(c).denominator for c in coeffs))
    return tuple(int(Fraction(c) * den ** (n - k)) for k, c in enumerate(coeffs))


def integer_roots(q) -> list[int]:
    """The distinct integer roots of a monic integer polynomial, ascending.

    A rational root of a monic integer polynomial is an integer, so no
    half-integer is a root: Sturm counts at half-integers bisect the
    Cauchy range (-B, B), and an interval (k - 1/2, k + 1/2) that holds a
    root holds the candidate k.  The constant term is never factored, so
    the cost grows with the coefficients' bit length only.
    """
    chain = _sturm_chain([Fraction(c) for c in q])
    bound = 1 + max(abs(c) for c in q[:-1])

    def changes(j):  # sign changes at j + 1/2
        return _sign_changes(chain, Fraction(2 * j + 1, 2))

    roots = []
    stack = [(-bound - 1, bound, changes(-bound - 1), changes(bound))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 1:
            if _poly_eval(q, hi) == 0:
                roots.append(hi)
            continue
        mid = (lo + hi) // 2
        v_mid = changes(mid)
        stack += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
    return sorted(roots)


def _refine_real_root(coeffs, lo: Fraction, hi: Fraction, target: Fraction):
    """Shrink an isolating interval to width at most ``target`` by bisection.

    The interval must contain exactly one root with a sign change at the
    endpoints (enforced by GeneratorSpec.validate); every step halves it,
    so the loop ends after about log2((hi - lo) / target) steps.

    The bisection runs on integers.  After k steps the endpoints are
    a / S and b / S for S = D 2^k, with D the lcm of the input
    denominators, and the midpoint is (a + b) / (2 S).  With L the lcm of
    the coefficient denominators, the sign of p(m / S) is that of
    L S^n p(m / S) = sum(E_j m^j 2^(k (n - j))) for E_j = L c_j D^(n - j),
    an integer.
    """
    if lo == hi:
        return lo, hi
    den = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    b = hi.numerator * (den // hi.denominator)
    n = len(coeffs) - 1
    l = math.lcm(*(c.denominator for c in coeffs))
    scaled = [int(c * l) * den ** (n - j) for j, c in enumerate(coeffs)]

    def sign_at(m, k):
        acc = scaled[n]
        for j in range(n - 1, -1, -1):
            acc = acc * m + (scaled[j] << (k * (n - j)))
        return (acc > 0) - (acc < 0)

    t_num, t_den = target.numerator, target.denominator
    sign_lo = sign_at(a, 0)
    k = 0
    while (b - a) * t_den > t_num * (den << k):
        mid = a + b
        a, b, k = a << 1, b << 1, k + 1
        s = sign_at(mid, k)
        if s == 0:
            return Fraction(mid, den << k), Fraction(mid, den << k)
        if s == sign_lo:
            a = mid
        else:
            b = mid
    return Fraction(a, den << k), Fraction(b, den << k)


# Refined axis interval per (generator, target width), and embed's
# monomial boxes per (field, width), filled one monomial at a time.  Each
# entry is built from the declared root boxes, so it depends only on its
# key and never on which widths were asked for earlier.  Like
# _FIELD_DATA_CACHE each holds at most CACHE_SIZE entries and drops the
# oldest one first.
CACHE_SIZE = 256
_BOX_CACHE: dict[tuple[GeneratorSpec, Fraction], tuple[Fraction, Fraction]] = {}
_MONOMIAL_BOX_CACHE: dict[tuple["NumberField", Fraction], list] = {}


def _cache_put(cache: dict, key, value) -> None:
    cache[key] = value
    if len(cache) > CACHE_SIZE:
        del cache[next(iter(cache))]


def _gen_axis_interval(spec: GeneratorSpec, width: Fraction) -> tuple[Fraction, Fraction]:
    key = (spec, width)
    cur = _BOX_CACHE.get(key)
    if cur is None:
        lo, hi = spec.axis_interval()
        cur = _refine_real_root(spec.axis_poly(), lo, hi, width)
        _cache_put(_BOX_CACHE, key, cur)
    return cur


# ---------------------------------------------------------------------------
# complex boxes
# ---------------------------------------------------------------------------

class ComplexBox(Record):
    """Axis-aligned rectangle with rational endpoints; a sound enclosure."""

    re_lo: Fraction
    re_hi: Fraction
    im_lo: Fraction
    im_hi: Fraction

    def __init__(self, re_lo, re_hi, im_lo, im_hi):
        if re_lo > re_hi or im_lo > im_hi:
            raise ValidationError("empty complex box")
        object.__setattr__(self, "re_lo", re_lo)
        object.__setattr__(self, "re_hi", re_hi)
        object.__setattr__(self, "im_lo", im_lo)
        object.__setattr__(self, "im_hi", im_hi)

    @staticmethod
    def exact(re: Fraction, im: Fraction = _F0) -> "ComplexBox":
        re, im = Fraction(re), Fraction(im)
        return ComplexBox(re, re, im, im)

    @property
    def re(self) -> tuple[Fraction, Fraction]:
        return (self.re_lo, self.re_hi)

    @property
    def im(self) -> tuple[Fraction, Fraction]:
        return (self.im_lo, self.im_hi)

    def width(self) -> Fraction:
        return max(self.re_hi - self.re_lo, self.im_hi - self.im_lo)

    def add(self, other: "ComplexBox") -> "ComplexBox":
        return ComplexBox(self.re_lo + other.re_lo, self.re_hi + other.re_hi,
                          self.im_lo + other.im_lo, self.im_hi + other.im_hi)

    def mul(self, other: "ComplexBox") -> "ComplexBox":
        ac = _imul(self.re, other.re)
        bd = _imul(self.im, other.im)
        ad = _imul(self.re, other.im)
        bc = _imul(self.im, other.re)
        return ComplexBox(ac[0] - bd[1], ac[1] - bd[0], ad[0] + bc[0], ad[1] + bc[1])

    def scale(self, q: Fraction) -> "ComplexBox":
        if q >= 0:
            return ComplexBox(self.re_lo * q, self.re_hi * q,
                              self.im_lo * q, self.im_hi * q)
        return ComplexBox(self.re_hi * q, self.re_lo * q,
                          self.im_hi * q, self.im_lo * q)

    def contains_zero(self) -> bool:
        return self.re_lo <= 0 <= self.re_hi and self.im_lo <= 0 <= self.im_hi

    def contains_box(self, other: "ComplexBox") -> bool:
        return (self.re_lo <= other.re_lo and other.re_hi <= self.re_hi and
                self.im_lo <= other.im_lo and other.im_hi <= self.im_hi)

    def overlaps(self, other: "ComplexBox") -> bool:
        return (self.re_lo <= other.re_hi and other.re_lo <= self.re_hi and
                self.im_lo <= other.im_hi and other.im_lo <= self.im_hi)

    def midpoint(self) -> complex:
        return complex((self.re_lo + self.re_hi) / 2, (self.im_lo + self.im_hi) / 2)


def _gen_box(spec: GeneratorSpec, width: Fraction) -> ComplexBox:
    lo, hi = _gen_axis_interval(spec, width)
    if spec.conj == CONJ_REAL:
        return ComplexBox(lo, hi, _F0, _F0)
    return ComplexBox(_F0, _F0, lo, hi)


def _box_pow(box: ComplexBox, e: int) -> ComplexBox:
    acc = ComplexBox.exact(_F1)
    for _ in range(e):
        acc = acc.mul(box)
    return acc


# ---------------------------------------------------------------------------
# number fields
# ---------------------------------------------------------------------------

class NumberField(Record):
    """Tensor product of the declared simple extensions (plus ``i``).

    The monomial basis is every product of generator powers below the
    respective degrees, ordered lexicographically by exponent vector
    with generators sorted by name.
    """

    generators: tuple[GeneratorSpec, ...]

    def __init__(self, generators):
        by_name: dict[str, GeneratorSpec] = {}
        for g in generators:
            if g.name in by_name and by_name[g.name] != g:
                raise IncompatibleGenerators(
                    f"generator {g.name!r} declared twice with different data")
            by_name[g.name] = g
        if "i" in by_name:
            if by_name["i"] != I_SPEC:
                raise ValidationError(
                    "the name 'i' is reserved for the square root of -1")
        else:
            by_name["i"] = I_SPEC
        gens = tuple(sorted(by_name.values(), key=lambda g: g.name))
        for g in gens:
            g.validate()
        object.__setattr__(self, "generators", gens)

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self.generators)
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, NumberField):
            return NotImplemented
        return self.generators == other.generators

    @property
    def degree(self) -> int:
        return _field_data(self).size

    def gen_names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    def monomial_exponents(self) -> tuple[tuple[int, ...], ...]:
        return _field_data(self).exps

    def zero(self) -> "FieldElement":
        return FieldElement(self, [0] * self.degree, 1)

    def one(self) -> "FieldElement":
        return self.rational(1)

    def rational(self, q) -> "FieldElement":
        q = Fraction(q)
        return FieldElement(self, [q.numerator] + [0] * (self.degree - 1), q.denominator)

    def gen(self, name: str) -> "FieldElement":
        data = _field_data(self)
        for j, g in enumerate(self.generators):
            if g.name == name:
                exp = tuple(1 if k == j else 0 for k in range(len(self.generators)))
                num = [0] * data.size
                num[data.index[exp]] = 1
                return FieldElement(self, num, 1)
        raise KeyError(f"no generator named {name!r}")

    def i(self) -> "FieldElement":
        return self.gen("i")

    def element(self, coeff_map: dict[tuple[int, ...], Fraction]) -> "FieldElement":
        data = _field_data(self)
        coeffs = [_F0] * data.size
        for exp, c in coeff_map.items():
            coeffs[data.index[exp]] = c
        return FieldElement(self, coeffs)

    def extended(self, extra: tuple[GeneratorSpec, ...]) -> "NumberField":
        return NumberField(self.generators + tuple(extra))


class _FieldData:
    """Basis data; basis_a * basis_b = sum(n * basis_k for k, n in table[a][b]) / table_den."""

    __slots__ = ("gens", "degs", "exps", "index", "size", "conj_sign", "table", "table_den",
                 "i_row", "refusal")

    def __init__(self, field: NumberField):
        self.refusal = None  # set by certify_independence: () or (generator, reason)
        self.gens = field.generators
        self.degs = tuple(g.degree for g in self.gens)
        self.exps = tuple(itertools.product(*[range(d) for d in self.degs]))
        self.index = {e: k for k, e in enumerate(self.exps)}
        self.size = len(self.exps)
        self.conj_sign = tuple(
            -1 if sum(e[j] for j, g in enumerate(self.gens) if g.conj == CONJ_IMAG) % 2
            else 1
            for e in self.exps)
        rows, dens = zip(*(_power_rows(g.min_poly) for g in self.gens))
        table = [[None] * self.size for _ in range(self.size)]
        for a, ea in enumerate(self.exps):
            for b, eb in enumerate(self.exps):
                terms = [((), 1)]
                for j in range(len(self.gens)):
                    row = rows[j][ea[j] + eb[j]]
                    terms = [(prefix + (p,), c * rc)
                             for prefix, c in terms for p, rc in enumerate(row) if rc]
                table[a][b] = tuple((self.index[exp], c) for exp, c in terms)
        # every product is over prod(dens); the lcm of the reduced
        # denominators is prod(dens) / g, for g the gcd of it and every entry
        den = math.prod(dens)
        g = math.gcd(den, *(c for r in table for t in r for _, c in t))
        self.table_den = den // g
        self.table = [[tuple((k, c // g) for k, c in t) for t in r] for r in table]
        self.i_row = self.table[self.index[tuple(int(g.name == "i") for g in self.gens)]]


def _power_rows(min_poly: tuple[Fraction, ...]) -> tuple[list[list[int]], int]:
    """x^e mod min_poly for e < 2d - 1 as integer rows over one denominator.

    Returns (rows, den) with x^e = sum(rows[e][j] x^j) / den.  With L the
    lcm of the coefficient denominators, each reduction step multiplies by
    one coefficient, and x^e takes e - d + 1 <= d - 1 of them, so
    den = L^(d - 1) clears every row and each step divides by L exactly.
    """
    d = len(min_poly) - 1
    l = math.lcm(*(c.denominator for c in min_poly))
    neg_tail = [-int(c * l) for c in min_poly[:d]]
    den = l ** (d - 1)
    rows = [[0] * d for _ in range(2 * d - 1)]
    rows[0][0] = den
    for e in range(1, 2 * d - 1):
        prev = rows[e - 1]
        cur = [0] + prev[:d - 1]
        top = prev[d - 1]
        if top:
            for j in range(d):
                cur[j] += top * neg_tail[j] // l
        rows[e] = cur
    return rows, den


_FIELD_DATA_CACHE: dict[NumberField, _FieldData] = {}


def _field_data(field: NumberField) -> _FieldData:
    data = field.__dict__.get("_data")
    if data is None:
        data = _FIELD_DATA_CACHE.get(field)
        if data is None:
            data = _FieldData(field)
            _cache_put(_FIELD_DATA_CACHE, field, data)
        object.__setattr__(field, "_data", data)
    return data


def union_field(f1: NumberField, f2: NumberField) -> NumberField:
    if f1 is f2:
        return f1
    s1, s2 = set(f1.generators), set(f2.generators)
    if s2 <= s1:
        return f1
    if s1 <= s2:
        return f2
    return NumberField(f1.generators + f2.generators)


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------

class FieldElement:
    """sum(num[k] * basis_k) / den with ints num, den > 0 and gcd(den, *num) = 1.

    Built from rational ``coeffs``, or from integer numerators and ``den``.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, coeffs, den: int | None = None):
        if den is None:
            coeffs = [Fraction(c) for c in coeffs]
            if len(coeffs) != field.degree:
                raise ValidationError("coefficient vector length does not match the field")
            den = math.lcm(*(c.denominator for c in coeffs))
            coeffs = [c.numerator * (den // c.denominator) for c in coeffs]
        g = math.gcd(den, *coeffs)
        num = tuple(coeffs) if g == 1 else tuple(x // g for x in coeffs)
        self.field, self.num, self.den = field, num, den // g

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients over the monomial basis."""
        return tuple(Fraction(x, self.den) for x in self.num)

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise NotRational(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def in_field(self, field: NumberField) -> "FieldElement":
        """Coerce into a field whose generators contain this element's."""
        if field == self.field:
            return self
        old = _field_data(self.field)
        new = _field_data(field)
        pos = []
        for g in self.field.generators:
            try:
                pos.append(field.gen_names().index(g.name))
            except ValueError:
                raise IncompatibleGenerators(
                    f"target field lacks generator {g.name!r}") from None
            if field.generators[pos[-1]] != g:
                raise IncompatibleGenerators(
                    f"generator {g.name!r} differs between fields")
        num = [0] * new.size
        n_new = len(field.generators)
        for k, c in enumerate(self.num):
            if not c:
                continue
            exp = [0] * n_new
            for j, e in enumerate(old.exps[k]):
                exp[pos[j]] = e
            num[new.index[tuple(exp)]] = c
        return FieldElement(field, num, self.den)

    def _pair(self, other):
        if isinstance(other, FieldElement):
            if other.field == self.field:
                return self, other
            f = union_field(self.field, other.field)
            return self.in_field(f), other.in_field(f)
        if isinstance(other, (int, Fraction)):
            return self, self.field.rational(other)
        return self, NotImplemented

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        ad, bd = a.den, b.den
        return FieldElement(a.field, [x * bd + y * ad for x, y in zip(a.num, b.num)], ad * bd)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, [-x for x in self.num], self.den)

    def __sub__(self, other):
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        ad, bd = a.den, b.den
        return FieldElement(a.field, [x * bd - y * ad for x, y in zip(a.num, b.num)], ad * bd)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):  # no table product
            p, q = other.numerator, other.denominator
            return FieldElement(self.field, [x * p for x in self.num], self.den * q)
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        data = _field_data(a.field)
        out = [0] * data.size
        _accumulate(out, data.table, a.num, b.num)
        return FieldElement(a.field, out, a.den * b.den * data.table_den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        return _field_div(a, b)

    def __rtruediv__(self, other):
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        return _field_div(b, a)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.field.one() / self ** (-e)
        acc = self.field.one()
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.rational(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        a, b = self._pair(other)
        return a.den == b.den and a.num == b.num

    def __hash__(self):
        # agrees with __eq__, which compares across fields and with int/Fraction
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        # each monomial by its (generator name, exponent) pairs, the same in every field
        gens, exps = self.field.generators, _field_data(self.field).exps
        return hash((tuple((tuple((g.name, x) for g, x in zip(gens, exps[k]) if x), c)
                           for k, c in enumerate(self.num) if c), self.den))

    def __bool__(self):
        return not self.is_zero()

    # -- conjugation and parts ------------------------------------------------

    def conjugate(self) -> "FieldElement":
        signs = _field_data(self.field).conj_sign
        return FieldElement(self.field, [x if s > 0 else -x for x, s in zip(self.num, signs)],
                            self.den)

    def is_real(self) -> bool:
        return self.conjugate() == self

    def real_part(self) -> "FieldElement":
        return (self + self.conjugate()) * Fraction(1, 2)

    def imag_part(self) -> "FieldElement":
        """(x - conj(x)) / (2i) = -i * (odd part of x); a real element of the same field.

        The odd part keeps the monomials that conjugation negates; -i times
        it is read off the ``i`` row of the integer table, with no product.
        """
        data = _field_data(self.field)
        out = [0] * data.size
        for x, s, row in zip(self.num, data.conj_sign, data.i_row):
            if x and s < 0:
                for idx, r in row:
                    out[idx] -= x * r
        return FieldElement(self.field, out, self.den * data.table_den)

    # -- printing ---------------------------------------------------------------

    def __str__(self):
        data = _field_data(self.field)
        names = self.field.gen_names()
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            parts = []
            for j, e in enumerate(data.exps[k]):
                if e == 1:
                    parts.append(names[j])
                elif e > 1:
                    parts.append(f"{names[j]}^{e}")
            mono = "*".join(parts)
            if not mono:
                terms.append((c, frac_str(abs(c))))
            elif abs(c) == 1:
                terms.append((c, mono))
            else:
                terms.append((c, f"{frac_str(abs(c))}*{mono}"))
        if not terms:
            return "0"
        out = []
        for k, (c, text) in enumerate(terms):
            if k == 0:
                out.append(f"-{text}" if c < 0 else text)
            else:
                out.append(f"- {text}" if c < 0 else f"+ {text}")
        return " ".join(out)

    def __repr__(self):
        return f"FieldElement({self})"


def _accumulate(out: list, table, xnum, ynum) -> None:
    """out += x * y over the integer table, for numerator vectors x and y."""
    y_terms = [(ib, cb) for ib, cb in enumerate(ynum) if cb]
    for ia, ca in enumerate(xnum):
        if not ca:
            continue
        row = table[ia]
        for ib, cb in y_terms:
            c = ca * cb
            for idx, r in row[ib]:
                out[idx] += c * r


def dot(xs, ys, conj_y: bool = False) -> FieldElement:
    """sum(x * y), or sum(x * conj(y)), for paired field elements.

    The fused kernel behind matrix products and hermitian values: every
    product accumulates into one integer numerator list over one common
    denominator (the lcm of the pair denominators), and the sum is
    gcd-normalized once.  Operands of different fields meet in their
    union field; a sum with no nonzero product is that field's zero.
    """
    field = xs[0].field
    if any(v.field is not field for v in (*xs, *ys)):
        for v in (*xs, *ys):
            field = union_field(field, v.field)
        xs, ys = [x.in_field(field) for x in xs], [y.in_field(field) for y in ys]
    data = _field_data(field)
    pairs = [(x, y) for x, y in zip(xs, ys) if any(x.num) and any(y.num)]
    den = math.lcm(*(x.den * y.den for x, y in pairs))
    out = [0] * data.size
    signs = data.conj_sign
    for x, y in pairs:
        ynum, f = y.num, den // (x.den * y.den)
        if conj_y or f != 1:
            ynum = [v * f if s > 0 or not conj_y else -v * f for v, s in zip(ynum, signs)]
        _accumulate(out, data.table, x.num, ynum)
    return FieldElement(field, out, den * data.table_den)


def frac_str(q: Fraction) -> str:
    """``n`` or ``n/d``: the printed form of a rational everywhere."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _field_div(a: FieldElement, b: FieldElement) -> FieldElement:
    if b.is_zero():
        raise DivisionByZero("division by the zero element")
    if b.is_rational():  # a * b.den / q, over the positive a.den * q^2
        q = b.num[0]
        return FieldElement(a.field, [x * b.den * q for x in a.num], a.den * q * q)
    data = _field_data(a.field)
    n = data.size
    # integer multiplication-by-b matrix: b * basis_k = cols[k] / (b.den * table_den)
    cols = [[0] * n for _ in range(n)]
    table = data.table
    for ib, cb in enumerate(b.num):
        if not cb:
            continue
        row = table[ib]
        for k in range(n):
            for idx, r in row[k]:
                cols[k][idx] += cb * r
    # solve cols * x = a.num fraction-free; y = det * x is integral by Cramer's rule
    aug = [[cols[k][r] for k in range(n)] + [a.num[r]] for r in range(n)]
    pivots, det = _bareiss(aug)
    if pivots != list(range(n)):
        raise NotInvertible(
            "division matrix is singular; declared independence is violated")
    y = [0] * n
    for k in range(n - 1, -1, -1):
        row = aug[k]
        y[k] = (det * row[n] - sum(row[j] * y[j] for j in range(k + 1, n))) // row[k]
    # a / b = x * b.den * table_den / a.den
    scale = b.den * data.table_den
    if det < 0:
        det, scale = -det, -scale
    return FieldElement(a.field, [v * scale for v in y], det * a.den)


# ---------------------------------------------------------------------------
# exact Gaussian elimination
# ---------------------------------------------------------------------------

def _pivot_walk(rows):
    """Yield (row, column, swapped) for each pivot of a forward elimination.

    The pivot of a column is its first nonzero entry at or below the
    current row, swapped up into that row before the yield, so the result
    is deterministic.  The caller clears the pivot's column before
    resuming, and the next search sees the updated rows.
    """
    m = len(rows)
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        if r == m:
            return
        p = next((k for k in range(r, m) if rows[k][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
        yield r, c, p != r
        r += 1


def eliminate(rows, reduced: bool = True):
    """Gaussian elimination in place; returns (pivot columns, signed pivot product).

    ``rows`` is a list of lists whose entries are all Fractions or all
    FieldElements of one field; a zero entry is falsy.  Pivots are chosen
    by `_pivot_walk`.  With ``reduced`` the rows end in reduced row
    echelon form (pivots 1, zeros above and below).  Without it only the
    forward pass runs: no pivot is normalized and nothing above a pivot is
    cleared, which is all a determinant needs.

    The second value is the product of the pivots, negated once per row
    swap, or None when there is no pivot.  For a square matrix it is the
    determinant exactly when every column has a pivot; with fewer pivots
    the matrix is singular.
    """
    m = len(rows)
    pivots = []
    det = None
    negate = False
    for r, c, swapped in _pivot_walk(rows):
        negate ^= swapped
        prow = rows[r]
        piv = prow[c]
        det = piv if det is None else det * piv
        if reduced:
            inv = 1 / piv
            prow[c:] = [v * inv if v else v for v in prow[c:]]
            targets = [k for k in range(m) if k != r and rows[k][c]]
        else:
            targets = [k for k in range(r + 1, m) if rows[k][c]]
            if targets:
                inv = 1 / piv
        if targets:
            zero = piv - piv
            tail = prow[c + 1:]
            for k in targets:
                row = rows[k]
                f = row[c] if reduced else row[c] * inv
                row[c] = zero
                row[c + 1:] = [v - f * w if w else v
                               for v, w in zip(row[c + 1:], tail)]
        pivots.append(c)
    if negate:
        det = -det
    return pivots, det


def _bareiss(rows):
    """Fraction-free forward elimination of integer rows in place (Bareiss).

    Returns (pivot columns, signed last pivot).  Pivots are chosen by
    `_pivot_walk`, as in `eliminate`.  Each step sets
    x <- (p * x - f * y) // prev for the pivot p, the row's entry f, the
    pivot row's entry y and the previous pivot, a division that is always
    exact: every entry stays an integer minor of the input.  The rows end
    in a fraction-free echelon form; nothing above a pivot is cleared.

    The second value is the last pivot, negated once per row swap, or
    None when there is no pivot.  For a square matrix it is the
    determinant exactly when every column has a pivot.
    """
    m = len(rows)
    pivots = []
    det = None
    prev = 1
    negate = False
    for r, c, swapped in _pivot_walk(rows):
        negate ^= swapped
        prow = rows[r]
        piv = prow[c]
        tail = prow[c + 1:]
        for k in range(r + 1, m):
            row = rows[k]
            f = row[c]
            row[c] = 0
            row[c + 1:] = [(piv * v - f * w) // prev for v, w in zip(row[c + 1:], tail)]
        det = prev = piv
        pivots.append(c)
    if negate:
        det = -det
    return pivots, det


# ---------------------------------------------------------------------------
# embedding and sign
# ---------------------------------------------------------------------------

def embed(a: FieldElement, precision_bits: int) -> ComplexBox:
    """A sound complex enclosure of ``a`` under the declared root choices.

    Generator boxes are refined from their declared root boxes to width
    2^-(precision_bits+8) before the monomials are accumulated, so the
    output width shrinks as the requested precision grows.  The result
    depends only on (a, precision_bits): each monomial box is built from
    the generator boxes of its own width and cached per (field, width).
    """
    if precision_bits < 8:
        raise ValidationError("precision_bits must be >= 8")
    width = Fraction(1, 1 << (precision_bits + 8))
    field = a.field
    data = _field_data(field)
    boxes = _MONOMIAL_BOX_CACHE.get((field, width))
    if boxes is None:
        boxes = [None] * data.size
        _cache_put(_MONOMIAL_BOX_CACHE, (field, width), boxes)
    total = ComplexBox.exact(_F0)
    for k, c in enumerate(a.num):
        if not c:
            continue
        mono = boxes[k]
        if mono is None:
            mono = ComplexBox.exact(_F1)
            for g, e in zip(field.generators, data.exps[k]):
                if e:
                    mono = mono.mul(_box_pow(_gen_box(g, width), e))
            boxes[k] = mono
        total = total.add(mono.scale(c))
    # den > 0: the same endpoints as a sum of coefficient-scaled boxes
    return total if a.den == 1 else total.scale(Fraction(1, a.den))


#: 20 doublings of precision starting from 64 bits; beyond that we raise
#: instead of guessing.
SIGN_PRECISION_START = 64
SIGN_PRECISION_DOUBLINGS = 20


def exact_sign(a: FieldElement) -> int:
    """Sign of a real element: exact zero test, interval-refined otherwise.

    Soundness of the nonzero branch rests on the declared independence of
    the monomial basis; if the element is a disguised zero the refinement
    loop hits its cap and raises PrecisionExhausted.
    """
    if not a.is_real():
        raise NotReal(f"{a} is not fixed by conjugation")
    if a.is_zero():
        return 0
    if a.is_rational():
        return _sign(a.num[0])
    prec = SIGN_PRECISION_START
    for _ in range(SIGN_PRECISION_DOUBLINGS + 1):
        box = embed(a, prec)
        if box.re_lo > 0:
            return 1
        if box.re_hi < 0:
            return -1
        prec *= 2
    raise PrecisionExhausted(
        f"sign of {a} undecided after {SIGN_PRECISION_DOUBLINGS} precision doublings")


# ---------------------------------------------------------------------------
# square roots of integers as field elements
# ---------------------------------------------------------------------------

def squarefree_decomposition(n: int) -> tuple[int, int, bool]:
    """n = k^2 * n0 with n0 squarefree, for n > 0.

    Trial division up to 10^6, then a perfect-square check on the
    cofactor.  The flag reports whether n0 is certified squarefree;
    larger hidden square factors are left in place.
    """
    k, odd, certified = _square_class(n)
    return k, math.prod(odd), certified


def _square_class(n: int) -> tuple[int, list[int], bool]:
    """n = k^2 * prod(odd) for n > 0, with ``odd`` the primes of odd exponent.

    When the flag is False the last entry of ``odd`` is a cofactor above
    10^12 with no prime factor up to 10^6 that trial division could not
    split, so it may hide a square.
    """
    if n <= 0:
        raise ValueError("need a positive integer")
    k, odd = 1, []
    rest = n
    p = 2
    while p * p <= rest and p <= 10 ** 6:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            k *= p ** (e // 2)
            if e % 2:
                odd.append(p)
        p += 1 if p == 2 else 2
    if rest > 1:
        r = math.isqrt(rest)
        if r * r == rest:
            k *= r
        else:
            odd.append(rest)
            return k, odd, rest <= 10 ** 12
    return k, odd, True


def is_perfect_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def sqrt_generator_spec(n0: int) -> GeneratorSpec:
    """Real generator for the positive square root of squarefree n0 > 1."""
    if n0 <= 1:
        raise ValueError("need a squarefree integer > 1")
    r = math.isqrt(n0)
    return GeneratorSpec(
        name=f"sqrt{n0}",
        min_poly=(Fraction(-n0), _F0, _F1),
        root_re=(Fraction(r), Fraction(r + 1)),
        root_im=(_F0, _F0),
        conj=CONJ_REAL,
    )


def sqrt_element(field: NumberField, n: int) -> tuple[NumberField, FieldElement]:
    """An element with square n, extending the field if needed.

    Negative n uses i * sqrt(|n|), so only real radicand generators are
    ever adjoined and no hidden relation between sqrt(-n) and i*sqrt(n)
    can arise.  For n < 0 the returned root has positive imaginary part.
    """
    if n == 0:
        return field, field.zero()
    k, n0, _ = squarefree_decomposition(abs(n))
    if n0 > 1:
        spec = sqrt_generator_spec(n0)
        if spec.name not in field.gen_names():
            field = field.extended((spec,))
        root = field.gen(spec.name) * k
    else:
        root = field.rational(k)
    if n < 0:
        root = root * field.i()
    return field, root


# ---------------------------------------------------------------------------
# independence certificate
# ---------------------------------------------------------------------------

def certify_independence(field: NumberField) -> None:
    """Prove the monomial basis of ``field`` Q-linearly independent, or refuse.

    The basis is independent exactly when the field generated by the
    declared roots has the product of the generator degrees as its
    degree.  That is certified in three parts:

    * every minimal polynomial is irreducible: a quadratic's
      discriminant is not a rational square, a cubic has no rational
      root;
    * the quadratic generators (``i`` among them) have discriminants
      independent in Q*/Q*^2, so by Kummer theory (Besicovitch 1940)
      they span a field of degree 2^k; this is a GF(2) rank over the sign
      and the prime-exponent parities;
    * the odd-degree generators have pairwise coprime degrees, hence
      coprime to 2^k too, so the degrees multiply.

    Any other field (a generator of degree 4 or more, a discriminant
    whose factorization is not certified, a failed test) is refused
    with UncertifiedBasis, which names the generator and the reason.
    The verdict is computed once per field and kept with its tables.
    """
    data = _field_data(field)
    if data.refusal is None:
        data.refusal = _independence_refusal(field.generators) or ()
    if data.refusal:
        raise UncertifiedBasis(*data.refusal)


def _independence_refusal(gens) -> tuple[str, str] | None:
    """(generator name, reason) for the first failed test, or None."""
    odd = []
    # GF(2) basis of Q*/Q*^2 by pivot: (coordinates, generators combined into it)
    basis: dict[int, tuple[frozenset, frozenset]] = {}
    for g in gens:
        p = g.min_poly
        if g.degree == 3:
            if integer_roots(monic_integer(p)):
                return g.name, "the cubic min_poly has a rational root"
            odd.append(g)
            continue
        if g.degree != 2:
            return g.name, f"a generator of degree {g.degree} has no certificate"
        disc = p[1] * p[1] - 4 * p[0]
        if is_perfect_square(disc.numerator) and is_perfect_square(disc.denominator):
            return g.name, f"the discriminant {frac_str(disc)} is a rational square"
        # the square class of n/d is that of n*d: -1 and the primes of odd exponent
        n = disc.numerator * disc.denominator
        _, primes, certified = _square_class(abs(n))
        if not certified:
            return g.name, "the factorization of the discriminant is not certified"
        vec = frozenset(primes) | ({-1} if n < 0 else frozenset())
        names = frozenset()
        while vec and max(vec) in basis:
            other, other_names = basis[max(vec)]
            vec, names = vec ^ other, names ^ other_names
        if not vec:
            return g.name, ("its discriminant is a square times the product of those "
                            f"of {', '.join(sorted(names))}")
        basis[max(vec)] = (vec, names | {g.name})
    for a, b in itertools.combinations(odd, 2):
        if math.gcd(a.degree, b.degree) != 1:
            return b.name, f"its degree is not coprime to that of {a.name}"
    return None
