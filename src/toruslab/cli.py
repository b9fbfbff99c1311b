"""Command-line front end.

Input is a JSON torus document: declared generators, a 2x4 period matrix
of polynomial expressions in the generator names, and optional
multiplications.  All numbers are exact rationals; float literals are
rejected.  Machine output (--json) is key-sorted and byte-stable across
runs; exact values are emitted as "p/q" strings or expression strings,
floats appear only under the "approx" key.

Exit codes: 0 success / all claims verified, 1 refuted claims, 2 input
errors, 3 internal errors (precision exhaustion, broken invariants).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .errors import (
    ParseError,
    PrecisionExhausted,
    NotClosed,
    NotStable,
    TorusLabError,
    UnrecognizedStructure,
    ValidationError,
)
from .exactfield import (
    CONJ_IMAG,
    CONJ_REAL,
    FieldElement,
    GeneratorSpec,
    NumberField,
    certify_independence,
    embed,
    frac_str,
    sqrt_element,
)
from .linalg import Mat
from .record import Record
from .torus import PeriodMatrix, attach_multiplication, build_torus

# endo, neronseveri and papercheck are imported by the commands that run
# them: a fresh interpreter then compiles only the layers its command uses

_INTERNAL_ERRORS = (PrecisionExhausted, NotClosed, NotStable, UnrecognizedStructure)

#: the longest integer literal an expression may hold, in decimal digits
MAX_LITERAL_DIGITS = 1000
#: the deepest nesting of parentheses an expression may hold: the parser
#: recurses a few frames per level, so a bound on the input, not the
#: interpreter's recursion limit, decides where parsing stops
MAX_PAREN_DEPTH = 100
#: the largest numerator or denominator, in bits, of every value computed
#: while parsing: each sum, difference, product and quotient, and each
#: square on the way to a power
MAX_VALUE_BITS = 4096
#: the largest sum, over the eight period entries, of each entry's size
#: in bits (its largest numerator or its denominator).  Reported values
#: (NS forms, lattice actions) are quotients of products of entries: `ns`
#: prints integers of up to five times this sum when it sits in one entry
#: such as 1/(P + Q*i), and 5 * 1024 bits are 1542 digits, a third of
#: Python's 4300-digit int-to-str limit.  `endo` and `classify` finish on
#: such entries in under a second and print at most twice the sum, so the
#: printed size, not the running time, is what the bound protects
MAX_PERIOD_BITS = 1024


# ---------------------------------------------------------------------------
# expression parser
# ---------------------------------------------------------------------------

class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.toks = []
        self._tokenize()
        self.idx = 0

    def _tokenize(self):
        t, n = self.text, len(self.text)
        i = depth = 0
        while i < n:
            c = t[i]
            if c.isspace():
                i += 1
                continue
            if c.isdigit():
                j = i
                while j < n and t[j].isdigit():
                    j += 1
                if j < n and t[j] == ".":
                    raise ValidationError(
                        f"float literal at position {i} in {t!r}; use exact rationals")
                if j - i > MAX_LITERAL_DIGITS:
                    raise ParseError(f"integer literal of {j - i} digits at position {i}; "
                                     f"at most {MAX_LITERAL_DIGITS} are allowed")
                self.toks.append(("int", t[i:j]))
                i = j
                continue
            if c.isalpha() or c == "_":
                j = i
                while j < n and (t[j].isalnum() or t[j] == "_"):
                    j += 1
                self.toks.append(("name", t[i:j]))
                i = j
                continue
            if c == "*":
                if i + 1 < n and t[i + 1] == "*":
                    self.toks.append(("op", "^"))
                    i += 2
                else:
                    self.toks.append(("op", "*"))
                    i += 1
                continue
            if c in "+-/^()":
                depth += (c == "(") - (c == ")")
                if depth > MAX_PAREN_DEPTH:
                    raise ParseError(f"parentheses nested deeper than {MAX_PAREN_DEPTH} "
                                     f"at position {i}")
                self.toks.append(("op", c))
                i += 1
                continue
            if c == ".":
                raise ValidationError(
                    f"float literal at position {i} in {t!r}; use exact rationals")
            raise ParseError(f"unexpected character {c!r} at position {i} in {t!r}")

    def peek(self):
        return self.toks[self.idx] if self.idx < len(self.toks) else (None, None)

    def take(self):
        tok = self.peek()
        self.idx += 1
        return tok


def parse_expression(text: str, field: NumberField) -> FieldElement:
    """Exact evaluation of +, -, *, /, integer powers over the field."""
    toks = _Tokens(text)
    value = _parse_sum(toks, field)
    if toks.peek() != (None, None):
        raise ParseError(f"trailing input in expression {text!r}")
    return value


def _parse_sum(toks, field):
    acc = _parse_term(toks, field)
    while toks.peek() == ("op", "+") or toks.peek() == ("op", "-"):
        _, op = toks.take()
        rhs = _parse_term(toks, field)
        acc = _bounded(acc + rhs if op == "+" else acc - rhs)
    return acc


def _parse_term(toks, field):
    acc = _parse_factor(toks, field)
    while toks.peek() == ("op", "*") or toks.peek() == ("op", "/"):
        _, op = toks.take()
        rhs = _parse_factor(toks, field)
        acc = _bounded(acc * rhs if op == "*" else acc / rhs)
    return acc


def _parse_factor(toks, field):
    sign = 1
    while toks.peek() in (("op", "+"), ("op", "-")):
        _, op = toks.take()
        if op == "-":
            sign = -sign
    base = _parse_atom(toks, field)
    if toks.peek() == ("op", "^"):
        toks.take()
        neg = False
        if toks.peek() == ("op", "-"):
            toks.take()
            neg = True
        kind, text = toks.take()
        if kind != "int":
            raise ParseError("exponent must be an integer literal")
        e = int(text)
        base = _bounded_power(base, -e if neg else e)
    return base if sign > 0 else -base


def _bits(x) -> int:
    """The size of a field element: the bit length of its largest numerator or its denominator."""
    return max(max(map(abs, x.num)), x.den).bit_length()


def _bounded(x):
    """x, or a ParseError when a numerator or the denominator passes MAX_VALUE_BITS."""
    if _bits(x) > MAX_VALUE_BITS:
        raise ParseError(f"a value in the expression exceeds {MAX_VALUE_BITS} bits")
    return x


def _bounded_power(base, e):
    """base ** e by repeated squaring, refused as soon as a value grows too large."""
    acc, square, k = base.field.one(), base, abs(e)
    while True:
        if k & 1:
            acc = _bounded(acc * square)
        k >>= 1
        if not k:
            break
        square = _bounded(square * square)
    return acc if e >= 0 else _bounded(base.field.one() / acc)


def _parse_atom(toks, field):
    kind, text = toks.take()
    if kind == "int":
        return field.rational(int(text))
    if kind == "name":
        try:
            return field.gen(text)
        except KeyError:
            raise ParseError(f"unknown generator {text!r}") from None
    if (kind, text) == ("op", "("):
        inner = _parse_sum(toks, field)
        if toks.take() != ("op", ")"):
            raise ParseError("unbalanced parentheses")
        return inner
    raise ParseError(f"unexpected token {text!r}")


# ---------------------------------------------------------------------------
# torus documents
# ---------------------------------------------------------------------------

class TorusDocument(Record):
    generators: tuple[GeneratorSpec, ...]
    period_exprs: tuple[tuple[str, ...], ...]
    multiplications: tuple[tuple[tuple[tuple[str, str], tuple[str, str]], int], ...]

    def __init__(self, generators, period_exprs, multiplications):
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "period_exprs", period_exprs)
        object.__setattr__(self, "multiplications", multiplications)

    def parsed(self):
        """(field, period rows, multiplication rows) of field elements, once per object.

        A basis not certified independent is refused first: every result
        over a field with a dependent monomial basis could be wrong
        (UncertifiedBasis, exit code 2).  Then every expression is parsed,
        the period's before the total bound on its size is checked.
        `parse_input` surfaces these errors at parse time, and `realize`
        reuses what it kept.  Like `Torus.memo`, the value is kept in the
        instance ``__dict__``, which equality, hashing and repr ignore, and a
        failure keeps nothing.
        """
        kept = self.__dict__.get("_parsed")
        if kept is None:
            field = NumberField(self.generators)
            certify_independence(field)
            period = tuple(tuple(parse_expression(e, field) for e in row)
                           for row in self.period_exprs)
            period_bits = sum(_bits(x) for row in period for x in row)
            if period_bits > MAX_PERIOD_BITS:
                raise ParseError(f"the period entries total {period_bits} bits; "
                                 f"at most {MAX_PERIOD_BITS} are allowed")
            mults = tuple((tuple(tuple(parse_expression(e, field) for e in row)
                                 for row in d_exprs), d)
                          for d_exprs, d in self.multiplications)
            kept = (field, period, mults)
            object.__setattr__(self, "_parsed", kept)
        return kept

    def realize(self):
        """Build the torus and attach every declared multiplication."""
        _, period, mults = self.parsed()
        torus = build_torus(PeriodMatrix(Mat.from_rows(period)))
        return torus, [attach_multiplication(torus, Mat.from_rows(rows), d)
                       for rows, d in mults]

    def to_json_dict(self) -> dict:
        return {
            "generators": [_gen_to_json(g) for g in self.generators],
            "period": [list(row) for row in self.period_exprs],
            "multiplications": [
                {"D": [list(r) for r in d_exprs], "d": d}
                for d_exprs, d in self.multiplications
            ],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def _gen_to_json(g: GeneratorSpec) -> dict:
    return {
        "name": g.name,
        "min_poly": [frac_str(c) for c in g.min_poly],
        "root": {"re": [frac_str(v) for v in g.root_re],
                 "im": [frac_str(v) for v in g.root_im]},
        "conj": g.conj,
    }


def _frac_from_json(v, where: str) -> Fraction:
    if isinstance(v, bool):
        raise ValidationError(f"{where}: expected a rational, got a boolean")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        raise ValidationError(f"{where}: float literal {v!r}; use exact rationals")
    if isinstance(v, str):
        try:
            if "/" in v:
                num, den = v.split("/", 1)
                return Fraction(int(num.strip()), int(den.strip()))
            return Fraction(int(v.strip()))
        except (ValueError, ZeroDivisionError) as e:
            raise ValidationError(f"{where}: bad rational {v!r} ({e})") from None
    raise ValidationError(f"{where}: expected a rational, got {type(v).__name__}")


def parse_input(text: str) -> TorusDocument:
    """Validate a JSON torus document; exact numbers only."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except ValueError as e:  # an integer past the interpreter's digit limit
        raise ParseError(str(e)) from None
    if not isinstance(doc, dict):
        raise ValidationError("top level must be an object")
    gens = []
    for k, g in enumerate(_array(doc.get("generators", []), "generators")):
        where = f"generators[{k}]"
        if not isinstance(g, dict):
            raise ValidationError(f"{where}: expected an object")
        for key in ("name", "min_poly", "root", "conj"):
            if key not in g:
                raise ValidationError(f"{where}: missing key {key!r}")
        kinds = {"real": CONJ_REAL, "imaginary-negation": CONJ_IMAG, "imaginary": CONJ_IMAG}
        conj = kinds.get(g["conj"]) if isinstance(g["conj"], str) else None
        if conj is None:
            raise ValidationError(f"{where}: unknown conj kind {g['conj']!r}")
        min_poly = tuple(_frac_from_json(c, f"{where}.min_poly")
                         for c in _array(g["min_poly"], f"{where}.min_poly"))
        root = g["root"]
        if not isinstance(root, dict) or "re" not in root or "im" not in root:
            raise ValidationError(f"{where}.root: need keys 're' and 'im'")
        re_iv = tuple(_frac_from_json(v, f"{where}.root.re")
                      for v in _array(root["re"], f"{where}.root.re"))
        im_iv = tuple(_frac_from_json(v, f"{where}.root.im")
                      for v in _array(root["im"], f"{where}.root.im"))
        if len(re_iv) != 2 or len(im_iv) != 2:
            raise ValidationError(f"{where}.root: intervals need two endpoints")
        spec = GeneratorSpec(name=str(g["name"]), min_poly=min_poly,
                             root_re=re_iv, root_im=im_iv, conj=conj)
        spec.validate()
        gens.append(spec)
    period = doc.get("period")
    if (not isinstance(period, list) or len(period) != 2
            or any(not isinstance(r, list) or len(r) != 4 for r in period)):
        raise ValidationError("period must be a 2x4 array of expression strings")
    period_exprs = tuple(tuple(_expr_str(e, "period") for e in row) for row in period)
    mults = []
    for k, m in enumerate(_array(doc.get("multiplications", []), "multiplications")):
        where = f"multiplications[{k}]"
        if not isinstance(m, dict) or "D" not in m or "d" not in m:
            raise ValidationError(f"{where}: need keys 'D' and 'd'")
        dm = m["D"]
        if (not isinstance(dm, list) or len(dm) != 2
                or any(not isinstance(r, list) or len(r) != 2 for r in dm)):
            raise ValidationError(f"{where}.D: must be a 2x2 array of expressions")
        d = m["d"]
        if not isinstance(d, int) or isinstance(d, bool):
            raise ValidationError(f"{where}.d: must be an integer")
        d_exprs = tuple(tuple(_expr_str(e, f"{where}.D") for e in row) for row in dm)
        mults.append((d_exprs, d))
    document = TorusDocument(generators=tuple(gens), period_exprs=period_exprs,
                             multiplications=tuple(mults))
    # surface expression errors (bad names, floats, oversized periods) at parse time
    document.parsed()
    return document


def _array(value, where: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{where}: expected an array")
    return value


def _expr_str(e, where: str) -> str:
    if isinstance(e, str):
        return e
    if isinstance(e, int) and not isinstance(e, bool):
        return str(e)
    if isinstance(e, float):
        raise ValidationError(f"{where}: float literal {e!r}; use exact rationals")
    raise ValidationError(f"{where}: expected an expression string")


def document_from_torus(torus, mults) -> TorusDocument:
    """Serialize a built torus back into a document (exact round trip)."""
    gens = tuple(g for g in torus.field.generators if g.name != "i")
    period = tuple(tuple(str(torus.period.entries[r, c]) for c in range(4))
                   for r in range(2))
    mult_entries = []
    for m in mults:
        d_exprs = tuple(tuple(str(m.D_analytic[r, c]) for c in range(2))
                        for r in range(2))
        mult_entries.append((d_exprs, m.d))
    gens = gens + tuple(g for m in mults for g in m.field.generators
                        if g.name != "i" and g not in gens)
    seen = {}
    for g in gens:
        seen.setdefault(g.name, g)
    return TorusDocument(generators=tuple(seen.values()),
                         period_exprs=period,
                         multiplications=tuple(mult_entries))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _load(path: str) -> TorusDocument:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from None
    return parse_input(text)


def _mult_index(mults, k: int):
    if not 0 <= k < len(mults):
        raise ValidationError(
            f"--mult {k} out of range; document has {len(mults)} multiplications")
    return mults[k]


def _cmd_endo(doc: TorusDocument, args) -> tuple[dict, int]:
    from .endo import classify_algebra, compute_endo_ring

    torus, _ = doc.realize()
    ring = compute_endo_ring(torus)
    cls = classify_algebra(ring)
    witnesses = {
        "rank": ring.rank,
        "basis_R": [[list(r) for r in b.R] for b in ring.basis],
        "basis_A": [b.A.entries_str() for b in ring.basis],
        "structure": [[list(v) for v in row] for row in ring.structure],
        "classification": {"tag": cls.tag,
                           "discriminant_data": list(cls.discriminant_data)},
    }
    return {"claims": [], "witnesses": witnesses}, 0


def _cmd_classify(doc: TorusDocument, args) -> tuple[dict, int]:
    from .endo import classify_algebra, compute_endo_ring

    torus, _ = doc.realize()
    cls = classify_algebra(compute_endo_ring(torus))
    return {"claims": [], "witnesses": {
        "classification": {"tag": cls.tag,
                           "discriminant_data": list(cls.discriminant_data)}}}, 0


def _cmd_ns(doc: TorusDocument, args) -> tuple[dict, int]:
    from .neronseveri import compute_ns

    torus, _ = doc.realize()
    ns = compute_ns(torus)
    witnesses = {
        "rank": ns.rank,
        "basis_E": [[list(r) for r in alt.E] for alt, _ in ns.basis],
        "basis_M": [herm.M.entries_str() for _, herm in ns.basis],
    }
    return {"claims": [], "witnesses": witnesses}, 0


def _cmd_nd(doc: TorusDocument, args) -> tuple[dict, int]:
    from .neronseveri import compute_N_D, compute_ns

    torus, mults = doc.realize()
    mult = _mult_index(mults, args.mult)
    nd = compute_N_D(compute_ns(torus), mult)
    witnesses = {
        "d": mult.d,
        "rank": nd.rank,
        "coords_in_ns": [list(c) for c in nd.parent_coords],
        "basis_E": [[list(r) for r in alt.E] for alt, _ in nd.basis],
        "basis_M": [herm.M.entries_str() for _, herm in nd.basis],
    }
    return {"claims": [], "witnesses": witnesses}, 0


def _cmd_polarize(doc: TorusDocument, args) -> tuple[dict, int]:
    from .neronseveri import compute_ns, is_algebraic

    torus, mults = doc.realize()
    verdict = is_algebraic(torus, mults=mults)
    witnesses = {"ns_rank": compute_ns(torus).rank, "verdict": verdict.status,
                 "certificate": verdict.certificate}
    approx = {}
    if verdict.status == "algebraic":
        eigs = _approx_eigenvalues(verdict.polarization.herm.M, args.precision)
        if eigs is not None:
            approx["polarization_eigenvalues"] = eigs
    return {"claims": [], "witnesses": witnesses, "approx": approx}, 0


def _approx_eigenvalues(m, precision):
    """The eigenvalues of the 2x2 hermitian m as floats; None past the float range.

    The trace and determinant (box midpoints, exact) are scaled by 2^-k
    and 4^-k until their floats cannot overflow, and the eigenvalues by
    2^k back.  Scaling by a power of two is exact in floating point, and
    k = 0 wherever the unscaled values already fit.
    """
    tr = _midpoint_re(embed(m[0, 0] + m[1, 1], precision))
    det = _midpoint_re(embed(m.det(), precision))
    k = max(0, _log2_bound(tr) - 500, (_log2_bound(det) - 999) // 2)
    tr, det = float(tr / (1 << k)), float(det / (1 << 2 * k))
    disc = max(tr * tr - 4 * det, 0.0) ** 0.5
    hi = (tr + disc) / 2
    # tr - disc cancels when disc is close to tr; det / hi does not
    lo = det / hi if disc > tr / 2 else (tr - disc) / 2
    try:
        return [math.ldexp(lo, k), math.ldexp(hi, k)]
    except OverflowError:
        return None


def _midpoint_re(box) -> Fraction:
    return (box.re_lo + box.re_hi) / 2


def _log2_bound(q: Fraction) -> int:
    """An integer e with |q| < 2^e."""
    return q.numerator.bit_length() - q.denominator.bit_length() + 1


def _cmd_verify_prop(doc: TorusDocument, args) -> tuple[dict, int]:
    from . import papercheck

    torus, mults = doc.realize()
    mult = _mult_index(mults, args.mult)
    report = papercheck.verify_proposition(torus, mult, seed=args.seed)
    return report.to_dict(), (1 if report.refuted() else 0)


def _cmd_verify_cor(doc: TorusDocument, args) -> tuple[dict, int]:
    from . import papercheck

    torus, mults = doc.realize()
    report = papercheck.verify_corollaries(torus, mults)
    return report.to_dict(), (1 if report.refuted() else 0)


def _cmd_gen_example(args) -> tuple[dict, int]:
    from . import papercheck

    kind = args.kind
    if kind == "1":
        torus, mult = papercheck.example1(args.m)
        doc = document_from_torus(torus, [mult])
    elif kind == "2":
        torus, mult = papercheck.example2(args.m, args.n)
        doc = document_from_torus(torus, [mult])
    elif kind == "scalar":
        torus = papercheck.scalar_cm_product(args.m)
        _, mu = sqrt_element(torus.field, -args.m)
        mult = attach_multiplication(torus, Mat.diagonal([mu, -mu]), -args.m)
        doc = document_from_torus(torus, [mult])
    elif kind == "random":
        torus, mult = papercheck.random_torus_with_sqrt_d(args.d, args.seed)
        doc = document_from_torus(torus, [mult])
    else:
        raise ValidationError(f"unknown example kind {kind!r}")
    text = doc.to_json_text()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
        return {"claims": [], "witnesses": {"written": args.output}}, 0
    sys.stdout.write(text)
    return None, 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _seed(text: str) -> int:
    # random.Random(-n) is random.Random(n): a negative seed would alias silently
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _int_in(lo: int, hi: int | None = None):
    """An argparse type: a decimal integer in [lo, hi] (no upper bound when hi is None)."""
    expected = f"an integer >= {lo}" if hi is None else f"an integer in [{lo}, {hi}]"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < lo or (hi is not None and value > hi):
            raise argparse.ArgumentTypeError(f"must be {expected}, got {text!r}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    # global flags are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit a machine-readable report")
    common.add_argument("--precision", type=_int_in(8, 4096), default=argparse.SUPPRESS,
                        help="bits for approximate output values, 8 to 4096 (default 128)")
    common.add_argument("--seed", type=_seed, default=argparse.SUPPRESS,
                        help="seed of gen-example random and of the lambda round-trip "
                             "sample of verify-prop; other commands ignore it (default 0)")
    parser = argparse.ArgumentParser(
        prog="toruslab", parents=[common],
        description="exact endomorphism and Neron-Severi computations "
                    "for two-dimensional complex tori")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_file=True, needs_mult=False):
        p = sub.add_parser(name, parents=[common])
        if needs_file:
            p.add_argument("file")
        if needs_mult:
            p.add_argument("--mult", type=int, default=0)
        p.set_defaults(fn=fn)
        return p

    add("endo", _cmd_endo)
    add("classify", _cmd_classify)
    add("ns", _cmd_ns)
    add("nd", _cmd_nd, needs_mult=True)
    add("polarize", _cmd_polarize)
    add("verify-prop", _cmd_verify_prop, needs_mult=True)
    add("verify-cor", _cmd_verify_cor)
    g = sub.add_parser("gen-example", parents=[common])
    g.add_argument("kind", choices=["1", "2", "scalar", "random"])
    g.add_argument("--m", type=_int_in(1), default=1)
    g.add_argument("--n", type=_int_in(1), default=2)
    g.add_argument("--d", type=int, default=2)
    g.add_argument("-o", "--output", default=None)
    g.set_defaults(fn=None)
    return parser


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    args.json = getattr(args, "json", False)
    args.precision = getattr(args, "precision", 128)
    args.seed = getattr(args, "seed", 0)
    try:
        if args.command == "gen-example":
            report, code = _cmd_gen_example(args)
        else:
            doc = _load(args.file)
            report, code = args.fn(doc, args)
    except _INTERNAL_ERRORS as e:
        print(f"internal error [{type(e).__name__}]: {e}", file=sys.stderr)
        return 3
    except AssertionError as e:  # ahead of TorusLabError: InvariantViolation is both
        print(f"internal invariant failed: {e}", file=sys.stderr)
        return 3
    except TorusLabError as e:
        print(f"input error [{type(e).__name__}]: {e}", file=sys.stderr)
        return 2
    if report is None:
        return code
    report = dict(report)
    report["command"] = args.command
    report.setdefault("claims", [])
    report.setdefault("witnesses", {})
    report.setdefault("approx", {})
    if args.json:
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        _print_human(report)
    return code


def _print_human(report: dict) -> None:
    print(f"command: {report['command']}")
    for claim in report["claims"]:
        line = f"  [{claim['status']:>8}] {claim['id']}"
        if claim.get("reason"):
            line += f"  ({claim['reason']})"
        print(line)
    wit = report["witnesses"]
    for key in sorted(wit):
        val = wit[key]
        if isinstance(val, (int, str)):
            print(f"  {key}: {val}")
        else:
            print(f"  {key}: {json.dumps(val, sort_keys=True)}")


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
