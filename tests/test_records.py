"""The frozen records keep the semantics their callers and caches rely on.

Every record class of the package is built here from real objects
(example lattices, their NS lattices, rings and corollary reports) and
checked for equality and hashing over its fields, keyword and positional
construction, the defaults, and refused assignment and deletion.  The
constructors that validate their input still raise their typed errors,
also under ``python -O``.
"""

from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from toruslab import cli, endo, exactfield, linalg, neronseveri, papercheck, torus
from toruslab.cli import parse_input
from toruslab.endo import (
    classify_algebra,
    compute_endo_ring,
    find_real_multiplication,
    rosati_involution,
    symmetric_subspace,
)
from toruslab.errors import IncompatibleGenerators, NotReal, ValidationError
from toruslab.exactfield import ComplexBox, GeneratorSpec, NumberField, embed
from toruslab.linalg import Mat
from toruslab.neronseveri import (
    AlgebraicityVerdict,
    AltForm,
    HermForm,
    NSLattice,
    compute_N_D,
    compute_ns,
    is_algebraic,
)
from toruslab.papercheck import Claim, example1, random_torus_with_sqrt_d, verify_corollaries
from toruslab.record import Record
from toruslab.torus import PeriodMatrix

from conftest import TORI
from oracle_helpers import canonical_form_coordinates

MODULES = (exactfield, linalg, torus, endo, neronseveri, papercheck, cli)


@pytest.fixture(scope="module")
def world(cm_product):
    t, mult = example1(2)
    ring = compute_endo_ring(t)
    ns = compute_ns(t)
    nd = compute_N_D(ns, mult)
    t2, mult2 = random_torus_with_sqrt_d(2, 1)
    verdict = is_algebraic(t2, [mult2])
    ros = rosati_involution(compute_endo_ring(t2), verdict.polarization.herm.M)
    cm_torus, cm_mult = cm_product
    report = verify_corollaries(cm_torus, [cm_mult])
    return SimpleNamespace(t=t, mult=mult, ring=ring, ns=ns, nd=nd, verdict=verdict,
                           ros=ros, report=report)


#: class name -> (the record, a field, another value for that field)
CASES = {
    "GeneratorSpec": lambda w: (w.t.field.generators[-1], "name", "s"),
    "ComplexBox": lambda w: (embed(w.t.field.gen("r"), 16), "re_hi", F(2)),
    "NumberField": lambda w: (w.t.field, "generators", NumberField(()).generators),
    "Mat": lambda w: (w.t.J, "rows", w.t.big_p.rows),
    "PeriodMatrix": lambda w: (w.t.period, "entries", w.ros.ring.torus.period.entries),
    "Torus": lambda w: (w.t, "J", w.t.big_p_inv),
    "MultiplicationDatum": lambda w: (w.mult, "epsilon", -w.mult.epsilon),
    "Endomorphism": lambda w: (w.ring.basis[1], "R", w.ring.basis[0].R),
    "EndoRing": lambda w: (w.ring, "basis", w.ring.basis[:1]),
    "AlgebraClass": lambda w: (classify_algebra(w.ring), "discriminant_data", (3,)),
    "RosatiData": lambda w: (w.ros, "H0", Mat.identity(w.ros.H0.field, 2)),
    "RealMultiplication": lambda w: (
        find_real_multiplication(w.ros, symmetric_subspace(w.ros)[0]),
        "squarefree_certified", False),
    "AltForm": lambda w: (w.ns.basis[0][0], "E", w.ns.basis[1][0].E),
    "HermForm": lambda w: (w.ns.basis[0][1], "M", w.ns.basis[1][1].M),
    "NSLattice": lambda w: (w.nd, "parent_coords", None),
    "CanonicalFormCoords": lambda w: (canonical_form_coordinates(w.mult, w.nd.basis[0][1]),
                                      "a", w.t.field.one()),
    "Polarization": lambda w: (w.verdict.polarization, "coords", (2,)),
    "AlgebraicityVerdict": lambda w: (w.verdict, "status", "not-algebraic"),
    "Claim": lambda w: (w.report.claims[1], "status", "refuted"),
    "VerificationReport": lambda w: (w.report, "claims", w.report.claims[:1]),
    "TorusDocument": lambda w: (parse_input((TORI / "example1_m1.json").read_text()),
                                "multiplications", ()),
}


def test_every_record_class_is_covered():
    defined = {cls.__name__ for cls in Record.__subclasses__()
               if any(getattr(m, cls.__name__, None) is cls for m in MODULES)}
    assert len(defined) == 21
    assert defined == set(CASES)


def _hash(rec):
    try:
        return hash(rec)
    except TypeError:  # a record holding a dict (a witness, a certificate) has no hash
        return TypeError


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_semantics(world, name):
    rec, field, other = CASES[name](world)
    cls = type(rec)
    assert cls.__name__ == name
    values = {f: getattr(rec, f) for f in cls._fields}
    assert field in values and values[field] != other

    by_position, by_keyword = cls(*values.values()), cls(**values)
    for copy in (by_position, by_keyword):
        assert copy is not rec
        assert copy == rec and rec == copy and not copy != rec
        assert _hash(copy) == _hash(rec)
    variant = cls(**{**values, field: other})
    assert variant != rec and rec != variant
    assert rec != object() and rec != values
    assert repr(rec).startswith(f"{name}(") and f"{field}=" in repr(rec)

    with pytest.raises(AttributeError):
        setattr(rec, field, other)
    with pytest.raises(AttributeError):
        delattr(rec, field)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1
    assert getattr(rec, field) is values[field]


def test_record_defaults(world):
    assert NSLattice(world.t, world.ns.basis).parent_coords is None
    assert NSLattice(torus=world.t, basis=()).parent_coords is None
    assert AlgebraicityVerdict("not-algebraic", {"kind": "ns-rank-0"}).polarization is None
    claim = Claim("corollary1.algebraic", "verified")
    assert claim.reason is None and claim.witness is None
    assert claim == Claim(claim_id="corollary1.algebraic", status="verified",
                          reason=None, witness=None)


def test_torus_keeps_its_cached_determinant(world):
    t = world.t
    assert t.real_det is t.real_det
    assert t == type(t)(**{f: getattr(t, f) for f in type(t)._fields})


def _not_hermitian():
    f = NumberField(())
    return Mat.from_rows([[f.one(), f.i()], [f.i(), f.one()]])


@pytest.mark.parametrize("build, error", [
    (lambda: AltForm(((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))), ValueError),
    (lambda: HermForm(_not_hermitian()), ValueError),
    (lambda: ComplexBox(F(1), F(0), F(0), F(0)), ValidationError),
    (lambda: ComplexBox(F(0), F(0), F(1), F(-1)), ValidationError),
    (lambda: NumberField((GeneratorSpec("i", (F(2), F(0), F(1)), (F(0), F(0)),
                                        (F(1), F(2)), "imaginary-negation"),)),
     ValidationError),
    (lambda: NumberField((exactfield.sqrt_generator_spec(2),
                          GeneratorSpec("sqrt2", (F(-3), F(0), F(1)), (F(1), F(2)),
                                        (F(0), F(0)), "real"))),
     IncompatibleGenerators),
    (lambda: PeriodMatrix(_not_hermitian()), ValueError),
    (lambda: neronseveri.CanonicalFormCoords(NumberField(()).i(), NumberField(()).one()),
     NotReal),
])
def test_invalid_records_raise_their_typed_errors(build, error):
    with pytest.raises(error):
        build()
