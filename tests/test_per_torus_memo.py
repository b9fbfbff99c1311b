"""NS(T) and End(T) are computed once per torus object.

compute_ns and compute_endo_ring keep the torus-free part of their
result on the torus (`Torus.memo`) and rebuild the record on each call.
These tests pin what that may and may not change: the results, the
work a second call does, the torus's lifetime, its record semantics,
and a caller's ns, which must belong to the torus it is used with.
"""

import gc
import weakref

import pytest

from toruslab import endo, neronseveri
from toruslab.endo import compute_endo_ring
from toruslab.errors import ValidationError
from toruslab.exactfield import NumberField
from toruslab.linalg import Mat
from toruslab.neronseveri import compute_ns, is_algebraic
from toruslab.papercheck import (
    random_torus_with_sqrt_d,
    verify_corollaries,
    verify_proposition,
)
from toruslab.torus import PeriodMatrix, attach_multiplication, build_torus


def _cm_product():
    """A fresh (Z + Zi)^2 with diag(i, -i): NS rank 4, End rank 8, algebraic."""
    f = NumberField(())
    i, one, zero = f.i(), f.one(), f.zero()
    t = build_torus(PeriodMatrix(Mat.from_rows([[one, i, zero, zero],
                                                [zero, zero, one, i]])))
    return t, attach_multiplication(t, Mat.diagonal([i, -i]), -1)


def _reports(t, mult):
    return (verify_corollaries(t, [mult]).to_dict(),
            verify_proposition(t, mult).to_dict(),
            is_algebraic(t, mults=[mult]).certificate)


def _spy(monkeypatch, module, name, counts):
    fn = getattr(module, name)
    key = f"{module.__name__}.{name}"
    counts[key] = 0

    def spy(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


def test_results_do_not_depend_on_what_ran_before():
    warm, mult = _cm_product()
    first = _reports(warm, mult)
    ns, ring = compute_ns(warm), compute_endo_ring(warm)
    assert _reports(warm, mult) == first
    fresh, fresh_mult = _cm_product()
    assert fresh is not warm
    assert compute_ns(fresh) == ns and compute_endo_ring(fresh) == ring
    assert (ns.rank, ring.rank) == (4, 8)
    assert _reports(fresh, fresh_mult) == first


def test_a_second_call_computes_nothing(monkeypatch):
    counts = {}
    _spy(monkeypatch, neronseveri, "kernel_lattice", counts)
    _spy(monkeypatch, neronseveri, "hermitian_lift", counts)
    _spy(monkeypatch, endo, "kernel_lattice", counts)
    t, mult = _cm_product()
    ns, ring = compute_ns(t), compute_endo_ring(t)
    assert counts == {"toruslab.neronseveri.kernel_lattice": 1,
                      "toruslab.neronseveri.hermitian_lift": 4,
                      "toruslab.endo.kernel_lattice": 1}
    for key in counts:
        counts[key] = 0
    assert compute_ns(t) == ns and compute_endo_ring(t) == ring
    assert set(counts.values()) == {0}
    # compute_N_D runs one kernel of its own; NS and End come from the memo
    verify_corollaries(t, [mult])
    is_algebraic(t, mults=[mult])
    assert counts == {"toruslab.neronseveri.kernel_lattice": 1,
                      "toruslab.neronseveri.hermitian_lift": 0,
                      "toruslab.endo.kernel_lattice": 0}
    # each call still returns a record of its own around the kept basis
    again = compute_ns(t)
    assert again is not ns and again.basis is ns.basis and again.torus is t


def test_the_memo_keeps_no_reference_cycle():
    gc.disable()
    try:
        t, mult = _cm_product()
        ns, ring = compute_ns(t), compute_endo_ring(t)
        verify_corollaries(t, [mult])
        ref = weakref.ref(t)
        del t, mult, ns, ring
        assert ref() is None
    finally:
        gc.enable()


def test_a_failed_computation_keeps_nothing(monkeypatch):
    t, _ = _cm_product()

    def fail(*args):
        raise RuntimeError("stop")

    for module, name, compute in ((neronseveri, "hermitian_lift", compute_ns),
                                  (endo, "kernel_lattice", compute_endo_ring)):
        with monkeypatch.context() as m:
            m.setattr(module, name, fail)
            with pytest.raises(RuntimeError):
                compute(t)
        counts = {}
        with monkeypatch.context() as m:
            _spy(m, module, name, counts)
            assert compute(t) == compute(_cm_product()[0])
        assert counts[f"{module.__name__}.{name}"] > 0

    with pytest.raises(RuntimeError):
        t.memo("answer", fail)
    assert t.memo("answer", lambda: 42) == 42
    assert t.memo("answer", fail) == 42


def test_torus_equality_hash_and_repr_ignore_the_memo():
    warm, _ = _cm_product()
    cold, _ = _cm_product()
    before = repr(warm)
    compute_ns(warm)
    compute_endo_ring(warm)
    assert repr(warm) == before == repr(cold)
    assert warm == cold and hash(warm) == hash(cold)
    assert type(warm)._fields == ("period", "field", "J", "big_p", "big_p_inv")


def test_foreign_ns_is_refused():
    t1, _ = random_torus_with_sqrt_d(2, 1)
    t2, m2 = random_torus_with_sqrt_d(3, 1)
    foreign = compute_ns(t1)
    with pytest.raises(ValidationError):
        is_algebraic(t2, mults=[m2], ns=foreign)
    with pytest.raises(ValidationError):
        verify_proposition(t2, m2, ns=foreign)
    # NS of an equal torus is NS of this one
    twin, _ = random_torus_with_sqrt_d(3, 1)
    assert twin is not t2 and twin == t2
    assert (is_algebraic(t2, mults=[m2], ns=compute_ns(twin))
            == is_algebraic(t2, mults=[m2]))
