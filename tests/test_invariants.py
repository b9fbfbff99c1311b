"""Invariant checks that back certified output run under ``python -O`` too."""

import os
import subprocess
import sys

from conftest import REPO
from toruslab.errors import InvariantViolation, TorusLabError

LIFT_OUTSIDE_NS = """
from toruslab.errors import InvariantViolation
from toruslab.exactfield import NumberField
from toruslab.linalg import Mat
from toruslab.neronseveri import AltForm, hermitian_lift
from toruslab.torus import PeriodMatrix, build_torus

f = NumberField(())
i, one, zero = f.i(), f.one(), f.zero()
t = build_torus(PeriodMatrix(Mat.from_rows([[one, i, zero, zero], [zero, zero, one, i]])))
print("debug", __debug__)
try:
    hermitian_lift(t, AltForm.from_upper((0, 1, 0, 0, 0, 0)))
except InvariantViolation as e:
    print("raised", e)
"""


def test_invariant_violation_is_an_assertion_error():
    assert issubclass(InvariantViolation, AssertionError)
    assert issubclass(InvariantViolation, TorusLabError)


def test_hermitian_lift_check_runs_under_optimize():
    # E = e_02 is not J-compatible, so its lift cannot reproduce it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-O", "-c", LIFT_OUTSIDE_NS], env=env,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out == ["debug False",
                   "raised hermitian lift is inconsistent with its alternating form"]
