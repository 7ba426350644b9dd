"""Invariant checks that must hold with assertions stripped (python -O)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import symmline
from symmline import _symbasis, matrices
from symmline.errors import InvariantViolationError
from symmline.matrices import SquareMatrix
from symmline.oracles import bareiss_det
from symmline.rings import ZZ
from symmline.selftest import run_selftest

SRC = str(Path(symmline.__file__).resolve().parent.parent)

# prints the verdict of the thm24-equivalence check, with char_poly broken
# when the first argument is "break"
SELFTEST_SCRIPT = """
import sys
import symmline.selftest as s
if sys.argv[1] == "break":
    s.char_poly = lambda m: "wrong"
print(dict((name, ok) for name, ok, _ in s.run_selftest())["thm24-equivalence"])
"""


def _run_optimized(mode):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SELFTEST_SCRIPT, mode],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_selftest_catches_broken_route_under_optimize():
    assert _run_optimized("break") == "False"


def test_selftest_passes_intact_route_under_optimize():
    assert _run_optimized("keep") == "True"


def test_decompose_invariant_is_a_typed_error(monkeypatch):
    # an e-monomial expansion without its leading partition breaks the
    # unit-leading-coefficient argument
    monkeypatch.setattr(_symbasis, "elem_monomial", lambda n, mu: {})
    with pytest.raises(InvariantViolationError):
        _symbasis.decompose_rep({(1, 0): 1}, 2, ZZ)


def test_bareiss_invariant_is_a_typed_error(monkeypatch):
    # exact division that fails on every nonzero numerator
    monkeypatch.setattr(ZZ, "_exact_div", lambda a, b: 0 if a == 0 else None)
    with pytest.raises(InvariantViolationError):
        bareiss_det(SquareMatrix(ZZ, [[1, 2], [3, 4]]))


def _failing_checks():
    return [name for name, ok, _ in run_selftest() if not ok]


def test_selftest_catches_broken_hessenberg_kernel(monkeypatch):
    # one wrong coefficient of char_poly modulo a prime
    hessenberg = matrices._hessenberg

    def off_by_one(a, p):
        coeffs = hessenberg(a, p)
        coeffs[-1] = (coeffs[-1] + 1) % p
        return coeffs

    monkeypatch.setattr(matrices, "_hessenberg", off_by_one)
    assert _failing_checks()


def test_selftest_catches_broken_rational_mult_matrix(monkeypatch):
    # one wrong entry of mult_matrix over QQ
    columns = matrices._rational_columns

    def off_by_one(rem, fc):
        cols = columns(rem, fc)
        cols[0][0] += 1
        return cols

    monkeypatch.setattr(matrices, "_rational_columns", off_by_one)
    assert _failing_checks()
