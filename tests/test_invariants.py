"""Invariant checks that must hold with assertions stripped (python -O)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import symmline
from symmline import _symbasis, oracles
from symmline.errors import InvariantViolationError
from symmline.matrices import SquareMatrix
from symmline.oracles import bareiss_det
from symmline.rings import ZZ

SRC = str(Path(symmline.__file__).resolve().parent.parent)

# prints how many checks ran and the names of those that failed, with
# char_poly broken when the first argument is "break"
SELFTEST_SCRIPT = """
import sys
import symmline.selftest as s
if sys.argv[1] == "break":
    s.char_poly = lambda m: "wrong"
results = s.run_selftest()
print(len(results), *(name for name, ok, _ in results if not ok))
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
    assert "thm24-equivalence" in _run_optimized("break").split()


def test_selftest_passes_intact_route_under_optimize():
    assert _run_optimized("keep") == "24"


def test_decompose_invariant_is_a_typed_error(monkeypatch):
    # an e-monomial expansion without its leading partition breaks the
    # unit-leading-coefficient argument; fresh tables and cache, so the
    # kernel reaches elem_monomial instead of an expansion a table holds
    monkeypatch.setattr(_symbasis, "_TABLES", {})
    monkeypatch.setattr(_symbasis, "_ELEM_CACHE", {})
    monkeypatch.setattr(_symbasis, "elem_monomial", lambda n, mu: {})
    with pytest.raises(InvariantViolationError):
        _symbasis.decompose_rep({(1, 0): 1}, 2, ZZ)


def test_cached_expansion_is_checked_on_every_read(monkeypatch):
    # the tables hand out the cached expansions themselves, so an
    # expansion that loses its lead after it was built fails the next
    # read by either kernel, with no expansion built anew
    monkeypatch.setattr(_symbasis, "_TABLES", {})
    monkeypatch.setattr(_symbasis, "_ELEM_CACHE", {})
    rep = {(2, 1, 0): 1}  # m_(2,1) = e1*e2 - 3*e3 at n = 3
    assert _symbasis.decompose_rep(rep, 3, ZZ) == {(1, 1, 0): 1, (0, 0, 1): -3}
    assert _symbasis.evaluate_reps([rep], 3, ZZ, [2, 5, 7]) == [2 * 5 - 3 * 7]
    built = len(_symbasis._ELEM_CACHE)
    lead = _symbasis._TABLES[(3, 3)].index[(2, 1, 0)]
    del _symbasis._ELEM_CACHE[(3, (1, 1, 0))][lead]
    with pytest.raises(InvariantViolationError):
        _symbasis.decompose_rep(rep, 3, ZZ)
    with pytest.raises(InvariantViolationError):
        _symbasis.evaluate_reps([rep], 3, ZZ, [2, 5, 7])
    assert len(_symbasis._ELEM_CACHE) == built


def test_orbit_weight_invariant_is_a_typed_error(monkeypatch):
    # e1*e2 = m_(2,1) + 3*m_(1,1,1) at n = 3: the product e1 * e2 puts
    # weight 6 on (2, 1, 0), which its orbit of 6 terms divides; a wrong
    # orbit size leaves a remainder
    monkeypatch.setattr(_symbasis, "_TABLES", {})
    monkeypatch.setattr(_symbasis, "_ELEM_CACHE", {})
    table = _symbasis._table(3, 3, 2)
    table.orbits[table.index[(2, 1, 0)]] = 4
    with pytest.raises(InvariantViolationError):
        _symbasis.decompose_rep({(2, 1, 0): 1}, 3, ZZ)


def test_bareiss_invariant_is_a_typed_error(monkeypatch):
    # the oracle's int kernel checks every division it makes; a divmod
    # that leaves each numerator whole as the remainder fails the first
    # nonzero step
    monkeypatch.setattr(oracles, "divmod", lambda a, b: (0, a), raising=False)
    with pytest.raises(InvariantViolationError):
        bareiss_det(SquareMatrix(ZZ, [[1, 2], [3, 4]]))
