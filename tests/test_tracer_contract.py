"""The benchmark's tracer (perfbench/tracer.py) patches symmline from
outside: every public module function, the methods it names per class
(read from each class's own __dict__), the RingValue operators and the
ring equality methods.  A method moved out of its class body, or a
patch that uninstall() does not undo, breaks the traced benchmark; this
test makes it fail here too.

A traced run is also incorrect when a count that its workload must
move reads zero, as rings.ring_eq_calls would if matrices.mult_matrix
checked its rings without Ring.__ne__.  So every workload of
BENCHMARK.json runs here once, traced, at its tiny size.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import symmline

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load_tracer():
    spec = importlib.util.spec_from_file_location("symmline_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_uninstall_restore_every_binding():
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    try:
        tracer.install(symmline)
        patches = list(tracer._patches)
        for owner, attr, original in patches:
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    assert patches
    patched = {(owner, attr) for owner, attr, _ in patches}
    assert len(patched) == len(patches), "an attribute was patched twice"
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, (owner, attr)
    # every spanned method is defined in its own class body
    for (layer, cls_name), methods in tracer_mod.SPANNED_METHODS.items():
        cls = getattr(getattr(symmline, layer), cls_name)
        for meth in methods:
            assert meth in vars(cls), f"{cls_name}.{meth}"
            assert (cls, meth) in patched


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_traced_run_is_correct(workload):
    # correct is false when a traced output differs from the untraced
    # one or from the oracle, or when a MUST_MOVE metric reads zero
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.3", "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    errors = [line for line in lines if line.startswith("error")]
    assert json.loads(lines[-1])["correct"], errors
