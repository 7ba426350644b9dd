"""Tests of the benchmark itself; run with  python -m pytest perfbench

They run every workload at its tiny size, so they check the harness and
the oracles, not the library's speed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import Runner  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (run.RESULTS / f"{workload}-seed{SEED}-trace{trace}.json").read_text()
    )
    return result, record


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload_reports_every_metric(workload):
    untraced, record0 = bench(workload, 0)
    traced, record1 = bench(workload, 1)
    for result, kind in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        for metric in SPEC[kind]:
            got = result["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))
    for metric in SPEC["end_to_end"]:
        assert untraced["metrics"][metric["name"]]["value"] > 0
    # traced and untraced runs produce the same outputs
    assert record0["digests"] == record1["digests"] == [record0["expected_digest"]]


def test_injected_wrong_answer_counts_as_failed(monkeypatch, capsys):
    honest = oracle.expected

    def one_wrong(ops, seed):
        out = honest(ops, seed)
        out[0] = "not the answer"
        return out

    monkeypatch.setattr(oracle, "expected", one_wrong)
    code = run.main(["--workload", "cli-mix", "--seed", str(SEED),
                     "--seconds", "0.2", "--tiny"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] > 0
    frac = result["metrics"]["verified_ops_frac"]["value"]
    assert frac == pytest.approx(1 - result["failed"] / result["attempted"])
    assert frac < 1


def test_warm_mismatch_is_counted():
    ops = workloads.build("norm-grid", SEED, tiny=True)[:3]
    runner = Runner(ops, workloads.run_op, workloads.render)
    runner.one_pass()
    runner.reference[1] = "stale"
    _, bad, _ = runner.one_pass()
    assert bad == [1]


def test_zeta_count_matches_enumeration():
    from symmline import GF, MultSet, Poly, count_points

    ring = GF(3)
    gens = [Poly(ring, [1, 1]), Poly(ring, [2, 0, 1]), Poly(ring, [1, 0, 1])]
    for n in (1, 2, 3, 4):
        for k in (1, 2, 3):
            ms = MultSet.generated(*gens[:k])
            plain = [[c.payload for c in g.coeffs] for g in gens[:k]]
            assert oracle.zeta_count(3, n, plain) == count_points(3, n, ms)


def test_tracer_restores_every_binding():
    import symmline
    import symmline.cli
    import symmline.norms
    import symmline.quotients
    from symmline.rings import IntegerRing, RingValue

    before = (symmline.norms.det, symmline.quotients.norm, symmline.cli.norm,
              RingValue.__add__, RingValue.__radd__, IntegerRing.__eq__)
    tracer = Tracer()
    tracer.install(symmline)
    try:
        assert symmline.norms.det is not before[0]
        assert symmline.quotients.norm is symmline.cli.norm is symmline.norm
        tracer.active = True
        f = symmline.Poly(symmline.ZZ, [1, 2, 1])
        F = symmline.MonicPoly(symmline.Poly(symmline.ZZ, [3, 0, 1]))
        assert symmline.quotients.norm(f, F) == symmline.ZZ.value(16)
        tracer.active = False
    finally:
        tracer.uninstall()
    after = (symmline.norms.det, symmline.quotients.norm, symmline.cli.norm,
             RingValue.__add__, RingValue.__radd__, IntegerRing.__eq__)
    assert all(a is b for a, b in zip(before, after))
    assert tracer.calls["norms.norm"] == 1
    assert tracer.calls["matrices.det"] == 1
    assert tracer.counters["matrices.berkowitz_work"] == 2**4
    assert tracer.counters["rings.value_ops"] > 0


def test_refuses_a_tree_without_the_library(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "worker.py"):
        (tmp_path / "perfbench" / name).write_text((HERE / name).read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
