"""The benchmark's oracle (perfbench/oracle.py) reads the library from
outside: Poly.coeffs as ring values with payloads, MonicPoly.poly, and
SymPoly1.coeffs as SymElems.  If a change to those reads broke the
oracle, the benchmark would count every affected op as failed and no
other tier-1 test would notice; this test runs each workload's seed-7
ops through both the oracle and the library and compares the text.
norm-grid runs its tiny op list, whose full oracle takes seconds.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize(
    "workload, tiny",
    [
        ("norm-grid", True),
        ("symmetric-route", False),
        ("census", False),
        ("cli-mix", False),
    ],
)
def test_oracle_agrees_with_library(monkeypatch, workload, tiny):
    # oracle.py imports workloads by name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import oracle
    import workloads

    ops = workloads.build(workload, 7, tiny=tiny)
    got = [workloads.render(workloads.run_op(op)) for op in ops]
    assert oracle.expected(ops, 7) == got
