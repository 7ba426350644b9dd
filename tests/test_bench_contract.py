"""The benchmark's oracle (perfbench/oracle.py) reads the library from
outside: Poly.coeffs as ring values with payloads, MonicPoly.poly, and
SymPoly1.coeffs as SymElems.  If a change to those reads broke the
oracle, the benchmark would count every affected op as failed and no
other tier-1 test would notice; this test runs each workload's seed-7
ops through both the oracle and the library and compares the text.
norm-grid runs its tiny op list, whose full oracle takes seconds.
The census also runs at seeds 2 and 14, where count_points splits both
of its generator pairs into blocks and keeps both whole.
"""

from pathlib import Path

import pytest

from symmline.quotients import _coprime_blocks

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


@pytest.mark.parametrize("seed", [2, 14])
def test_census_oracle_agrees_with_library_on_split_and_linked_pairs(monkeypatch, seed):
    # the census has two two-generator ops; at seed 2 the generators of
    # both are coprime, so count_points splits them into blocks, and at
    # seed 14 both share a factor and stay one block
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import oracle
    import workloads

    ops = workloads.build("census", seed)
    pairs = [op.args[2] for op in ops if len(op.args[2].gens) == 2]
    assert [len(_coprime_blocks(u)) for u in pairs] == ([2, 2] if seed == 2 else [1, 1])
    got = [workloads.render(workloads.run_op(op)) for op in ops]
    assert oracle.expected(ops, seed) == got
