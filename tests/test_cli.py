import argparse
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import symmline
from symmline import cli, quotients
from symmline.cli import build_parser, run
from symmline.quotients import ARITY_BOUND
from symmline.selftest import DEFAULT_SEED

README = Path(__file__).resolve().parents[1] / "README.md"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv, "--json")
    assert err == ""
    payload = json.loads(out)
    assert set(payload) == {"verb", "inputs", "result", "oracle", "elapsed_ms"}
    return code, payload


def test_norm_worked_example(capsys):
    code, out, _ = invoke(
        capsys, "norm", "--ring", "ZZ", "--F", "X^2-3*X+2", "--f", "X-4"
    )
    assert code == 0
    assert "norm = 6" in out


def test_norm_json(capsys):
    code, payload = invoke_json(
        capsys, "norm", "--ring", "ZZ", "--F", "X^2-3*X+2", "--f", "X-4"
    )
    assert code == 0
    assert payload["verb"] == "norm"
    assert payload["result"] == "6"
    assert payload["oracle"] == {"matrix": "6", "symmetric": "6"}
    assert payload["inputs"]["F"] == "X^2-3*X+2"


def test_count_trivial_example(capsys):
    code, payload = invoke_json(
        capsys, "count", "--ring", "GF:3", "--n", "2", "--multset", "trivial"
    )
    assert code == 0
    record = payload["result"]
    assert record["count"] == 9
    assert record["q"] == 3
    assert record["n"] == 2
    assert record["multset"] == "trivial"
    assert "elapsed_ms" in record


def test_membership_local_at_example(capsys):
    code, out, _ = invoke(
        capsys,
        "membership",
        "--ring",
        "GF:5",
        "--F",
        "X^2",
        "--multset",
        "local-at:0",
    )
    assert code == 0
    assert "free quotient: true" in out


def test_membership_with_oracle(capsys):
    code, payload = invoke_json(
        capsys,
        "membership",
        "--ring",
        "Zmod:4",
        "--F",
        "X^2-X",
        "--multset",
        "gens:X",
    )
    assert code == 0
    assert payload["result"] is False
    assert payload["oracle"] == {"exhaustive_search": False}


def test_charpoly_verb(capsys):
    code, payload = invoke_json(
        capsys, "charpoly", "--ring", "ZZ", "--F", "X^2-3*X+2", "--f", "X^2"
    )
    assert code == 0
    assert payload["result"] == "X^2 - 5*X + 4"
    assert payload["oracle"] == {"matrix": "X^2 - 5*X + 4"}


def test_sym_ops_verb(capsys):
    code, payload = invoke_json(
        capsys, "sym-ops", "--ring", "ZZ", "--f", "X^2", "--n", "2"
    )
    assert code == 0
    assert payload["result"] == ["e1^2 - 2*e2", "e2^2"]


def test_decompose_verb(capsys):
    code, payload = invoke_json(
        capsys, "decompose", "--ring", "ZZ", "--n", "2", "--expr", "X1^2+X2^2"
    )
    assert code == 0
    assert payload["result"] == "e1^2 - 2*e2"
    assert payload["oracle"] == {"expand_back_equal": True}


def test_resultant_check_verb(capsys):
    code, payload = invoke_json(
        capsys,
        "resultant-check",
        "--ring",
        "ZZ",
        "--P",
        "X^2-3*X+2",
        "--Q",
        "X-4",
    )
    assert code == 0
    assert payload["result"] is True
    assert payload["oracle"]["N_P(Q)"] == "6"
    assert payload["oracle"]["sylvester_N_P(Q)"] == "6"


def test_push_norm_verb(capsys):
    code, payload = invoke_json(
        capsys,
        "push-norm",
        "--ring",
        "ZZ",
        "--to",
        "Zmod:5",
        "--F",
        "X^2-3*X+2",
        "--f",
        "X",
    )
    assert code == 0
    assert payload["result"] == {"pushed": "2", "recomputed": "2"}


def test_push_norm_tower(capsys):
    code, payload = invoke_json(
        capsys,
        "push-norm",
        "--ring",
        "Poly:ZZ:T",
        "--eval",
        "0",
        "--F",
        "X-T",
        "--f",
        "X",
    )
    assert code == 0
    assert payload["result"] == {"pushed": "0", "recomputed": "0"}


def test_recover_verb(capsys):
    code, payload = invoke_json(
        capsys, "recover", "--ring", "ZZ", "--matrix", "0,-2;1,3"
    )
    assert code == 0
    assert payload["result"] == "X^2 - 3*X + 2"
    assert payload["oracle"] == {"cofactor": "X^2 - 3*X + 2"}


def test_addition_verb(capsys):
    code, payload = invoke_json(
        capsys, "addition", "--ring", "ZZ", "--n", "2", "--expr", "e2"
    )
    assert code == 0
    assert payload["result"] == "e1*X"


def test_section_verb(capsys):
    code, payload = invoke_json(
        capsys, "section", "--ring", "ZZ", "--n", "1", "--expr", "e1"
    )
    assert code == 0
    assert payload["result"] == "-X + e1"


def test_parse_error_exit_code(capsys):
    code, out, err = invoke(
        capsys, "norm", "--ring", "ZZ", "--F", "X^2-3*X+", "--f", "X"
    )
    assert code == 2
    assert "parse error" in err


def test_domain_error_exit_code(capsys):
    code, out, err = invoke(
        capsys, "norm", "--ring", "ZZ", "--F", "2*X^2", "--f", "X"
    )
    assert code == 1
    assert "SymmlineError" in err


def test_unsupported_error_exit_code(capsys):
    code, out, err = invoke(
        capsys,
        "membership",
        "--ring",
        "ZZ",
        "--F",
        "X^2",
        "--multset",
        "local-at:0",
    )
    assert code == 1
    assert "UnsupportedRingError" in err


def test_huge_exponent_fails_fast(capsys):
    for argv in (
        ("norm", "--ring", "ZZ", "--F", "X^2+1", "--f", "X^99999999"),
        # degree 64 is within DEGREE_BOUND, but not the term products
        ("decompose", "--ring", "ZZ", "--n", "3", "--expr", "(X1+X2+X3+1)^64"),
    ):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "OracleInfeasibleError" in err


def test_norm_of_high_degree_f_is_fast(capsys):
    # the symmetric route reduces f mod F before expanding
    start = time.perf_counter()
    code, out, err = invoke(
        capsys, "norm", "--ring", "ZZ", "--F", "X^4+X+1", "--f", "(X+1)^40"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0, err
    assert "norm = 1" in out


def test_arity_over_bound_fails_fast(capsys):
    # the parsers bind one name per variable, so a huge --n is refused
    # before those names are built
    start = time.perf_counter()
    for n in (str(ARITY_BOUND + 1), "99999999"):
        for argv in (
            ("sym-ops", "--ring", "ZZ", "--f", "X^2", "--n", n),
            ("decompose", "--ring", "ZZ", "--n", n, "--expr", "1"),
            ("addition", "--ring", "ZZ", "--n", n, "--expr", "e1"),
            ("section", "--ring", "ZZ", "--n", n, "--expr", "e1"),
        ):
            code, out, err = invoke(capsys, *argv)
            assert code == 1, argv
            assert "OracleInfeasibleError" in err
    assert time.perf_counter() - start < 1.0


def _matrix_text(n):
    return ";".join(
        ",".join(str((i * n + j) % 7 - 3) for j in range(n)) for i in range(n)
    )


def test_recover_size_bound(capsys):
    start = time.perf_counter()
    code, out, err = invoke(
        capsys, "recover", "--ring", "ZZ",
        f"--matrix={_matrix_text(ARITY_BOUND + 1)}",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert "OracleInfeasibleError" in err
    # a single row longer than the bound is refused before its entries
    code, out, err = invoke(
        capsys, "recover", "--ring", "ZZ",
        "--matrix", ",".join(["1"] * (ARITY_BOUND + 1)),
    )
    assert code == 1
    assert "OracleInfeasibleError" in err
    code, out, err = invoke(
        capsys, "recover", "--ring", "ZZ", f"--matrix={_matrix_text(ARITY_BOUND)}"
    )
    assert code == 0, err
    assert f"X^{ARITY_BOUND} " in out


def test_selftest_deterministic(capsys):
    code1, out1, _ = invoke(capsys, "selftest", "--seed", "7")
    code2, out2, _ = invoke(capsys, "selftest", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "checks passed" in out1


def test_selftest_json(capsys):
    code, payload = invoke_json(capsys, "selftest", "--seed", "7")
    assert code == 0
    assert all(entry["ok"] for entry in payload["result"])
    names = {entry["name"] for entry in payload["result"]}
    assert "thm24-equivalence" in names
    assert "criterion-oracle-agreement" in names


def test_count_uses_thread_env(monkeypatch, capsys):
    # the census reads no thread setting, so a malformed one is harmless
    monkeypatch.setenv("SYMMLINE_THREADS", "abc")
    code, payload = invoke_json(
        capsys, "count", "--ring", "GF:5", "--n", "2", "--multset", "gens:X"
    )
    assert code == 0
    assert payload["result"]["count"] == 20  # monic quadratics with F(0) != 0


def test_addition_arity_one(capsys):
    code, payload = invoke_json(
        capsys, "addition", "--ring", "ZZ", "--n", "1", "--expr", "e1"
    )
    assert code == 0
    assert payload["result"] == "X"


def test_count_composite_modulus_rejected(capsys):
    code, out, err = invoke(
        capsys, "count", "--ring", "GF:4", "--n", "2", "--multset", "trivial"
    )
    assert code == 2  # GF:4 fails ring parsing


def _readme_cli_lines():
    """The `symmline ...` lines of the README's code block under ## CLI."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("symmline ")]


def test_readme_cli_block_runs(capsys):
    lines = _readme_cli_lines()
    for line in lines:
        code = run(shlex.split(line)[1:])
        capsys.readouterr()
        assert code == 0, line
    verbs = {line.split()[1] for line in lines}
    sub = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    assert verbs == set(sub.choices)


def _probe(script):
    """The stdout of script run by a fresh interpreter on this source tree."""
    src = str(Path(symmline.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout


def test_import_skips_thread_pool_and_logging():
    out = _probe(
        "import sys, symmline; "
        "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    )
    assert out.strip() == "[]"


def test_parser_built_once_per_process():
    # counts ArgumentParser constructions (the subparsers included) in a
    # fresh process: none at import, all of them during the first call
    out = _probe("""
import argparse, contextlib, io, json
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
from symmline import cli
counts, codes = [len(built)], []
for argv in (["norm", "--ring", "ZZ", "--F", "X^2+1", "--f", "X"],
             ["sym-ops", "--ring", "ZZ", "--f", "X^2", "--n", "2"],
             ["count", "--ring", "GF:3", "--n", "2", "--multset", "trivial"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.run(argv))
    counts.append(len(built))
print(json.dumps([counts, codes]))
""")
    counts, codes = json.loads(out)
    assert codes == [0, 0, 0]
    assert counts[0] == 0
    assert counts[1] > 1  # the top parser and its subparsers
    assert counts[1] == counts[2] == counts[3]


def _json_without_timing(capsys, argv):
    """Exit status and parsed --json output, minus every elapsed_ms."""
    code, out, err = invoke(capsys, *argv, "--json")
    payload = json.loads(out) if out else None
    if payload is not None:
        payload.pop("elapsed_ms")
        if isinstance(payload["result"], dict):
            payload["result"].pop("elapsed_ms", None)
    return code, payload


def test_shared_parser_keeps_no_state(capsys, monkeypatch):
    calls = [
        ("push-norm", "--ring", "ZZ", "--to", "Zmod:12",
         "--F", "X^2-3*X+2", "--f", "X"),
        ("push-norm", "--ring", "Poly:ZZ:T", "--eval", "2",
         "--F", "X-T", "--f", "X"),
        ("selftest", "--seed", "3"),
        ("selftest",),
        ("count", "--ring", "GF:3", "--n", "2", "--multset", "gens:X"),
    ]
    parser = build_parser()
    shared = [_json_without_timing(capsys, argv) for argv in calls]
    with pytest.raises(SystemExit) as exc:
        run(["norm", "--ring", "ZZ", "--F", "X^2+1"])  # --f is missing
    assert exc.value.code == 2
    capsys.readouterr()
    shared.append(_json_without_timing(capsys, calls[0]))
    assert build_parser() is parser

    assert "to" not in shared[1][1]["inputs"]
    assert shared[2][1]["inputs"]["seed"] == 3
    assert shared[3][1]["inputs"]["seed"] == DEFAULT_SEED
    for argv, got in zip(calls + calls[:1], shared):
        monkeypatch.setattr(cli, "_PARSER", None)
        assert got == _json_without_timing(capsys, argv), argv
        assert cli._PARSER is not parser


def _readme_budget_list():
    """The README's list of work budgets, under 'Oversized input'."""
    text = README.read_text()
    return text.split("Oversized input", 1)[1].split("\n\n`selftest`", 1)[0]


def test_readme_names_every_bound():
    budgets = _readme_budget_list()
    bounds = {
        name: value for name, value in vars(quotients).items()
        if name.endswith("_BOUND") and isinstance(value, int)
    }
    assert "TERM_PRODUCT_BOUND" in bounds
    for name, value in bounds.items():
        assert f"`{name} = {value:_}`" in budgets, name
