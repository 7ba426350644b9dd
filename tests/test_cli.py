import argparse
import ast
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import symmline
from symmline import cli, errors, matrices, norms
from symmline.cli import build_parser, run
from symmline.errors import ARITY_BOUND
from symmline.poly import MonicPoly, Poly
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


# (ring, F, multset, the oracle field): exhaustive search while
# m^deg F <= 4096, Sylvester resultants for other scalar gens: sets,
# F(X + a) = X^n for local-at; towers, trivial and all-nonzero have none
MEMBERSHIP_ORACLES = [
    ("ZZ", "X^2+X-1", "gens:X,-1", {"sylvester_units": True}),
    ("ZZ", "X^2-3*X+2", "gens:X^3+1", {"sylvester_units": False}),
    ("QQ", "X^3+1", "gens:2*X+1,X^5-7", {"sylvester_units": True}),
    ("QQ", "X^2+1", "gens:X^2+1", {"sylvester_units": False}),
    ("Zmod:12", "X^3+2*X+1", "gens:X+5", {"exhaustive_search": False}),
    ("Zmod:12", "X^4+X+1", "gens:X+2", {"sylvester_units": False}),
    ("Zmod:12", "X^4+X+1", "gens:X,5", {"sylvester_units": True}),
    ("GF:7", "X^4+X+3", "gens:X^9+X+5", {"exhaustive_search": True}),
    ("GF:7", "X^5+X+3", "gens:X^9+X+5,3", {"sylvester_units": True}),
    ("GF:7", "X^2-4*X+4", "local-at:2", {"shifted_power": True}),
    ("QQ", "X^2-2*X+1", "local-at:-1", {"shifted_power": False}),
    ("Poly:ZZ:T", "X^2+T", "gens:X+1", None),
    ("GF:7", "X^2+1", "trivial", None),
    ("QQ", "X^2+1", "all-nonzero", None),
]


@pytest.mark.parametrize("ring, F, multset, oracle", MEMBERSHIP_ORACLES)
def test_membership_oracle_by_ring_and_set(capsys, ring, F, multset, oracle):
    code, payload = invoke_json(
        capsys, "membership", "--ring", ring, "--F", F, "--multset", multset
    )
    assert code == 0
    assert payload["oracle"] == oracle
    if oracle is not None:
        assert list(oracle.values()) == [payload["result"]]


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


def test_resultant_check_computes_each_norm_once(capsys, monkeypatch):
    calls = []
    det = symmline.norms.det
    monkeypatch.setattr(symmline.norms, "det", lambda m: calls.append(m.n) or det(m))
    code, out, err = invoke(
        capsys, "resultant-check", "--ring", "ZZ", "--P", "X^3+X+1", "--Q", "X^2-2"
    )
    assert code == 0, err
    assert "N_P(Q) = -17, N_Q(P) = -17" in out
    assert sorted(calls) == [2, 3]


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


def _unit_bump(p):
    return MonicPoly(p + Poly(p.ring, [1]))


# (argv, namespace whose binding the verb calls, route, wrong answer made
# from the right one, and a test id where the verb has another row);
# membership's exhaustive oracle runs when q^deg F <= 4096, its Sylvester
# oracle over ZZ, and recover's when the matrix has at most 4 rows
CROSS_CHECKED = [
    (("norm", "--ring", "ZZ", "--F", "X^2-3*X+2", "--f", "X-4"),
     norms, "norm", lambda v: v + 1),
    (("charpoly", "--ring", "ZZ", "--F", "X^2-3*X+2", "--f", "X-4"),
     cli, "mult_char_poly", _unit_bump),
    (("decompose", "--ring", "ZZ", "--n", "2", "--expr", "X1^2+X2^2"),
     cli, "decompose", lambda s: -s),
    (("push-norm", "--ring", "ZZ", "--to", "Zmod:5", "--F", "X^2-3*X+2",
      "--f", "X-4"),
     cli, "push_norm", lambda ab: (ab[0] + 1, ab[1])),
    (("membership", "--ring", "GF:5", "--F", "X^2+1", "--multset", "gens:X+1"),
     cli, "is_free_quotient", lambda ok: not ok),
    (("membership", "--ring", "ZZ", "--F", "X^2+X-1", "--multset", "gens:X,-1"),
     cli, "is_free_quotient", lambda ok: not ok, "membership-ZZ"),
    (("recover", "--ring", "ZZ", "--matrix", "1,2;3,4"),
     cli, "recover_monic", _unit_bump),
    (("resultant-check", "--ring", "ZZ", "--P", "X^2-3*X+2", "--Q", "X-4"),
     norms, "norm", lambda v: v + v),
]


@pytest.mark.parametrize(
    "argv, namespace, route, wrong",
    [row[:4] for row in CROSS_CHECKED],
    ids=[row[-1] if len(row) > 4 else row[0][0] for row in CROSS_CHECKED],
)
def test_cross_check_disagreement_fails_closed(
    capsys, monkeypatch, argv, namespace, route, wrong
):
    original = getattr(namespace, route)
    monkeypatch.setattr(namespace, route, lambda *args: wrong(original(*args)))
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert "InvariantViolationError" in err
    assert out == ""


def test_symmetric_route_refuses_before_the_determinant_route(capsys, monkeypatch):
    # the symmetric route refuses deg F > ARITY_BOUND at once; a
    # determinant route run first would do O(n^3) or O(n^4) work
    def ran(*args):
        raise AssertionError("a determinant route ran")

    routes = (matrices.char_poly, matrices.det)
    for name, namespace in list(sys.modules.items()):
        if name.partition(".")[0] == "symmline":
            for attr, value in list(vars(namespace).items()):
                if any(value is route for route in routes):
                    monkeypatch.setattr(namespace, attr, ran)
    F = f"(X+1)^{ARITY_BOUND + 1}"
    for argv in (
        ("norm", "--ring", "ZZ", "--F", F, "--f", "X+2"),
        ("charpoly", "--ring", "ZZ", "--F", F, "--f", "X+2"),
        ("push-norm", "--ring", "ZZ", "--to", "Zmod:5", "--F", F, "--f", "X+2"),
    ):
        code, out, err = invoke(capsys, *argv)
        assert code == 1, argv
        assert f"OracleInfeasibleError: arity {ARITY_BOUND + 1} exceeds" in err
        assert out == ""


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


def _expanded_sextic():
    """(X1+...+X6+1)^8 multiplied out: 3,003 terms, 61,337 characters."""
    from symmline.parsing import parse_multipoly
    from symmline.rings import ZZ

    return str(parse_multipoly("(X1+X2+X3+X4+X5+X6+1)^8", ZZ, 6))


def test_long_expressions_reach_the_verbs(capsys):
    # no expression recurses on its length or nesting in the parser
    expr = _expanded_sextic()
    assert len(expr) == 61_337 and expr.count(" + ") == 3_002
    code, out, err = invoke(capsys, "decompose", "--ring", "ZZ", "--n", "6",
                            f"--expr={expr}")
    assert code == 0, err
    assert "expands back to the input" in out
    n = 10_000
    for f in ("+".join(["X"] * n), "(" * n + "X" + ")" * n, "-" * n + "X"):
        code, out, err = invoke(capsys, "norm", "--ring", "ZZ", "--F", "X^2+1",
                                f"--f={f}")
        assert code == 0, err


def test_tower_rings_fail_fast_and_typed(capsys):
    start = time.perf_counter()
    for levels in (ARITY_BOUND + 1, 1000):
        ring = "ZZ"
        for k in range(levels):
            ring = f"Poly:{ring}:T{k}"
        code, out, err = invoke(capsys, "norm", "--ring", ring, "--F", "X", "--f", "X")
        assert code == 1
        assert f"OracleInfeasibleError: tower depth {levels} exceeds" in err
    code, out, err = invoke(
        capsys, "norm", "--ring", "Poly:Poly:ZZ:T:T", "--F", "X", "--f", "T"
    )
    assert code == 2
    assert "variable name 'T' is already used in Poly:ZZ:T" in err
    assert time.perf_counter() - start < 1.0


def test_deep_tower_within_the_bound_is_fast(capsys):
    ring = "ZZ"
    for k in range(ARITY_BOUND):
        ring = f"Poly:{ring}:T{k}"
    start = time.perf_counter()
    code, out, err = invoke(
        capsys, "charpoly", "--ring", ring, "--F", "X^2+T0", "--f", f"X+T{ARITY_BOUND - 1}"
    )
    assert code == 0, err
    assert "charpoly = X^2 - 2*T9*X + (T9^2 + T0)" in out
    assert time.perf_counter() - start < 1.0


def test_norm_refuses_a_large_modulus_before_the_determinant(capsys):
    # the symmetric route checks deg F against ARITY_BOUND; the
    # determinant route, run first, took 26 s on this input
    start = time.perf_counter()
    code, out, err = invoke(
        capsys, "norm", "--ring", "ZZ", "--F", "X^100+X+1", "--f", "(X+2)^99"
    )
    assert code == 1
    assert "OracleInfeasibleError: arity 100 exceeds" in err
    assert time.perf_counter() - start < 1.0


def test_resultant_and_membership_refuse_large_degrees(capsys):
    # their n x n determinants grow like n^4; at degree 100 they took
    # over a minute before deg P, deg Q and deg F were checked
    start = time.perf_counter()
    for argv, what in (
        (("resultant-check", "--ring", "ZZ", "--P", "(X+1)^100", "--Q", "(X+2)^99"),
         "deg P 100"),
        (("resultant-check", "--ring", "ZZ", "--P", "X+1", "--Q", "(X+2)^99"),
         "deg Q 99"),
        (("membership", "--ring", "ZZ", "--F", "(X+1)^100", "--multset",
          "gens:(X+2)^99"), "deg F 100"),
    ):
        code, out, err = invoke(capsys, *argv)
        assert code == 1, argv
        assert f"OracleInfeasibleError: {what} exceeds the arity bound" in err
    assert time.perf_counter() - start < 1.0
    top = f"(X+1)^{ARITY_BOUND}"
    for argv in (
        ("resultant-check", "--ring", "ZZ", "--P", top, "--Q", f"(X+2)^{ARITY_BOUND}"),
        ("membership", "--ring", "ZZ", "--F", top, "--multset", f"gens:{top}+1"),
    ):
        code, out, err = invoke(capsys, *argv)
        assert code == 0, err


def test_count_refuses_a_huge_degree_before_the_power(capsys):
    # 3**n alone took 118 s at n = 10**8 before the census bound was
    # tested; both closed forms still test the bound before they answer
    for multset in ("trivial", "all-nonzero"):
        start = time.perf_counter()
        code, out, err = invoke(
            capsys, "count", "--ring", "GF:3", "--n", "1000000000", "--multset", multset
        )
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert (
            "OracleInfeasibleError: 3^1000000000 polynomials exceed the census bound"
            in err
        )
        # either side of the bound's bit length (20) over GF(2) is refused alike
        for n in ("20", "21"):
            code, out, err = invoke(
                capsys, "count", "--ring", "GF:2", "--n", n, "--multset", multset
            )
            assert code == 1
            assert f"2^{n} polynomials exceed the census bound" in err


def test_count_local_at_is_constant_time(capsys):
    # local-at admits only (X - a)^n, so even the largest admitted census
    # enumerates nothing; the census bound still refuses 2^20
    start = time.perf_counter()
    code, payload = invoke_json(
        capsys, "count", "--ring", "GF:2", "--n", "19", "--multset", "local-at:1"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert payload["result"]["count"] == 1
    code, out, err = invoke(
        capsys, "count", "--ring", "GF:2", "--n", "20", "--multset", "local-at:1"
    )
    assert code == 1
    assert "2^20 polynomials exceed the census bound" in err


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
    assert verbs == set(_verb_parsers())


def _readme_library_sketch():
    """The Python code block under the README's ## Library sketch."""
    section = README.read_text().split("\n## Library sketch\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _rendering(value):
    if isinstance(value, list):
        return "[" + ", ".join(map(str, value)) + "]"
    return str(value)


def test_readme_library_sketch_runs():
    # each commented line's value, an expression's or the name it binds,
    # renders as the start of its comment
    namespace = {}
    commented = 0
    for line in _readme_library_sketch().splitlines():
        code, _, comment = (part.strip() for part in line.partition("#"))
        if not code:
            continue
        statement = ast.parse(code).body[0]
        if isinstance(statement, ast.Expr):
            value = eval(code, namespace)
        else:
            exec(code, namespace)
            binds = isinstance(statement, ast.Assign)
            value = namespace[statement.targets[0].id] if binds else None
        if comment:
            text = _rendering(value)
            rest = comment[len(text):len(text) + 1]
            assert comment.startswith(text) and not rest.isalnum(), (line, text)
            commented += 1
    assert commented == 8


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
        name: value for name, value in vars(errors).items()
        if name.endswith("_BOUND") and isinstance(value, int)
    }
    assert "TERM_PRODUCT_BOUND" in bounds
    for name, value in bounds.items():
        assert f"`{name} = {value:_}`" in budgets, name


# verb -> its flags besides --json, in declared order, as (name, required)
DECLARED = {
    "norm": [("ring", True), ("F", True), ("f", True)],
    "charpoly": [("ring", True), ("F", True), ("f", True)],
    "sym-ops": [("ring", True), ("f", True), ("n", True)],
    "decompose": [("ring", True), ("n", True), ("expr", True)],
    "resultant-check": [("ring", True), ("P", True), ("Q", True)],
    "push-norm": [("ring", True), ("F", True), ("f", True),
                  ("to", False), ("eval", False)],
    "membership": [("ring", True), ("F", True), ("multset", True)],
    "recover": [("ring", True), ("matrix", True)],
    "addition": [("ring", True), ("n", True), ("expr", True)],
    "section": [("ring", True), ("n", True), ("expr", True)],
    "count": [("ring", True), ("n", True), ("multset", True)],
    "selftest": [("seed", False)],
}


def _verb_parsers():
    sub = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return sub.choices


def test_each_verb_declares_its_flags():
    parsers = _verb_parsers()
    assert list(parsers) == list(DECLARED)
    for verb, parser in parsers.items():
        options = [a.option_strings for a in parser._actions]
        assert options[0] == ["-h", "--help"] and options[-1] == ["--json"]
        declared = [
            (a.option_strings[0][2:], a.required) for a in parser._actions[1:-1]
        ]
        assert declared == DECLARED[verb], verb
        assert parser.get_default("flags") == tuple(n for n, _ in declared)


@pytest.mark.parametrize("argv, inputs", [
    ("norm --ring ZZ --F X^2-3*X+2 --f X-4",
     {"ring": "ZZ", "F": "X^2-3*X+2", "f": "X-4"}),
    ("charpoly --ring Zmod:12 --F X^3+2*X+1 --f X^2-5",
     {"ring": "Zmod:12", "F": "X^3+2*X+1", "f": "X^2-5"}),
    ("sym-ops --ring ZZ --f X^2 --n 2", {"ring": "ZZ", "f": "X^2", "n": 2}),
    ("decompose --ring ZZ --n 2 --expr X1^2+X2^2",
     {"ring": "ZZ", "n": 2, "expr": "X1^2+X2^2"}),
    ("resultant-check --ring ZZ --P X^2-3*X+2 --Q X-4",
     {"ring": "ZZ", "P": "X^2-3*X+2", "Q": "X-4"}),
    ("push-norm --ring ZZ --to Zmod:5 --F X^2-3*X+2 --f X",
     {"ring": "ZZ", "F": "X^2-3*X+2", "f": "X", "to": "Zmod:5"}),
    ("push-norm --ring Poly:ZZ:T --eval 0 --F X-T --f X",
     {"ring": "Poly:ZZ:T", "F": "X-T", "f": "X", "eval": "0"}),
    ("membership --ring GF:5 --F X^2 --multset local-at:0",
     {"ring": "GF:5", "F": "X^2", "multset": "local-at:0"}),
    ("recover --ring ZZ --matrix 0,-2;1,3", {"ring": "ZZ", "matrix": "0,-2;1,3"}),
    ("addition --ring ZZ --n 2 --expr e1^2-2*e2",
     {"ring": "ZZ", "n": 2, "expr": "e1^2-2*e2"}),
    ("section --ring ZZ --n 1 --expr e1", {"ring": "ZZ", "n": 1, "expr": "e1"}),
    ("count --ring GF:3 --n 2 --multset gens:X",
     {"ring": "GF:3", "n": 2, "multset": "gens:X"}),
    ("selftest --seed 3", {"seed": 3}),
    ("selftest", {"seed": DEFAULT_SEED}),
])
def test_json_inputs_are_the_declared_flags_in_order(capsys, argv, inputs):
    code, payload = invoke_json(capsys, *argv.split())
    assert code == 0
    assert list(payload["inputs"].items()) == list(inputs.items())
