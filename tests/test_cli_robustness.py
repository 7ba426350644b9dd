"""The CLI's failure contract on hostile input, as a property.

Random token strings, grammar-built expressions, deep nesting and long
sums go through symmline.cli.run on every verb but selftest, each value
passed as --flag=value.  Every call must exit 0; or exit 1 with a
SymmlineError subclass name or ValueError, or 2 with a parse error,
which is the documented contract; or be refused by argparse with
SystemExit(2).  No other exception may escape, and each call must
return within 2 s.

The examples are drawn under the derandomized profile of conftest.py.
Exponents and the census size q^n stay small: the cost of a valid
census or of a large determinant is a matter of the work budgets, not
of this contract.
"""

import argparse
import contextlib
import io
import time

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st

from symmline import errors
from symmline.cli import build_parser, run
from symmline.errors import ARITY_BOUND

TYPED = {
    name for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.SymmlineError)
} | {"ValueError"}

TOKENS = [
    "X", "X1", "X2", "X3", "e1", "e2", "e3", "T", "S", "Y", "0", "1", "2",
    "3", "12", "+", "-", "*", "^", "(", ")", " ", "$", ",", ";", ":",
]

token_text = st.lists(st.sampled_from(TOKENS), max_size=24).map("".join)


def _grammar(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", " - ", "*"]), inner).map("".join),
        inner.map(lambda e: "-" + e),
        inner.map(lambda e: f"({e})"),
        st.tuples(inner, st.integers(0, 3)).map(lambda p: f"({p[0]})^{p[1]}"),
    )


def expressions(names):
    """Token strings, expressions built by the grammar over names and
    small integers, and deep nesting, long sums and long unary chains."""
    sizes = st.integers(1, 3_000)
    leaves = st.sampled_from(names + ["T", "1", "2", "3"])
    return st.one_of(
        token_text,
        st.recursive(leaves, _grammar, max_leaves=10),
        sizes.map(lambda k: "(" * k + "X" + ")" * k),
        sizes.map(lambda k: "+".join(["X"] * k)),
        sizes.map(lambda k: "-" * k + "X"),
    )


ring_specs = st.sampled_from([
    "ZZ", "QQ", "Zmod:12", "Zmod:4", "GF:3", "GF:5", "GF:4", "Zmod:1",
    "Poly:ZZ:T", "Poly:GF:5:T", "Poly:Poly:ZZ:T:S", "Poly:Poly:ZZ:T:T",
    "Poly:" * (ARITY_BOUND + 1) + "ZZ" + ":T" * (ARITY_BOUND + 1),
])
ring_texts = st.lists(
    st.sampled_from(["Poly", "ZZ", "GF", "T", ":", "5", " "]), max_size=12
).map("".join)
rings = st.one_of(ring_specs, ring_specs, ring_specs, ring_texts)  # 3 in 4 named

arities = st.one_of(
    st.integers(-1, 5).map(str),
    st.sampled_from([str(ARITY_BOUND + 1), "99999999", "x", ""]),
)


def multsets(expr):
    return st.one_of(
        st.sampled_from(["trivial", "all-nonzero", "gens:", "local-at:"]),
        st.lists(expr, min_size=1, max_size=3).map(lambda g: "gens:" + ",".join(g)),
        expr.map(lambda e: "local-at:" + e),
        token_text,
    )


def matrices(expr):
    rows = st.lists(st.lists(expr, min_size=1, max_size=3), min_size=1, max_size=3)
    return st.one_of(rows.map(lambda r: ";".join(map(",".join, r))), token_text)


UNIVARIATE = ["X"]
# verb -> (the names its expressions use, its flags besides --ring)
VERBS = {
    "norm": (UNIVARIATE, ("F", "f")),
    "charpoly": (UNIVARIATE, ("F", "f")),
    "sym-ops": (UNIVARIATE, ("f", "n")),
    "decompose": (["X1", "X2", "X3"], ("n", "expr")),
    "resultant-check": (UNIVARIATE, ("P", "Q")),
    "push-norm": (UNIVARIATE, ("F", "f")),
    "membership": (UNIVARIATE, ("F", "multset")),
    "recover": ([], ("matrix",)),
    "addition": (["e1", "e2", "e3"], ("n", "expr")),
    "section": (["e1", "e2", "X"], ("n", "expr")),
    "count": (UNIVARIATE, ("n", "multset")),
}


def _flag_values(flag, names):
    expr = expressions(names)
    if flag == "n":
        return arities
    if flag == "multset":
        return multsets(expr)
    if flag == "matrix":
        return matrices(expr)
    if flag == "to":
        return rings
    return expr


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            code = None
    return code, err.getvalue(), time.perf_counter() - start


@pytest.mark.parametrize("verb", sorted(VERBS))
@given(data=st.data())
def test_every_verb_keeps_the_failure_contract(verb, data):
    names, flags = VERBS[verb]
    if verb == "push-norm":
        flags += (data.draw(st.sampled_from(["to", "eval"])),)
    argv = [verb, f"--ring={data.draw(rings)}"]
    argv += [f"--{flag}={data.draw(_flag_values(flag, names))}" for flag in flags]
    if verb == "count":
        # a valid census is q^n candidates; keep it to a few thousand
        argv[1] = f"--ring={data.draw(st.sampled_from(['GF:3', 'GF:5', 'ZZ']))}"
        argv[2] = f"--n={data.draw(st.integers(-1, 5))}"
    code, err, seconds = _call(argv)
    assert seconds < 2.0, argv
    if code == 1:
        assert err.split(":", 1)[0] in TYPED, (argv, err)
    elif code == 2:
        assert err.startswith("parse error: "), (argv, err)
    else:
        assert code in (0, None), (argv, code, err)


def _bare_double_dash_calls():
    """One call per flag of every verb, as build_parser() declares them:
    that flag given as --flag=-- and every other flag as 1."""
    sub = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    calls = []
    for verb, parser in sub.choices.items():
        flags = [
            a.option_strings[0] for a in parser._actions
            if a.option_strings[0] not in ("-h", "--json")
        ]
        for bare in flags:
            calls.append(
                [verb] + [f"{flag}={'--' if flag == bare else '1'}" for flag in flags]
            )
    return calls


@pytest.mark.parametrize("argv", _bare_double_dash_calls())
def test_a_bare_double_dash_value_is_refused(argv):
    # argparse drops such a value and stores an empty list, which no
    # handler could read
    code, err, _ = _call(argv)
    assert code is None
    assert "an option value may not be '--'" in err


@pytest.mark.parametrize(
    "hom", [["--eval=2", "--to=Zmod:5"], []], ids=["both", "neither"]
)
def test_push_norm_takes_exactly_one_hom(hom):
    code, err, _ = _call(["push-norm", "--ring=Poly:ZZ:T", "--F=X-T", "--f=X"] + hom)
    assert code == 1
    assert err == (
        "SymmlineError: push-norm needs exactly one of --to RING and --eval POINT\n"
    )
