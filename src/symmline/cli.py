"""Command-line interface.

Every verb prints human-readable text by default, or one JSON object
with stable field names {verb, inputs, result, oracle, elapsed_ms}
under --json.  Exit status: 0 success, 1 domain error (the library
error class name is printed), 2 parse error.

A verb declares its flags once, in _new_parser; run reads their names
from the parsed Namespace to fill --json's inputs and to refuse a bare
'--' value.  run parses --ring before the handler runs, which takes
(args, ring).

A process has one argument parser, built by the first build_parser()
call and returned by every later one; nothing builds it at import.
parse_args never mutates it, so each call's state lives only in the
Namespace it returns, and in-process callers of run() share the parser.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import (
    ParseError,
    SymmlineError,
    UnsupportedRingError,
    _agree,
    _check_arity,
)
from .quotients import (
    MultSet,
    addition_map,
    count_points,
    free_quotient_oracle,
    is_free_quotient,
    recover_monic,
    section_map,
)
from .homs import RingHom
from .matrices import SquareMatrix, char_poly, mult_matrix
from .multipoly import MultiPoly
# norm is bound here for the benchmark's tracer test, which reads cli.norm
from .norms import _resultant_symmetry, mult_char_poly, norm, norm_checked, push_norm
from .oracles import charpoly_cofactor, sylvester_resultant
from .parsing import (
    parse_multipoly,
    parse_poly,
    parse_ring,
    parse_scalar,
    parse_symelem,
    parse_sympoly1,
)
from .poly import MonicPoly, PolyRing
from .rings import PrimeField, ZmodRing, ZZ
from .selftest import DEFAULT_SEED, run_selftest
from .symmetric import decompose, sym_ops_of


def _monic(text: str, ring) -> MonicPoly:
    p = parse_poly(text, ring)
    try:
        return MonicPoly(p)
    except ValueError as exc:
        raise SymmlineError(str(exc)) from exc


def parse_multset(text: str, ring) -> MultSet:
    t = text.strip()
    if t == "trivial":
        return MultSet.trivial(ring)
    if t == "all-nonzero":
        return MultSet.all_nonzero(ring)
    if t.startswith("gens:"):
        parts = [p for p in t[5:].split(",") if p.strip()]
        if not parts:
            raise ParseError("gens: needs at least one polynomial")
        return MultSet.generated(*(parse_poly(p, ring) for p in parts))
    if t.startswith("local-at:"):
        return MultSet.local_at(parse_scalar(t[9:], ring))
    raise ParseError(f"unknown multiplicative set {text!r}")


def _parse_matrix(text: str, ring) -> SquareMatrix:
    """The matrix 'a,b;c,d'.  Its size is checked against ARITY_BOUND
    before any entry is parsed: recover returns a monic F of that degree,
    and ARITY_BOUND caps deg F for norm, charpoly and push-norm."""
    texts = []
    for row_text in text.split(";"):
        entries = [e for e in row_text.split(",") if e.strip()]
        if not entries:
            raise ParseError("empty matrix row")
        texts.append(entries)
    size = max(len(texts), max(len(entries) for entries in texts))
    _check_arity(size, "matrix size")
    rows = [[parse_scalar(e, ring) for e in entries] for entries in texts]
    return SquareMatrix(ring, rows)


def _cmd_norm(args, ring):
    modulus = _monic(args.F, ring)
    value = str(norm_checked(parse_poly(args.f, ring), modulus))
    return (
        value,
        {"matrix": value, "symmetric": value},
        [f"norm = {value}", "matrix and symmetric routes agree"],
    )


def _cmd_charpoly(args, ring):
    modulus = _monic(args.F, ring)
    f = parse_poly(args.f, ring)
    symbolic = mult_char_poly(f, modulus)
    via_matrix = _agree(
        char_poly(mult_matrix(f, modulus)), symbolic, "characteristic polynomial routes"
    )
    return (
        str(symbolic),
        {"matrix": str(via_matrix)},
        [f"charpoly = {symbolic}", "matrix route agrees"],
    )


def _cmd_sym_ops(args, ring):
    f = parse_poly(args.f, ring)
    ops = sym_ops_of(f, args.n)
    result = [str(s) for s in ops]
    lines = [f"s_{i} = {s}" for i, s in enumerate(result, start=1)]
    return result, None, lines


def _cmd_decompose(args, ring):
    m = parse_multipoly(args.expr, ring, args.n)
    s = decompose(m)
    _agree(s.expand(), m, "the expanded decomposition and the input")
    return (
        str(s),
        {"expand_back_equal": True},
        [f"decomposition = {s}", "expands back to the input"],
    )


def _cmd_resultant_check(args, ring):
    first = _monic(args.P, ring)
    second = _monic(args.Q, ring)
    # the determinants below grow like n^3 (ZZ, QQ) or n^4 in the degrees
    _check_arity(first.degree, "deg P")
    _check_arity(second.degree, "deg Q")
    holds, lhs, rhs = _resultant_symmetry(first, second)
    oracle = {
        "N_P(Q)": str(lhs),
        "N_Q(P)": str(rhs),
        "sylvester_N_P(Q)": str(sylvester_resultant(first, second)),
    }
    lines = [
        f"symmetry holds: {_bool(holds)}",
        f"N_P(Q) = {lhs}, N_Q(P) = {rhs},"
        f" sign (-1)^(pq) = {'-1' if (first.degree * second.degree) % 2 else '1'}",
    ]
    return holds, oracle, lines


def _make_hom(args, ring) -> RingHom:
    if (args.eval is None) == (args.to is None):
        raise SymmlineError("push-norm needs exactly one of --to RING and --eval POINT")
    if args.eval is not None:
        if not isinstance(ring, PolyRing):
            raise UnsupportedRingError(
                f"--eval needs a polynomial coefficient ring, got {ring.name}"
            )
        return RingHom.eval_tower(ring, parse_scalar(args.eval, ring.base))
    target = parse_ring(args.to)
    if target is ring:
        return RingHom.identity(ring)
    if ring is ZZ and isinstance(target, ZmodRing):
        return RingHom.int_reduce(target)
    if isinstance(ring, ZmodRing) and isinstance(target, ZmodRing):
        return RingHom.mod_reduce(ring, target)
    raise UnsupportedRingError(
        f"no reduction rule from {ring.name} to {target.name}"
    )


def _cmd_push_norm(args, ring):
    hom = _make_hom(args, ring)
    modulus = _monic(args.F, ring)
    f = parse_poly(args.f, ring)
    pushed, recomputed = push_norm(hom, f, modulus)
    _agree(recomputed, pushed, "pushed norm and norm after base change")
    return (
        {"pushed": str(pushed), "recomputed": str(recomputed)},
        {"equal": True},
        [
            f"hom: {hom.describe()}",
            f"pushed norm = {pushed}, norm after base change = {recomputed}",
        ],
    )


def _cmd_membership(args, ring):
    modulus = _monic(args.F, ring)
    _check_arity(modulus.degree, "deg F")
    mult_set = parse_multset(args.multset, ring)
    member = is_free_quotient(modulus, mult_set)
    oracle = None
    if isinstance(ring, ZmodRing) and mult_set.kind == "generated":
        if ring.modulus ** modulus.degree <= 4096:
            agreed = _agree(
                free_quotient_oracle(modulus, mult_set),
                member,
                "membership criterion and exhaustive oracle",
            )
            oracle = {"exhaustive_search": agreed}
    lines = [f"free quotient: {_bool(member)}"]
    if oracle is not None:
        lines.append("exhaustive-search oracle agrees")
    return member, oracle, lines


def _cmd_recover(args, ring):
    theta = _parse_matrix(args.matrix, ring)
    result = recover_monic(theta)
    oracle = None
    if theta.n <= 4:
        cross = _agree(charpoly_cofactor(theta), result, "cofactor and char_poly")
        oracle = {"cofactor": str(cross)}
    lines = [f"monic generator = {result}"]
    return str(result), oracle, lines


def _cmd_addition(args, ring):
    s = parse_symelem(args.expr, ring, args.n)
    image = addition_map(s)
    return str(image), None, [f"image = {image}"]


def _cmd_section(args, ring):
    t = parse_sympoly1(args.expr, ring, args.n)
    image = section_map(t)
    return str(image), None, [f"image = {image}"]


def _cmd_count(args, ring):
    if not isinstance(ring, PrimeField):
        raise UnsupportedRingError(
            f"count needs a prime field GF:q, got {ring.name}"
        )
    mult_set = parse_multset(args.multset, ring)
    started = time.perf_counter()
    value = count_points(ring.modulus, args.n, mult_set)
    elapsed = (time.perf_counter() - started) * 1000.0
    record = {
        "q": ring.modulus,
        "n": args.n,
        "multset": mult_set.describe(),
        "count": value,
        "elapsed_ms": round(elapsed, 3),
    }
    lines = [
        f"count = {value} (q={ring.modulus}, n={args.n},"
        f" multset={mult_set.describe()})"
    ]
    return record, None, lines


def _cmd_selftest(args, _ring):
    results = run_selftest(args.seed)
    failures = [name for name, ok, _ in results if not ok]
    lines = [
        f"{'ok  ' if ok else 'FAIL'} {name} -- {detail}"
        for name, ok, detail in results
    ]
    lines.append(
        f"{len(results) - len(failures)}/{len(results)} checks passed"
        + (f"; FAILED: {', '.join(failures)}" if failures else "")
    )
    payload = [
        {"name": name, "ok": ok, "detail": detail}
        for name, ok, detail in results
    ]
    return payload, None, lines, bool(failures)


def _bool(b: bool) -> str:
    return "true" if b else "false"


_PARSER = None


def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call."""
    global _PARSER
    if _PARSER is None:
        _PARSER = _new_parser()
    return _PARSER


def _new_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symmline",
        description="Exact symmetric-tensor algebra on the line: norms,"
        " resultants, and point counts of free quotients.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, summary,
            ring=(str, True, "ring spec, e.g. ZZ, QQ, Zmod:12, GF:5, Poly:ZZ:T"),
            **flags):
        if ring is not None:
            flags = {"ring": ring, **flags}
        p = sub.add_parser(name, help=summary, description=summary)
        for flag, (kind, required, help_text) in flags.items():
            p.add_argument(
                f"--{flag}", type=kind, required=required, help=help_text
            )
        p.add_argument("--json", action="store_true", help="emit one JSON object")
        p.set_defaults(handler=fn, flags=tuple(flags))
        return p

    add("norm", _cmd_norm,
        "norm of f on the quotient by F, both routes compared",
        F=(str, True, "monic modulus"), f=(str, True, "argument polynomial"))
    add("charpoly", _cmd_charpoly,
        "characteristic polynomial of multiplication-by-f modulo F",
        F=(str, True, "monic modulus"), f=(str, True, "argument polynomial"))
    add("sym-ops", _cmd_sym_ops,
        "symmetric operators s_1..s_n of f in the elementary basis",
        f=(str, True, "polynomial"), n=(int, True, "arity"))
    add("decompose", _cmd_decompose,
        "write a symmetric polynomial in the elementary basis",
        n=(int, True, "number of variables"),
        expr=(str, True, "symmetric polynomial in X1..Xn"))
    add("resultant-check", _cmd_resultant_check,
        "verify the sign law relating the two norms of a monic pair",
        P=(str, True, "monic polynomial"), Q=(str, True, "monic polynomial"))
    add("push-norm", _cmd_push_norm,
        "compare the norm pushed through a homomorphism with the norm "
        "after base change",
        F=(str, True, "monic modulus"), f=(str, True, "argument polynomial"),
        to=(str, False, "target ring for a reduction rule"),
        eval=(str, False, "evaluation point for a tower variable"))
    add("membership", _cmd_membership,
        "decide whether F generates a free quotient of the localization",
        F=(str, True, "monic modulus"),
        multset=(str, True, "trivial | gens:p[,p..] | local-at:a | all-nonzero"))
    add("recover", _cmd_recover,
        "recover the monic generator from the matrix of the X-action",
        matrix=(str, True, "rows 'a,b;c,d' acting as X"))
    add("addition", _cmd_addition,
        "apply the addition map, lowering the symmetric arity by one",
        n=(int, True, "source arity"),
        expr=(str, True, "element in e1..en"))
    add("section", _cmd_section,
        "apply the section of the addition map, raising the arity",
        n=(int, True, "source arity"),
        expr=(str, True, "polynomial in e1..en and X"))
    add("count", _cmd_count,
        "count monic degree-n polynomials generating free quotients",
        n=(int, True, "number of points"),
        multset=(str, True, "trivial | gens:p[,p..] | local-at:a | all-nonzero"))
    selftest = add("selftest", _cmd_selftest,
                   "run every named invariant check with a fixed seed",
                   ring=None, seed=(int, False, f"RNG seed (default {DEFAULT_SEED})"))
    selftest.set_defaults(seed=DEFAULT_SEED)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    values = vars(args)
    inputs = {f: values[f] for f in args.flags if values[f] is not None}
    if [] in inputs.values():
        # argparse (Python 3.11 at least) stores --flag=-- as an empty list
        parser.error("an option value may not be '--'")
    started = time.perf_counter()
    try:
        ring = parse_ring(args.ring) if "ring" in args.flags else None
        outcome = args.handler(args, ring)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (SymmlineError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    elapsed = (time.perf_counter() - started) * 1000.0
    result, oracle, lines = outcome[0], outcome[1], outcome[2]
    failed = outcome[3] if len(outcome) > 3 else False
    if args.json:
        print(
            json.dumps(
                {
                    "verb": args.verb,
                    "inputs": inputs,
                    "result": result,
                    "oracle": oracle,
                    "elapsed_ms": round(elapsed, 3),
                }
            )
        )
    else:
        for line in lines:
            print(line)
    return 1 if failed else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
