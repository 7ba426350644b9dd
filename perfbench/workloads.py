"""Seeded inputs for the four benchmark workloads.

A workload is a list of operations.  Each Op names a runner (a key of
RUNNERS) and its arguments, which are library objects or CLI argument
lists built from the seed alone; one pass runs every op once, in order.
The runners look each library function up on its module at call time,
so the tracer's wrappers are the functions the benchmark calls.

Shapes (degrees, rings, arities, census sizes, basis monomials) are
fixed per workload and the seed only picks coefficient values (see
_values), so every seed costs about the same and runs with different
seeds can be compared.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from fractions import Fraction
from random import Random
from typing import NamedTuple

from symmline import cli, matrices, norms, quotients, symmetric
from symmline import (
    GF,
    QQ,
    ZZ,
    MonicPoly,
    MultSet,
    Poly,
    PolyRing,
    SquareMatrix,
    SymElem,
    SymPoly1,
    Zmod,
)


class Op(NamedTuple):
    label: str
    kind: str
    args: tuple
    # objects the inputs were made from, for the oracle only
    source: dict | None = None


def _run_cli(argv):
    """One in-process CLI call; returns the parsed JSON without timings."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.run(list(argv) + ["--json"])
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    if code != 0:
        raise RuntimeError(f"exit status {code} for {argv}")
    payload = json.loads(out.getvalue())
    payload.pop("elapsed_ms")
    if isinstance(payload["result"], dict):
        payload["result"].pop("elapsed_ms", None)
    return payload


RUNNERS = {
    "norm": lambda f, F: norms.norm(f, F),
    "charpoly": lambda f, F: matrices.char_poly(matrices.mult_matrix(f, F)),
    "ressym": lambda P, Q: norms.resultant_symmetry_check(P, Q),
    "sym_ops_of": lambda f, n: symmetric.sym_ops_of(f, n),
    "mult_char_poly": lambda f, F: norms.mult_char_poly(f, F),
    "norm_symmetric": lambda f, F: norms.norm_symmetric(f, F),
    "decompose": lambda m: symmetric.decompose(m),
    "addition_map": lambda s: quotients.addition_map(s),
    "section_map": lambda t: quotients.section_map(t),
    "count_points": lambda q, n, ms: quotients.count_points(q, n, ms, workers=1),
    "cli": _run_cli,
}


def run_op(op: Op):
    return RUNNERS[op.kind](*op.args)


def render(result) -> str:
    """Canonical text of an op result, for digests and oracle checks."""
    if isinstance(result, dict):
        return json.dumps(result, sort_keys=True)
    if isinstance(result, list):
        return "[" + "; ".join(str(x) for x in result) + "]"
    return str(result)


# random values ------------------------------------------------------

def _values(ring, count: int, rng: Random) -> list:
    """`count` random values whose cost does not depend on the seed.

    Magnitudes are one fixed multiset, shuffled, with random signs:
    magnitudes drawn one by one from 1..9 made the cost of one ZZ op vary
    by a fifth from seed to seed.  Residues are units mod m, because a
    product of zero divisors can vanish and a vanishing term skips work;
    QQ values are k or k/2.
    """

    def shuffled(pool):
        out = [pool[k % len(pool)] for k in range(count)]
        rng.shuffle(out)
        return out

    if isinstance(ring, PolyRing):
        return [Poly(ring.base, [rng.randint(-3, 3), rng.choice((-1, 1))])
                for _ in range(count)]
    if ring.is_field and ring != QQ:
        return [rng.randrange(1, ring.modulus) for _ in range(count)]
    if hasattr(ring, "modulus"):
        return shuffled([k for k in range(ring.modulus)
                         if math.gcd(k, ring.modulus) == 1])
    signed = [rng.choice((-1, 1)) * m for m in shuffled(range(1, 10))]
    if ring == QQ:
        return [Fraction(k, d) for k, d in zip(signed, shuffled((1, 2)))]
    return signed


def _poly(ring, deg: int, rng: Random) -> Poly:
    return Poly(ring, _values(ring, deg + 1, rng))


def _monic(ring, deg: int, rng: Random) -> MonicPoly:
    return MonicPoly(Poly(ring, _values(ring, deg, rng) + [1]))


def _symelem(ring, arity: int, rng: Random, short=False) -> SymElem:
    """A constant plus e_1^2, e_2*e_n, e_(n-1) and e_n (plus e_1 and e_n
    when short), with random coefficients: the cost of decompose and of
    the addition map grows with these degrees, so they are fixed."""
    n = arity
    products = [[1], [n]] if short else [[1, 1], [2, n], [n - 1], [n]]
    coeffs = _values(ring, len(products) + 1, rng)
    out = SymElem.constant(ring, n, coeffs[0])
    for product, c in zip(products, coeffs[1:]):
        expo = [0] * n
        for i in product:
            expo[i - 1] += 1
        out = out + SymElem(ring, n, {tuple(expo): c})
    return out


# workloads ----------------------------------------------------------


def norm_grid(rng: Random, tiny: bool) -> list[Op]:
    degrees = (4,) if tiny else (4, 8, 12, 16)
    p = rng.choice((10007, 10009, 10037, 10039))
    ops = []
    for ring in (ZZ, Zmod(12), GF(p), QQ):
        for n in degrees:
            F = _monic(ring, n, rng)
            f = _poly(ring, n - 1, rng)
            Q = _monic(ring, n // 2, rng)
            tag = f"{ring.name} n={n}"
            ops.append(Op(f"norm {tag}", "norm", (f, F)))
            ops.append(Op(f"charpoly {tag}", "charpoly", (f, F)))
            ops.append(Op(f"ressym {tag}", "ressym", (F, Q)))
    tower = PolyRing(ZZ, "T")
    for n in (3,) if tiny else (3, 4):
        F = _monic(tower, n, rng)
        f = _poly(tower, n - 1, rng)
        Q = _monic(tower, 2, rng)
        ops.append(Op(f"norm {tower.name} n={n}", "norm", (f, F)))
        ops.append(Op(f"ressym {tower.name} n={n}", "ressym", (F, Q)))
    return ops


def symmetric_route(rng: Random, tiny: bool) -> list[Op]:
    # (arity, degree of f); arity 7 keeps f quadratic, since a degree-6
    # f alone costs more there than the rest of a pass
    shapes = [(3, 2)] if tiny else [(3, 2), (4, 3), (5, 4), (6, 5), (7, 2)]
    ops = []
    for ring in (ZZ, Zmod(12)):
        for n, deg in shapes:
            f = _poly(ring, deg, rng)
            F = _monic(ring, n, rng)
            tag = f"{ring.name} n={n}"
            ops.append(Op(f"sym_ops_of {tag}", "sym_ops_of", (f, n)))
            ops.append(Op(f"mult_char_poly {tag}", "mult_char_poly", (f, F)))
            ops.append(Op(f"norm_symmetric {tag}", "norm_symmetric", (f, F)))
            if n == 7:
                continue
            e = _symelem(ring, n, rng)
            ops.append(Op(f"decompose {tag}", "decompose", (e.expand(),), {"e": e}))
            s = _symelem(ring, n, rng)
            ops.append(Op(f"addition_map {tag}", "addition_map", (s,)))
            x = SymElem.one(ring, n - 1)
            t = SymPoly1(
                ring,
                n - 1,
                (_symelem(ring, n - 1, rng, True), _symelem(ring, n - 1, rng, True), x),
            )
            ops.append(Op(f"section_map {tag}", "section_map", (t,)))
    return ops


# (kind, q, n, number of generators); q^n runs from 9 to 2401
_CENSUS = (
    ("trivial", 3, 2, 0),
    ("trivial", 5, 4, 0),
    ("trivial", 3, 7, 0),
    ("all-nonzero", 7, 2, 0),
    ("all-nonzero", 3, 7, 0),
    ("all-nonzero", 7, 4, 0),
    ("local-at", 3, 4, 0),
    ("local-at", 5, 3, 0),
    ("local-at", 7, 3, 0),
    ("gens", 3, 2, 1),
    ("gens", 3, 4, 2),
    ("gens", 5, 3, 2),
    ("gens", 7, 3, 1),
    ("gens", 5, 4, 1),
)


def census(rng: Random, tiny: bool) -> list[Op]:
    ops = []
    for kind, q, n, ngens in _CENSUS:
        if tiny and q**n > 50:
            continue
        ring = GF(q)
        if kind == "trivial":
            ms = MultSet.trivial(ring)
        elif kind == "all-nonzero":
            ms = MultSet.all_nonzero(ring)
        elif kind == "local-at":
            ms = MultSet.local_at(ring.value(_values(ring, 1, rng)[0]))
        else:
            # a linear first generator passes a fixed share (1 - 1/q) of
            # candidates on to the second, so the cost is seed-independent
            gens = [_poly(ring, d, rng) for d in (1, 2)[:ngens]]
            ms = MultSet.generated(*gens)
        ops.append(
            Op(f"count {ms.describe()} q={q} n={n}", "count_points", (q, n, ms))
        )
    return ops


def _text(value) -> str:
    if isinstance(value, SquareMatrix):
        return ";".join(",".join(str(x) for x in row) for row in value.rows)
    if isinstance(value, MultSet):
        return value.describe()
    return str(value)


def _cli_op(verb: str, source: dict) -> Op:
    """A CLI call whose flags are the rendered objects; keys starting
    with an underscore are kept for the oracle but not passed."""
    argv = [verb]
    for flag, value in source.items():
        if not flag.startswith("_"):
            argv.append(f"--{flag}={_text(value)}")
    return Op(" ".join(["cli"] + argv[:2]), "cli", (tuple(argv),), source)


def cli_mix(rng: Random, tiny: bool) -> list[Op]:
    ops = []

    def add(verb, **source):
        ops.append(_cli_op(verb, source))

    for ring in (ZZ,) if tiny else (ZZ, Zmod(12)):
        r = ring.name
        add("norm", ring=r, F=_monic(ring, 4, rng), f=_poly(ring, 3, rng))
        add("charpoly", ring=r, F=_monic(ring, 4, rng), f=_poly(ring, 2, rng))
        add("sym-ops", ring=r, f=_poly(ring, 2, rng), n=4)
        e = _symelem(ring, 3, rng)
        add("decompose", ring=r, n=3, expr=e.expand(), _e=e)
        add("resultant-check", ring=r, P=_monic(ring, 3, rng), Q=_monic(ring, 2, rng))
        add("addition", ring=r, n=3, expr=_symelem(ring, 3, rng))
        t = SymPoly1(ring, 2, (_symelem(ring, 2, rng, True), SymElem.e(1, 2, ring)))
        add("section", ring=r, n=2, expr=t)
        rows = [_values(ring, 3, rng) for _ in range(3)]
        add("recover", ring=r, matrix=SquareMatrix(ring, rows))
    tower = PolyRing(ZZ, "T")
    add("push-norm", ring="ZZ", to=Zmod(12), F=_monic(ZZ, 3, rng), f=_poly(ZZ, 2, rng))
    add("push-norm", ring=tower.name, eval=rng.randint(-3, 3),
        F=_monic(tower, 2, rng), f=_poly(tower, 1, rng))
    for q, n in ((5, 3), (7, 2)):
        ring = GF(q)
        add("membership", ring=ring.name, F=_monic(ring, n, rng),
            multset=MultSet.generated(_poly(ring, 1, rng)))
        add("count", ring=ring.name, n=n,
            multset=MultSet.generated(_poly(ring, 1, rng)))
    return ops


WORKLOADS = {
    "norm-grid": norm_grid,
    "symmetric-route": symmetric_route,
    "census": census,
    "cli-mix": cli_mix,
}


def build(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The op list of one workload; the same seed gives the same ops."""
    rng = Random(f"perfbench/{workload}/{seed}")
    return WORKLOADS[workload](rng, tiny)
