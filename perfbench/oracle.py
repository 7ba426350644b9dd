"""Expected outputs of every op, each by a route independent of the op's.

expected(ops, seed) returns one canonical string per op (workloads.render),
computed outside any timed region:

  norm-grid        norms from the Sylvester determinant (Bareiss, in
                   symmline.oracles); characteristic polynomials by
                   interpolating N_F(y - f) at n integer points y.
                   Zmod:m and GF:p go through the ZZ lift, reduced mod m;
                   Poly:ZZ:T norms are checked at enough points T = t.
  symmetric-route  the determinant route (mult_matrix, char_poly, norm);
                   decompose against the element whose expand() built
                   the input; sym_ops_of and addition_map specialised at
                   random monic polynomials; section_map by applying the
                   addition map to its image.
  census           the zeta-function count: the t^n coefficient of
                   prod_P (1 - t^deg P) / (1 - q t) over the distinct
                   monic irreducible factors P of the generators, by
                   trial division on plain ints; q^n, 1 and 0 for the
                   trivial, local-at and all-nonzero sets.
  cli-mix          the library functions called directly on the objects
                   the CLI text was rendered from.

An op whose check fails gets MISMATCH, which no output equals.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from random import Random

from symmline import (
    QQ,
    ZZ,
    EvalMap,
    MonicPoly,
    Poly,
    PolyRing,
    RingHom,
    addition_map,
    apply_addition,
    char_poly,
    is_free_quotient,
    mult_matrix,
    norm,
    section_map,
    sym_ops_of,
)
from symmline.oracles import sylvester_resultant
from symmline.rings import ZmodRing

from workloads import render

MISMATCH = "<oracle check failed>"


def expected(ops, seed: int) -> list[str]:
    rng = Random(f"perfbench/oracle/{seed}")
    return [_EXPECT[op.kind](rng, op) for op in ops]


# resultants and characteristic polynomials ----------------------------


def _lift(f: Poly) -> Poly:
    """The ZZ polynomial with the same residues as coefficients."""
    return Poly(ZZ, [c.payload for c in f.coeffs])


def _resultant(F: MonicPoly, f: Poly):
    """Res(F, f) = N_F(f) by the Sylvester determinant, lifting residue
    rings to ZZ; a constant f has norm f^n."""
    if isinstance(F.ring, ZmodRing):
        return F.ring.value(_resultant(MonicPoly(_lift(F.poly)), _lift(f)).payload)
    if not f.degree:
        return f.coeff(0) ** F.degree
    return sylvester_resultant(F, f)


def _expect_norm(rng, op):
    f, F = op.args
    if isinstance(F.ring, PolyRing):
        return _tower_norm(f, F)
    return str(_resultant(F, f))


def _expect_true(rng, op):
    return "True"


def _tower_norm(f, F):
    """N_F(f) over ZZ[T], confirmed at more points T = t than its degree."""
    result = norm(f, F)
    d_f = max(c.payload.degree or 0 for c in f.coeffs)
    d_F = max(c.payload.degree or 0 for c in F.poly.coeffs)
    bound = F.degree * d_f + f.degree * d_F
    if (result.payload.degree or 0) > bound:
        return MISMATCH
    for t in range(bound + 1):
        at = RingHom.eval_tower(F.ring, t)
        if at(result) != _resultant(at.map_monic(F), at.map_poly(f)):
            return MISMATCH
    return str(result)


def _expect_charpoly(rng, op):
    """det(Y - M_f) = N_F(Y - f), interpolated at Y = 0..n-1 over ZZ or
    QQ and mapped back into the ring."""
    f, F = op.args
    base = QQ if F.ring == QQ else ZZ
    big = F if base == QQ else MonicPoly(_lift(F.poly))
    small = f if base == QQ else _lift(f)
    n = F.degree
    nodes = range(n)
    values = [
        _resultant(big, Poly.constant(base, y) - small).payload
        for y in nodes
    ]
    coeffs = _poly_from_roots(nodes)
    for k, v in zip(nodes, values):
        basis = _poly_from_roots([j for j in nodes if j != k])
        scale = Fraction(v)
        for j in nodes:
            if j != k:
                scale /= k - j
        for i, c in enumerate(basis):
            coeffs[i] += scale * c
    if base == ZZ:
        if any(c.denominator != 1 for c in coeffs):
            return MISMATCH
        coeffs = [int(c) for c in coeffs]
    return str(MonicPoly(Poly(F.ring, coeffs)))


def _poly_from_roots(roots) -> list:
    """Ascending coefficients of prod (Y - r), as Fractions."""
    out = [Fraction(1)]
    for r in roots:
        shifted = [Fraction(0)] + out
        for i, c in enumerate(out):
            shifted[i] -= r * c
        out = shifted
    return out


# symmetric route -------------------------------------------------------


def _random_monic(ring, deg, rng):
    if isinstance(ring, ZmodRing):
        coeffs = [rng.randrange(ring.modulus) for _ in range(deg)]
    else:
        coeffs = [rng.randint(-5, 5) for _ in range(deg)]
    return MonicPoly(Poly(ring, coeffs + [1]))


def _expect_sym_ops(rng, op):
    f, n = op.args
    ops = sym_ops_of(f, n)
    for _ in range(2):
        F = _random_monic(f.ring, n, rng)
        u = EvalMap(F)
        if tuple(u(s) for s in ops) != char_poly(mult_matrix(f, F)).signed_coeffs:
            return MISMATCH
    return render(ops)


def _expect_mult_char_poly(rng, op):
    return str(char_poly(mult_matrix(*op.args)))


def _expect_norm_symmetric(rng, op):
    return str(norm(*op.args))


def _expect_decompose(rng, op):
    """The input is e.expand(); the e-basis form is unique, so a correct
    decompose returns e itself."""
    e = op.source["e"]
    return str(e) if e.expand() == op.args[0] else MISMATCH


def _expect_addition(rng, op):
    """A(s) at (e' -> coefficients of G, X -> a) equals s at the
    coefficients of G(Y)*(Y - a): the roots of G plus the point a."""
    (s,) = op.args
    image = addition_map(s)
    ring, n = s.ring, s.arity
    for _ in range(2):
        G = _random_monic(ring, n - 1, rng)
        a = ring.value(rng.randrange(-5, 6))
        upstairs = MonicPoly(G.poly * Poly(ring, (-a, 1)))
        u = EvalMap(G)
        lhs = ring.zero
        for j, c in enumerate(image.coeffs):
            lhs = lhs + u(c) * a**j
        if lhs != EvalMap(upstairs)(s):
            return MISMATCH
    return str(image)


def _expect_section(rng, op):
    (t,) = op.args
    image = section_map(t)
    return str(image) if apply_addition(image) == t else MISMATCH


# census -----------------------------------------------------------------


def _expect_count(rng, op):
    return str(_count(*op.args))


def _count(q, n, ms) -> int:
    if ms.kind == "trivial":
        return q**n
    if ms.kind == "local-at":
        return 1
    if ms.kind == "all-nonzero":
        return 0
    return zeta_count(q, n, [[c.payload for c in g.coeffs] for g in ms.gens])


def zeta_count(q: int, n: int, gens) -> int:
    """Monic degree-n F over GF(q) coprime to every generator (ascending
    int coefficient lists): the t^n coefficient of
    prod_P (1 - t^deg P) / (1 - q t), P over the distinct monic
    irreducible factors of the generators."""
    degrees = []
    for d in range(1, max(len(g) for g in gens)):
        for tail in product(range(q), repeat=d):
            p = list(tail) + [1]
            if _irreducible(p, q) and any(_divides(p, g, q) for g in gens):
                degrees.append(d)
    numer = [1] + [0] * n
    for d in degrees:
        numer = [c - (numer[i - d] if i >= d else 0) for i, c in enumerate(numer)]
    return sum(numer[k] * q ** (n - k) for k in range(n + 1))


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _rem(a, b, q):
    """Remainder of a by b over GF(q); b has a nonzero leading term."""
    a = _trim([c % q for c in a])
    inv = pow(b[-1], -1, q)
    while len(a) >= len(b):
        c = a[-1] * inv % q
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bc) % q
        _trim(a)
    return a


def _divides(p, g, q) -> bool:
    return not _rem(list(g), p, q)


def _irreducible(p, q) -> bool:
    """Monic p has no monic factor of degree 1..deg(p)/2."""
    deg = len(p) - 1
    for d in range(1, deg // 2 + 1):
        for tail in product(range(q), repeat=d):
            if _divides(list(tail) + [1], p, q):
                return False
    return True


# cli-mix ----------------------------------------------------------------


def _expect_cli(rng, op):
    verb, *flags = op.args[0]
    inputs = dict(flag[2:].split("=", 1) for flag in flags)
    if "n" in inputs:
        inputs["n"] = int(inputs["n"])
    result, oracle = _CLI[verb](op.source)
    return render({"verb": verb, "inputs": inputs, "result": result, "oracle": oracle})


def _cli_norm(a):
    value = str(norm(a["f"], a["F"]))
    return value, {"matrix": value, "symmetric": value}


def _cli_charpoly(a):
    value = str(char_poly(mult_matrix(a["f"], a["F"])))
    return value, {"matrix": value}


def _cli_resultant(a):
    P, Q = a["P"], a["Q"]
    oracle = {
        "N_P(Q)": str(norm(Q.poly, P)),
        "N_Q(P)": str(norm(P.poly, Q)),
        "sylvester_N_P(Q)": str(sylvester_resultant(P, Q.poly)),
    }
    return True, oracle


def _cli_push_norm(a):
    F, f = a["F"], a["f"]
    if "eval" in a:
        hom = RingHom.eval_tower(F.ring, a["eval"])
    else:
        hom = RingHom.int_reduce(a["to"])
    pushed = hom(norm(f, F))
    recomputed = norm(hom.map_poly(f), hom.map_monic(F))
    return {"pushed": str(pushed), "recomputed": str(recomputed)}, {"equal": True}


def _cli_membership(a):
    member = is_free_quotient(a["F"], a["multset"])
    return member, {"exhaustive_search": member}


def _cli_recover(a):
    value = str(char_poly(a["matrix"]))
    return value, {"cofactor": value}


def _cli_count(a):
    ms, n = a["multset"], a["n"]
    q = ms.ring.modulus
    record = {"q": q, "n": n, "multset": ms.describe(), "count": _count(q, n, ms)}
    return record, None


_CLI = {
    "norm": _cli_norm,
    "charpoly": _cli_charpoly,
    "sym-ops": lambda a: ([str(s) for s in sym_ops_of(a["f"], a["n"])], None),
    "decompose": lambda a: (str(a["_e"]), {"expand_back_equal": True}),
    "resultant-check": _cli_resultant,
    "push-norm": _cli_push_norm,
    "membership": _cli_membership,
    "recover": _cli_recover,
    "addition": lambda a: (str(addition_map(a["expr"])), None),
    "section": lambda a: (str(section_map(a["expr"])), None),
    "count": _cli_count,
}

_EXPECT = {
    "norm": _expect_norm,
    "charpoly": _expect_charpoly,
    "ressym": _expect_true,
    "sym_ops_of": _expect_sym_ops,
    "mult_char_poly": _expect_mult_char_poly,
    "norm_symmetric": _expect_norm_symmetric,
    "decompose": _expect_decompose,
    "addition_map": _expect_addition,
    "section_map": _expect_section,
    "count_points": _expect_count,
    "cli": _expect_cli,
}
