"""Every production route has an oracle that bites.

Each row perturbs one route (adds one, negates, doubles, or flips the
verdict) in every symmline namespace that binds it, then runs the
selftest checks the row names, under their selftest seeds; every one of them must
fail.  Intact, every check passes under those seeds (run_selftest, in
test_invariants).  Each row starts from empty _symbasis tables and
expansion cache.  A row naming a single check is a route with a single
detector.
"""

import sys
from random import Random

import pytest

from symmline import _symbasis, matrices, multipoly, norms, quotients, symmetric
from symmline.matrices import SquareMatrix
from symmline.poly import MonicPoly, Poly
from symmline.quotients import MultSet
from symmline.selftest import CHECKS, DEFAULT_SEED


def _plus_one_last(coeffs, a, one, zero=0, modulus=0):
    coeffs[-1] = (coeffs[-1] + one) % modulus if modulus else coeffs[-1] + one
    return coeffs


def _plus_one_lowest(expansion, n, mu):
    j = min(expansion)
    return {**expansion, j: expansion[j] + 1}


def _plus_one_corner(columns, rem, fc):
    e, d, vs = columns
    vs[0][0] += 1
    return columns


def _doubled(rep):
    return {lam: c + c for lam, c in rep.items()}


# (module, route, perturbation of (result, *arguments), checks that fail,
# and a test id where the route has another row whose id is its name)
ROWS = [
    (matrices, "_bareiss_int", lambda d, a: d + 1,
     "det-routes norm-multiplicativity norm-oracle sylvester-oracle "
     "split-root-oracle norm-constant-term resultant-symmetry push-norm"),
    (matrices, "_berkowitz", _plus_one_last,
     "thm24-equivalence det-routes norm-multiplicativity norm-oracle "
     "split-root-oracle norm-constant-term push-norm "
     "criterion-oracle-agreement recover-similarity companion-roundtrip"),
    (matrices, "_hessenberg", lambda c, a, p: _plus_one_last(c, a, 1, modulus=p),
     "thm24-equivalence split-root-oracle push-norm criterion-oracle-agreement "
     "recover-similarity companion-roundtrip coprimality census-counts"),
    (matrices, "_rational_columns", _plus_one_corner,
     "thm24-equivalence norm-multiplicativity"),
    (matrices, "mult_matrix",
     lambda m, f, F: m + SquareMatrix.identity(m.ring, m.n),
     "thm24-equivalence norm-multiplicativity norm-oracle sylvester-oracle "
     "split-root-oracle norm-constant-term resultant-symmetry "
     "criterion-oracle-agreement recover-similarity companion-roundtrip "
     "coprimality closure-insensitivity census-counts"),
    (norms, "norm_symmetric", lambda v, f, F: v + 1,
     "norm-oracle split-root-oracle"),
    (_symbasis, "elem_monomial", _plus_one_lowest,
     "thm24-equivalence norm-oracle split-root-oracle push-norm section-identity "
     "addition-kernel addition-diagonal symmetric-roundtrip sym-ops-specialize"),
    (_symbasis, "decompose_rep",
     lambda out, rep, n, ring: {mu: ring._neg(c) for mu, c in out.items()},
     "thm24-equivalence section-identity addition-kernel addition-diagonal "
     "symmetric-roundtrip sym-ops-specialize"),
    (_symbasis, "evaluate_reps",
     lambda values, reps, n, ring, images: [v + 1 for v in values],
     "thm24-equivalence norm-oracle split-root-oracle push-norm"),
    (_symbasis, "diagonal_rep", lambda rep, fp, n, ring: _doubled(rep),
     "norm-oracle split-root-oracle"),
    (_symbasis, "sym_ops_reps", lambda reps, fp, n, ring: list(map(_doubled, reps)),
     "thm24-equivalence section-identity addition-kernel addition-diagonal "
     "sym-ops-specialize"),
    (quotients, "is_free_quotient", lambda ok, F, u: not ok,
     "criterion-oracle-agreement census-counts"),
    (quotients, "count_points", lambda k, *args: k + 1,
     "coprimality census-counts universal-family"),
    (quotients, "_coprime_blocks",
     lambda blocks, u: [MultSet.generated(g) for b in blocks for g in b.gens],
     "closure-insensitivity census-counts"),
    (quotients, "_coprime_blocks", lambda blocks, u: blocks[1:],
     "coprimality closure-insensitivity census-counts"),
    # census-counts and universal-family send every monic F to a local-at
    # set; free_quotient_oracle does not cover local-at membership
    (quotients, "_is_power_of_linear", lambda ok, F, a: not ok,
     "census-counts universal-family"),
    # one evaluation kernel behind MultiPoly.evaluate, SymElem.substitute
    # and expand, SymPoly1.expand and the flat addition and section maps
    (multipoly, "_sparse_eval",
     lambda v, ring, terms, values, lift, add, mul: add(v, v) if len(terms) > 3 else v,
     "thm24-equivalence addition-homomorphism section-identity section-partial "
     "addition-diagonal symmetric-roundtrip sym-ops-specialize"),
    # a single detector: decompose is the only caller, and
    # symmetric-roundtrip the only check that decomposes; it decomposes
    # symmetric expansions and near misses, so it bites both ways
    (multipoly, "is_symmetric", lambda ok, m: not ok, "symmetric-roundtrip"),
    (multipoly, "is_symmetric", lambda ok, m: True, "symmetric-roundtrip",
     "is_symmetric-always-true"),
    # a single detector: addition-kernel's generic polynomial is killed
    # whatever its sign, so only the section's reduction modulo it sees one
    (symmetric, "sym_char_poly", lambda t, f, n: -t, "section-identity"),
    # negating the shared substitution cancels in section-identity and
    # section-partial, which compose the section with the addition map
    (quotients, "_substitute", lambda t, *args: -t,
     "addition-homomorphism addition-diagonal"),
    (quotients, "addition_map", lambda t, s: -t,
     "addition-homomorphism addition-diagonal"),
    (quotients, "apply_addition", lambda t, s: -t, "section-identity section-partial"),
    (quotients, "section_map", lambda t, s: -t, "section-identity section-partial"),
    (quotients, "recover_monic",
     lambda F, theta: MonicPoly(F + Poly(F.ring, [1])),
     "recover-similarity companion-roundtrip"),
    (norms, "push_norm", lambda ab, *args: (ab[0] + 1, ab[1]), "push-norm"),
    (symmetric, "sym_ops_of", lambda ops, f, n: [-s for s in ops],
     "thm24-equivalence section-identity addition-kernel addition-diagonal "
     "sym-ops-specialize"),
]


def _passes(name):
    try:
        dict(CHECKS)[name](Random(f"{DEFAULT_SEED}:{name}"))
    except Exception:
        return False
    return True


@pytest.mark.parametrize(
    "module, route, perturb, checks",
    [row[:4] for row in ROWS],
    ids=[row[-1] if len(row) > 4 else row[1] for row in ROWS],
)
def test_route_has_an_oracle(monkeypatch, module, route, perturb, checks):
    # fresh expansion tables and cache: a warm cache would hide a
    # perturbed expansion kernel, and must not keep what it builds
    monkeypatch.setattr(_symbasis, "_TABLES", {})
    monkeypatch.setattr(_symbasis, "_ELEM_CACHE", {})
    original = getattr(module, route)

    def perturbed(*args, **kwargs):
        return perturb(original(*args, **kwargs), *args, **kwargs)

    for name, namespace in list(sys.modules.items()):
        if name.partition(".")[0] == "symmline":
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    monkeypatch.setattr(namespace, attr, perturbed)
    assert [name for name in checks.split() if _passes(name)] == []
