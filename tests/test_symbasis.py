"""The e-monomial expansions against products of elementary polynomials,
the indexed decomposition kernel against the lead-by-lead heap
reduction it replaced, the evaluation kernel against decomposition
followed by EvalMap, the symmetric operators and the diagonal tensor
against the brute-force product over the variables, and the arity
budget of the _symbasis kernels."""

import heapq
import inspect
import operator
import sys
from fractions import Fraction
from functools import lru_cache
from random import Random

import pytest

from symmline import _symbasis
from symmline.errors import ARITY_BOUND, InvariantViolationError, OracleInfeasibleError
from symmline.multipoly import MultiPoly, elementary
from symmline.norms import EvalMap, norm, norm_symmetric
from symmline.poly import MonicPoly, Poly, PolyRing
from symmline.rings import GF, QQ, RingValue, Zmod, ZmodRing, ZZ
from symmline.sampling import random_monic, random_poly, random_value
from symmline.symmetric import SymElem, decompose, diagonal_tensor, sym_ops_of
from test_symmetric import product_over_variables

RINGS = [ZZ, QQ, Zmod(4), Zmod(8), Zmod(12), GF(3), PolyRing(ZZ, "T")]


@lru_cache(maxsize=None)
def _reference_product(n, mu):
    """e_1^mu1 * ... * e_n^mun as a MultiPoly, a product of
    multipoly.elementary polynomials."""
    if not any(mu):
        return MultiPoly.constant(ZZ, n, 1)
    i = max(k for k in range(n) if mu[k])
    smaller = mu[:i] + (mu[i] - 1,) + mu[i + 1 :]
    return _reference_product(n, smaller) * elementary(i + 1, n, ZZ)


@lru_cache(maxsize=None)
def _reference_expansion(n, mu):
    """e^mu keyed by partition: the coefficients of the full product at
    its sorted exponents, built without the kernel's tables, cache or
    product rule."""
    return {
        expo: c
        for expo, c in _reference_product(n, mu)._payload_terms.items()
        if list(expo) == sorted(expo, reverse=True)
    }


def _exponents(n, d):
    """Every e-exponent tuple mu at arity n of degree sum k*mu_k <= d."""
    if n == 0:
        yield ()
        return
    for rest in _exponents(n - 1, d):
        used = sum(k * m for k, m in enumerate(rest, 1))
        for last in range((d - used) // n + 1):
            yield rest + (last,)


def _kernel_expansion(n, mu):
    """elem_monomial(n, mu) keyed by partition."""
    expansion = _symbasis.elem_monomial(n, mu)
    parts = _symbasis._TABLES[(n, sum(k * m for k, m in enumerate(mu, 1)))].parts
    return {parts[j]: c for j, c in expansion.items()}


def test_expansions_match_products_of_elementary_polynomials(monkeypatch):
    # fresh tables and cache, so the kernel builds every expansion here
    monkeypatch.setattr(_symbasis, "_TABLES", {})
    monkeypatch.setattr(_symbasis, "_ELEM_CACHE", {})
    for n in range(1, 6):
        for mu in _exponents(n, 8):
            assert _kernel_expansion(n, mu) == _reference_expansion(n, mu), (n, mu)
    rng = Random(2207)
    for n, d in ((7, 9), (8, 8)):
        mus = list(_exponents(n, d))
        for mu in rng.sample(mus, 6) + [max(mus)]:
            assert _kernel_expansion(n, mu) == _reference_expansion(n, mu), (n, mu)


def reference_decompose_rep(rep, n, ring):
    """The heap reduction: pop the lex-largest remaining partition,
    reduce it mod m, emit it and subtract its e-monomial."""
    m = ring.modulus if isinstance(ring, ZmodRing) else 0
    embed = ring._from_int if isinstance(ring, PolyRing) else None
    zero = ring._from_int(0)
    rem = dict(rep)
    heap = [tuple(map(operator.neg, k)) for k in rem]
    heapq.heapify(heap)
    out = {}
    while heap:
        lam = tuple(map(operator.neg, heapq.heappop(heap)))
        c = rem.pop(lam)
        if m:
            c %= m
        if c == zero:
            continue
        mu = tuple(map(operator.sub, lam, lam[1:] + (0,)))
        out[mu] = c
        expansion = _reference_expansion(n, mu)
        assert expansion[lam] == 1
        for part, k in expansion.items():
            if part == lam:
                continue
            if embed is not None:
                k = embed(k)
            cur = rem.get(part)
            if cur is None:
                rem[part] = -c * k
                heapq.heappush(heap, tuple(map(operator.neg, part)))
            else:
                rem[part] = cur + -c * k
    return out


def _partition(rng, n, d):
    """A random partition of d into at most n parts, as an n-tuple."""
    cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [d])]
    return tuple(sorted(parts, reverse=True))


def _coefficient(ring, rng):
    """A nonzero payload; over residue rings often a zero divisor, whose
    multiples vanish mod m without vanishing as ints."""
    while True:
        if isinstance(ring, ZmodRing) and rng.random() < 0.5:
            c = ring.value(rng.choice([d for d in range(2, ring.modulus)
                                       if ring.modulus % d == 0] or [1]))
        elif ring is QQ:
            c = ring.value(Fraction(rng.randint(-9, 9), rng.choice((2, 3, 5, 7))))
        else:
            c = random_value(ring, rng)
        if not c.is_zero:
            return c.payload


def _random_rep(ring, n, rng):
    """A compressed symmetric polynomial spread over several degrees,
    the constant term included now and then."""
    rep = {}
    for d in rng.sample(range(9 - n // 2), rng.randint(1, 3)):
        for _ in range(rng.randint(1, 3)):
            rep[_partition(rng, n, d)] = _coefficient(ring, rng)
    return rep


def _scaled_expansion(ring, n, mu, c):
    """c times the expansion of e^mu, reduced into ring: a rep whose
    lower terms cancel against the lead, over Zmod:m possibly only mod m."""
    embed = ring._from_int
    zero = embed(0)
    rep = {}
    for part, k in _reference_expansion(n, mu).items():
        v = ring._mul(c, embed(k))
        if v != zero:
            rep[part] = v
    return rep


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_decompose_rep_matches_heap_reference(ring):
    rng = Random(7041)
    for n in range(1, 7):
        for _ in range(12):
            rep = _random_rep(ring, n, rng)
            assert _symbasis.decompose_rep(rep, n, ring) == reference_decompose_rep(
                rep, n, ring
            ), (n, rep)
        mu = tuple(rng.randint(0, 2) for _ in range(n))
        rep = _scaled_expansion(ring, n, mu, _coefficient(ring, rng))
        assert _symbasis.decompose_rep(rep, n, ring) == reference_decompose_rep(
            rep, n, ring
        ), (n, rep)


def test_decompose_rep_matches_reference_on_mod_m_cancellation():
    # e1*e2 = m_(2,1) + 3*m_(1,1,1) at n = 3, so over Zmod:4 the rep of
    # 2*e1*e2 is 2*m_(2,1) + 2*m_(1,1,1); after the top lead the int
    # remainder at (1, 1, 1) is 2 - 6 = -4, zero only mod 4
    ring = Zmod(4)
    rep = _scaled_expansion(ring, 3, (1, 1, 0), 2)
    want = {(1, 1, 0): 2}
    assert reference_decompose_rep(rep, 3, ring) == want
    assert _symbasis.decompose_rep(rep, 3, ring) == want


EVAL_RINGS = [ZZ, QQ, Zmod(12), Zmod(4), GF(7), PolyRing(ZZ, "T"), PolyRing(Zmod(6), "S")]


@pytest.mark.parametrize("ring", EVAL_RINGS, ids=lambda r: r.name)
def test_evaluate_reps_matches_decomposition_then_eval_map(ring):
    # the operators and diagonal tensor of f mod F, the zero f among
    # them, and reps spread over several degrees: each image equals
    # EvalMap of its e-basis decomposition, as the same canonical payload
    rng = Random(2611)
    for n in range(1, 7):
        for k in range(4):
            F = random_monic(ring, rng, n)
            f = Poly(ring, []) if k == 0 else random_poly(ring, rng, n - 1)
            fp = f._payload_coeffs
            reps = _symbasis.sym_ops_reps(fp, n, ring)
            reps += [_symbasis.diagonal_rep(fp, n, ring), _random_rep(ring, n, rng), {}]
            u = EvalMap(F)
            want = [
                u(SymElem._from_payloads(ring, n, _symbasis.decompose_rep(rep, n, ring)))
                for rep in reps
            ]
            images = [c.payload for c in F.signed_coeffs]
            got = _symbasis.evaluate_reps(reps, n, ring, images)
            assert got == [v.payload for v in want], (n, F, f)
            assert [type(v) for v in got] == [type(v.payload) for v in want]


def _closed_form_cases(ring, rng):
    """f of every shape the closed form treats apart: zero, a nonzero
    constant, f_0 = 0 (only l = i survives), and over Zmod:4 the f
    2X + 2, every product of whose parts vanishes once two are taken
    (the pruning path)."""
    a, b, c = (RingValue(ring, _coefficient(ring, rng)) for _ in range(3))
    cases = [Poly(ring, []), Poly(ring, [a]), Poly(ring, [0, b, c])]
    if ring == Zmod(4):
        cases.append(Poly(ring, [2, 2]))
    return cases


@pytest.mark.parametrize("ring", EVAL_RINGS, ids=lambda r: r.name)
def test_sym_ops_and_diagonal_match_the_product_over_the_variables(ring):
    # the coefficient of Y^(n-i) in prod_k (Y - f(X_k)) is (-1)^i s_i, and
    # its constant term (-1)^n f(X_1)...f(X_n); each is compared in the
    # m-basis, at the sorted exponents, as canonical payloads
    rng = Random(2803)
    for n in range(1, 6):
        for f in _closed_form_cases(ring, rng):
            oracle = product_over_variables(f, n, ring)._payload_terms
            fp = f._payload_coeffs
            reps = _symbasis.sym_ops_reps(fp, n, ring)
            for i, rep in enumerate(reps + [_symbasis.diagonal_rep(fp, n, ring)], 1):
                i = min(i, n)
                want = {
                    expo[:n]: c if i % 2 == 0 else ring._neg(c)
                    for expo, c in oracle.items()
                    if expo[n] == n - i and expo[:n] == tuple(sorted(expo[:n])[::-1])
                }
                assert rep == want, (n, f, i)
                assert [type(c) for c in rep.values()] == [type(want[k]) for k in rep]


def test_tables_grow_by_appending(monkeypatch):
    # fresh, empty tables and cache, so earlier calls cannot pre-grow them
    monkeypatch.setattr(_symbasis, "_TABLES", {})
    monkeypatch.setattr(_symbasis, "_ELEM_CACHE", {})
    n, ring = 4, Zmod(12)
    small = {(2, 2, 1, 1): 5, (2, 2, 2, 0): 3}
    assert _symbasis.decompose_rep(small, n, ring) == reference_decompose_rep(
        small, n, ring
    )
    table = _symbasis._TABLES[(n, 6)]
    assert table.cap == 2
    before = list(table.parts)
    large = {(4, 1, 1, 0): 7, (3, 2, 1, 0): 1, (2, 2, 1, 1): 2}
    assert _symbasis.decompose_rep(large, n, ring) == reference_decompose_rep(
        large, n, ring
    )
    assert table.parts[: len(before)] == before
    assert max(lam[0] for lam in table.parts) == 4
    assert table.parts == sorted(table.parts)
    assert all(table.index[lam] == j for j, lam in enumerate(table.parts))
    # the cached expansions still agree with the reference after growth
    for (k, mu), expansion in _symbasis._ELEM_CACHE.items():
        d = sum(i * e for i, e in enumerate(mu, 1))
        parts = _symbasis._TABLES[(k, d)].parts
        assert {parts[j]: c for j, c in expansion.items()} == _reference_expansion(k, mu)


def test_arity_bound_is_checked_before_work(monkeypatch):
    monkeypatch.setattr(_symbasis, "_TABLES", {})
    monkeypatch.setattr(_symbasis, "_ELEM_CACHE", {})
    over = ARITY_BOUND + 1
    x = Poly.gen(ZZ)
    with pytest.raises(OracleInfeasibleError):
        sym_ops_of(x, over)
    with pytest.raises(OracleInfeasibleError):
        diagonal_tensor(x, over)
    with pytest.raises(OracleInfeasibleError):
        _symbasis.decompose_rep({(1,) * over: 1}, over, ZZ)
    with pytest.raises(OracleInfeasibleError):
        decompose(MultiPoly(ZZ, over, {(0,) * over: 1}))
    with pytest.raises(OracleInfeasibleError):
        _symbasis.evaluate_reps([{(1,) * over: 1}], over, ZZ, [0] * over)
    assert _symbasis._TABLES == {} and _symbasis._ELEM_CACHE == {}
    # the bound itself is admitted, and so is the benchmark's arity 7
    assert ARITY_BOUND >= 7
    n = ARITY_BOUND
    assert sym_ops_of(x, n) == [SymElem.e(i, n, ZZ) for i in range(1, n + 1)]


def test_expansion_above_its_lead_is_a_typed_error(monkeypatch):
    monkeypatch.setattr(_symbasis, "_TABLES", {})
    monkeypatch.setattr(_symbasis, "_ELEM_CACHE", {})
    # e1 * e1 has the term (2, 0, 0), beyond the (3, 2) table grown to cap 1
    src, dst = _symbasis._table(3, 1, 1), _symbasis._table(3, 2, 1)
    with pytest.raises(InvariantViolationError):
        _symbasis._mul_elementary_int({0: 1}, src, 1, dst)
    # a product by e_2 that also has the term (3, 0, 0) breaks the
    # well-ordering argument for e1*e2, which peels e_2 and leads with
    # (2, 1, 0)
    real = _symbasis._mul_elementary_int

    def broken(low, src, i, dst):
        out = real(low, src, i, dst)
        return {**out, dst.index[(3, 0, 0)]: 1} if i == 2 else out

    monkeypatch.setattr(_symbasis, "_mul_elementary_int", broken)
    # e1^3 = m_(3) + 3*m_(2,1) + 6*m_(1,1,1) grows the table to cap 3 and
    # leaves -3 at (2, 1, 0); the broken e1*e2 then has a term at an
    # index above its lead's
    with pytest.raises(InvariantViolationError):
        _symbasis.decompose_rep({(3, 0, 0): 1}, 3, ZZ)
    assert (3, (1, 1, 0)) not in _symbasis._ELEM_CACHE


def test_cold_arity_7_norm_builds_a_pinned_number_of_expansions(monkeypatch):
    # the peel order decides which e-monomials the cache holds; a cold
    # norm_symmetric of this shape needs 1,673 of them, one for every
    # partition at or below the top one of each degree of the diagonal
    # tensor, since the forward substitution fills each of those indices
    monkeypatch.setattr(_symbasis, "_TABLES", {})
    monkeypatch.setattr(_symbasis, "_ELEM_CACHE", {})
    F = MonicPoly(Poly(ZZ, [2, 1, 3, 0, 0, 0, 0, 1]))  # X^7 + 3X^2 + X + 2
    f = Poly(ZZ, [5, 1, 0, 2, 0, 0, 1])  # X^6 + 2X^3 + X + 5
    assert norm_symmetric(f, F) == norm(f, F) == ZZ.value(106176)
    assert len(_symbasis._ELEM_CACHE) == 1673


def test_cold_expansion_needs_no_recursion_depth(monkeypatch):
    # a cold e_1^k peels k factors; built in a loop, it fits in a stack
    # far shallower than k
    monkeypatch.setattr(_symbasis, "_TABLES", {})
    monkeypatch.setattr(_symbasis, "_ELEM_CACHE", {})
    k = 200
    p = MultiPoly(ZZ, 2, {(k, 0): 1, (0, k): 1})
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        s = decompose(p)
    finally:
        sys.setrecursionlimit(limit)
    assert s.expand() == p
