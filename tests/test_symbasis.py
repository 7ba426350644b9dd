"""The indexed decomposition kernel against the lead-by-lead heap
reduction it replaced, and the arity budget of the _symbasis kernels."""

import heapq
import operator
from fractions import Fraction
from functools import lru_cache
from random import Random

import pytest

from symmline import _symbasis, quotients
from symmline.errors import InvariantViolationError, OracleInfeasibleError
from symmline.multipoly import MultiPoly
from symmline.poly import Poly, PolyRing
from symmline.rings import GF, QQ, Zmod, ZmodRing, ZZ
from symmline.sampling import random_value
from symmline.symmetric import SymElem, decompose, diagonal_tensor, sym_ops_of

RINGS = [ZZ, QQ, Zmod(4), Zmod(8), Zmod(12), GF(3), PolyRing(ZZ, "T")]


@lru_cache(maxsize=None)
def _reference_expansion(n, mu):
    """e_1^mu1 * ... * e_n^mun keyed by partition, built independently of
    the kernel's tables and cache."""
    if not any(mu):
        return {(0,) * n: 1}
    i = max(k for k in range(n) if mu[k])
    smaller = mu[:i] + (mu[i] - 1,) + mu[i + 1 :]
    return _symbasis._mul_elementary_int(_reference_expansion(n, smaller), i + 1, n)


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
    over = quotients.ARITY_BOUND + 1
    x = Poly.gen(ZZ)
    with pytest.raises(OracleInfeasibleError):
        sym_ops_of(x, over)
    with pytest.raises(OracleInfeasibleError):
        diagonal_tensor(x, over)
    with pytest.raises(OracleInfeasibleError):
        _symbasis.decompose_rep({(1,) * over: 1}, over, ZZ)
    with pytest.raises(OracleInfeasibleError):
        decompose(MultiPoly(ZZ, over, {(0,) * over: 1}))
    assert _symbasis._TABLES == {} and _symbasis._ELEM_CACHE == {}
    # the bound itself is admitted, and so is the benchmark's arity 7
    assert quotients.ARITY_BOUND >= 7
    n = quotients.ARITY_BOUND
    assert sym_ops_of(x, n) == [SymElem.e(i, n, ZZ) for i in range(1, n + 1)]


def test_expansion_above_its_lead_is_a_typed_error(monkeypatch):
    monkeypatch.setattr(_symbasis, "_TABLES", {})
    monkeypatch.setattr(_symbasis, "_ELEM_CACHE", {})
    # a product by e_2 that also has the term (3, 0, 0) breaks the
    # well-ordering argument for e1*e2, which leads with (2, 1, 0)
    real = _symbasis._mul_elementary_int

    def broken(rep, i, n):
        out = real(rep, i, n)
        return {**out, (3, 0, 0): 1} if i == 2 else out

    monkeypatch.setattr(_symbasis, "_mul_elementary_int", broken)
    # (3, 0, 0) lies beyond the cap of the (3, 3) table
    with pytest.raises(InvariantViolationError):
        _symbasis.decompose_rep({(2, 1, 0): 1}, 3, ZZ)
    # e1^3 = m_(3) + 3*m_(2,1) + 6*m_(1,1,1) grows the table to cap 3 and
    # leaves -3 at (2, 1, 0); the broken e1*e2 then has a term at an
    # index above its lead's
    with pytest.raises(InvariantViolationError):
        _symbasis.decompose_rep({(3, 0, 0): 1}, 3, ZZ)
    assert (3, (1, 1, 0)) not in _symbasis._ELEM_CACHE
