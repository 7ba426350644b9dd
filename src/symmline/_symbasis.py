"""Internal engine for symmetric polynomials in compressed orbit form.

A symmetric polynomial in n variables is stored as a map

    partition -> coefficient payload

where a partition is the descending-sorted exponent tuple of one orbit
representative (the coefficient of every monomial in the orbit is the
same).  This is the monomial-symmetric-function basis; it shrinks the
7^5-term expansions the full product form would produce at n = 5 down
to a few hundred entries and makes the classical decomposition loop
affordable at desk scale.

Two facts carry the module:

  * multiplying by an elementary symmetric polynomial e_i stays inside
    the compressed form: the coefficient of the sorted monomial mu in
    P*e_i is the sum of P's coefficients on sort(mu - 1_S) over the
    size-i position subsets S;

  * products of e-monomials have integer coefficients that do not
    depend on the base ring, so their expansions are cached once,
    globally, with plain int values and scaled into the ring on use.

decompose_rep is the textbook algorithm for writing a symmetric
polynomial in the elementary basis: repeatedly take the lex-leading
partition lam, emit e_1^(lam1-lam2) * e_2^(lam2-lam3) * ..., subtract,
loop.  The subtracted expansion has unit leading coefficient, so no
base-ring division ever happens and the loop is valid over Zmod(m).

sym_ops_reps expands prod_i (Y - f(X_i)) one variable at a time: if
s_(i,k) denotes the i-th signed coefficient over the first k variables,
then s_(i,k) = s_(i,k-1) + s_(i-1,k-1) * f(X_k).  A polynomial that is
symmetric in the first k-1 variables times a polynomial in X_k alone is
stored as a map (partition, X_k-degree) -> coefficient; once the sum is
known to be fully symmetric, the compressed coefficient of a sorted
tuple pi is read off the single key (pi[:-1], pi[-1]), and keys whose
X_k-degree exceeds the smallest prefix exponent are redundant.
"""

from __future__ import annotations

import heapq
from itertools import combinations

from .errors import InvariantViolationError

Partition = tuple  # descending ints, fixed length = number of variables

_ELEM_CACHE: dict[tuple[int, tuple[int, ...]], dict[Partition, int]] = {}


def _mul_elementary_int(rep: dict[Partition, int], i: int, n: int) -> dict[Partition, int]:
    """Compressed product rep * e_i with integer coefficients."""
    subsets = list(combinations(range(n), i))
    candidates = set()
    for lam in rep:
        for sub in subsets:
            vec = list(lam)
            for pos in sub:
                vec[pos] += 1
            vec.sort(reverse=True)
            candidates.add(tuple(vec))
    out = {}
    for mu in candidates:
        total = 0
        for sub in subsets:
            vec = list(mu)
            ok = True
            for pos in sub:
                vec[pos] -= 1
                if vec[pos] < 0:
                    ok = False
                    break
            if not ok:
                continue
            vec.sort(reverse=True)
            val = rep.get(tuple(vec))
            if val:
                total += val
        if total:
            out[mu] = total
    return out


def elem_monomial(n: int, mu: tuple[int, ...]) -> dict[Partition, int]:
    """Expansion of e_1^mu1 * ... * e_n^mun, cached ring-independently."""
    key = (n, mu)
    got = _ELEM_CACHE.get(key)
    if got is not None:
        return got
    if not any(mu):
        res = {(0,) * n: 1}
    else:
        i = max(k for k in range(n) if mu[k])
        smaller = mu[:i] + (mu[i] - 1,) + mu[i + 1 :]
        res = _mul_elementary_int(elem_monomial(n, smaller), i + 1, n)
    _ELEM_CACHE[key] = res
    return res


def decompose_rep(rep: dict[Partition, object], n: int, ring) -> dict[tuple, object]:
    """e-basis coefficients of a compressed symmetric polynomial.

    Returns a map from e-exponent tuples (length n) to payloads.
    """
    zero = ring._from_int(0)
    add, mul, neg, embed = ring._add, ring._mul, ring._neg, ring._from_int
    rem = {k: v for k, v in rep.items() if v != zero}
    heap = [tuple(-e for e in k) for k in rem]
    heapq.heapify(heap)
    out = {}
    prev = None
    while heap:
        lam = tuple(-e for e in heapq.heappop(heap))
        c = rem.pop(lam, None)
        if c is None:
            continue
        # the well-ordering argument: each round strictly lowers the lead
        if prev is not None and not lam < prev:
            raise InvariantViolationError(f"lead {lam} did not drop below {prev}")
        prev = lam
        mu = tuple(
            lam[i] - (lam[i + 1] if i + 1 < n else 0) for i in range(n)
        )
        out[mu] = c
        expansion = elem_monomial(n, mu)
        if expansion.get(lam) != 1:
            raise InvariantViolationError(f"e-monomial {mu} does not lead with {lam}")
        for part, k in expansion.items():
            if part == lam:
                continue
            delta = mul(c, embed(k))
            cur = rem.get(part)
            if cur is None:
                nd = neg(delta)
                if nd != zero:
                    rem[part] = nd
                    heapq.heappush(heap, tuple(-e for e in part))
            else:
                nv = add(cur, neg(delta))
                if nv == zero:
                    del rem[part]
                else:
                    rem[part] = nv
    return out


def _extend(prev_reps: dict[int, dict], k: int, fterms, ring) -> dict[int, dict]:
    """One variable-adjoining step of the signed-coefficient recursion."""
    zero = ring._from_int(0)
    add, mul = ring._add, ring._mul
    cur: dict[int, dict] = {0: {(0,) * k: ring._from_int(1)}}
    for i in range(1, k + 1):
        partial: dict[tuple, object] = {}
        for lam, c in prev_reps.get(i, {}).items():
            key = (lam, 0)
            got = partial.get(key)
            partial[key] = c if got is None else add(got, c)
        for lam, c in prev_reps.get(i - 1, {}).items():
            for j, a in fterms:
                key = (lam, j)
                ca = mul(c, a)
                got = partial.get(key)
                partial[key] = ca if got is None else add(got, ca)
        rep = {}
        for (lam, e), c in partial.items():
            if c == zero:
                continue
            if k == 1 or e <= lam[-1]:
                rep[lam + (e,)] = c
        cur[i] = rep
    return cur


def sym_ops_reps(fpayloads, n: int, ring) -> list[dict[Partition, object]]:
    """Compressed reps of the signed coefficients of prod_i (Y - f(X_i))."""
    zero = ring._from_int(0)
    fterms = [(j, a) for j, a in enumerate(fpayloads) if a != zero]
    reps: dict[int, dict] = {0: {(): ring._from_int(1)}}
    for k in range(1, n + 1):
        reps = _extend(reps, k, fterms, ring)
    return [reps[i] for i in range(1, n + 1)]


def diagonal_rep(fpayloads, n: int, ring) -> dict[Partition, object]:
    """Compressed rep of f(X_1) * ... * f(X_n)."""
    zero = ring._from_int(0)
    add, mul = ring._add, ring._mul
    fterms = [(j, a) for j, a in enumerate(fpayloads) if a != zero]
    rep: dict[tuple, object] = {(): ring._from_int(1)}
    for k in range(1, n + 1):
        partial: dict[tuple, object] = {}
        for lam, c in rep.items():
            for j, a in fterms:
                key = (lam, j)
                ca = mul(c, a)
                got = partial.get(key)
                partial[key] = ca if got is None else add(got, ca)
        rep = {}
        for (lam, e), c in partial.items():
            if c == zero:
                continue
            if k == 1 or e <= lam[-1]:
                rep[lam + (e,)] = c
    return rep
