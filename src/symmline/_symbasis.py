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
X_k-degree exceeds the smallest prefix exponent are redundant, so they
are never formed.  diagonal_rep runs the same step for f(X_1)...f(X_n).

All three kernels run on raw payloads with their native + - *
operators (ZZ ints, QQ Fractions, the Poly payloads of a tower), with no
RingValue and no ring-method call per operation; this is the contract
matrices._berkowitz states too:

  * Zmod and GF residues are reduced mod m lazily.  In decompose_rep a
    remainder coefficient is an integer combination of the input
    payloads (the scalars are the expansions' int coefficients, and each
    lead it scales is congruent to such a combination); in sym_ops_reps
    and diagonal_rep a coefficient is an integer polynomial in f's
    payloads.  Reduction mod m is a ring map, so reducing late gives the
    residues that reducing after every operation would.
  * decompose_rep keeps unreduced ints in its remainder dict and reduces
    a lead when it pops it; a lead that is zero mod m is skipped, which
    covers terms that cancel only mod m.  Each key enters the heap once,
    since every later expansion lies strictly below the lead just popped.
  * The int scalar k of an expansion multiplies a payload directly; only
    Poly payloads take ring._from_int(k), a choice made once per call.
  * sym_ops_reps and diagonal_rep reduce each coefficient of a step
    before dropping the zeros.  All outputs are canonical and nonzero.
"""

from __future__ import annotations

import heapq
import operator
from itertools import combinations

from .errors import InvariantViolationError
from .poly import PolyRing
from .rings import ZmodRing

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


def _modulus(ring) -> int:
    """The modulus of a residue ring, whose payloads are reduced lazily;
    0 for every other ring."""
    return ring.modulus if isinstance(ring, ZmodRing) else 0


def decompose_rep(rep: dict[Partition, object], n: int, ring) -> dict[tuple, object]:
    """e-basis coefficients of a compressed symmetric polynomial.

    Returns a map from e-exponent tuples (length n) to nonzero canonical
    payloads.
    """
    m = _modulus(ring)
    embed = ring._from_int if isinstance(ring, PolyRing) else None
    zero = ring._from_int(0)
    rem = dict(rep)
    heap = [tuple(map(operator.neg, k)) for k in rem]
    heapq.heapify(heap)
    out = {}
    prev = None
    while heap:
        lam = tuple(map(operator.neg, heapq.heappop(heap)))
        c = rem.pop(lam)
        if m:
            c %= m
        if c == zero:
            continue
        # the well-ordering argument: each round strictly lowers the lead
        if prev is not None and not lam < prev:
            raise InvariantViolationError(f"lead {lam} did not drop below {prev}")
        prev = lam
        mu = tuple(map(operator.sub, lam, lam[1:] + (0,)))
        out[mu] = c
        expansion = elem_monomial(n, mu)
        if expansion.get(lam) != 1:
            raise InvariantViolationError(f"e-monomial {mu} does not lead with {lam}")
        terms = expansion.items()
        if embed is not None:
            terms = [(part, embed(k)) for part, k in terms]
        neg_c = -c
        for part, k in terms:
            if part == lam:
                continue
            cur = rem.get(part)
            if cur is None:
                rem[part] = neg_c * k
                heapq.heappush(heap, tuple(map(operator.neg, part)))
            else:
                rem[part] = cur + neg_c * k
    return out


def _times_f(partial: dict, rep: dict, fterms) -> None:
    """Add rep * f(X_k) into partial, keyed (partition, X_k-degree),
    skipping the keys whose X_k-degree exceeds the partition's last part."""
    for lam, c in rep.items():
        top = lam[-1] if lam else fterms[-1][0]
        for j, a in fterms:
            if j > top:
                break
            key = (lam, j)
            got = partial.get(key)
            partial[key] = c * a if got is None else got + c * a


def _fold(partial: dict, m: int, zero) -> dict[Partition, object]:
    """The compressed rep read off partial, reduced mod m when m > 0."""
    rep = {}
    for (lam, e), c in partial.items():
        if m:
            c %= m
        if c != zero:
            rep[lam + (e,)] = c
    return rep


def _nonzero_terms(fpayloads, ring) -> list[tuple[int, object]]:
    zero = ring._from_int(0)
    return [(j, a) for j, a in enumerate(fpayloads) if a != zero]


def _extend(prev_reps: dict[int, dict], k: int, fterms, ring) -> dict[int, dict]:
    """One variable-adjoining step of the signed-coefficient recursion."""
    m = _modulus(ring)
    zero = ring._from_int(0)
    cur: dict[int, dict] = {0: {(0,) * k: ring._from_int(1)}}
    for i in range(1, k + 1):
        partial = {(lam, 0): c for lam, c in prev_reps.get(i, {}).items()}
        if fterms:
            _times_f(partial, prev_reps.get(i - 1, {}), fterms)
        cur[i] = _fold(partial, m, zero)
    return cur


def sym_ops_reps(fpayloads, n: int, ring) -> list[dict[Partition, object]]:
    """Compressed reps of the signed coefficients of prod_i (Y - f(X_i))."""
    fterms = _nonzero_terms(fpayloads, ring)
    reps: dict[int, dict] = {0: {(): ring._from_int(1)}}
    for k in range(1, n + 1):
        reps = _extend(reps, k, fterms, ring)
    return [reps[i] for i in range(1, n + 1)]


def diagonal_rep(fpayloads, n: int, ring) -> dict[Partition, object]:
    """Compressed rep of f(X_1) * ... * f(X_n)."""
    m = _modulus(ring)
    zero = ring._from_int(0)
    fterms = _nonzero_terms(fpayloads, ring)
    rep: dict[tuple, object] = {(): ring._from_int(1)}
    for _ in range(n):
        partial: dict[tuple, object] = {}
        if fterms:
            _times_f(partial, rep, fterms)
        rep = _fold(partial, m, zero)
    return rep
