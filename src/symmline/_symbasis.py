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
polynomial in the elementary basis: take the lex-leading partition lam,
emit e_1^(lam1-lam2) * e_2^(lam2-lam3) * ..., subtract, repeat.  The
subtracted expansion has unit leading coefficient, so no base-ring
division ever happens and the loop is valid over Zmod(m).  The change
of basis from e to m is unitriangular in dominance order, and dominance
implies lex order, so the loop is a forward substitution:

  * Partitions are numbered per (n, degree) in a table that lists the
    partitions of the degree into at most n parts in ascending lex
    order.  Lex order compares the largest part first, so the partitions
    with largest part at most c are a prefix of it; a table is grown to
    a cap c by appending the partitions with largest part above the old
    cap, and an index, once handed out, never moves.  A call grows a
    table only up to the largest part of its own input (every term of
    the expansion led by lam is dominated by lam, so its largest part is
    at most lam1).
  * _ELEM_CACHE is the one cache of expansions, one entry per (n, mu),
    each keyed by table index.  An expansion is checked when it is built:
    no term may lie above its lead in the table, which is the
    well-ordering argument.  decompose_rep checks on each use that it
    leads with coefficient 1 at the lead's own index.
  * decompose_rep groups its input by degree, fills a dense remainder
    list per degree, and scans the indices downward from the input's
    top one.  Every expansion read at index j writes only below j, so
    the value found at an index is final when the scan reaches it.

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
  * decompose_rep keeps unreduced ints in its remainder list and reduces
    an entry when the scan visits it; an entry that is zero mod m is
    skipped, which covers leads that cancel only mod m.
  * The int scalar k of an expansion multiplies a payload directly; only
    Poly payloads take ring._from_int(k), a choice made once per call.
  * sym_ops_reps and diagonal_rep reduce each coefficient of a step
    before dropping the zeros.  All outputs are canonical and nonzero.

The three kernels are what grows the process-global tables and cache,
so each refuses an arity above quotients.ARITY_BOUND before any work.
"""

from __future__ import annotations

from itertools import accumulate, combinations

# quotients imports this module (through symmetric) before it defines
# its bounds, so the arity check is looked up when a kernel runs
from . import quotients
from .errors import InvariantViolationError
from .poly import PolyRing
from .rings import ZmodRing

Partition = tuple  # descending ints, fixed length = number of variables


class _Table:
    """The partitions of one degree into at most n parts whose largest
    part is at most cap, in ascending lex order, with their positions
    and their e-exponent tuples."""

    __slots__ = ("cap", "parts", "index", "mus")

    def __init__(self):
        self.cap = -1
        self.parts: list[Partition] = []
        self.index: dict[Partition, int] = {}
        self.mus: list[tuple[int, ...]] = []


# (n, degree) -> _Table; a table only ever grows, so an index, once
# handed out, names the same partition for the life of the process
_TABLES: dict[tuple[int, int], _Table] = {}

# (n, mu) -> expansion of e^mu as {index in the table of its degree: int}
_ELEM_CACHE: dict[tuple[int, tuple[int, ...]], dict[int, int]] = {}


def _partitions(d: int, k: int, top: int, bottom: int = 0):
    """Partitions of d into at most k parts whose largest part lies in
    [bottom, top], as descending k-tuples in ascending lex order."""
    if k == 0:
        if d == 0:
            yield ()
        return
    for first in range(max(bottom, -(-d // k)), min(d, top) + 1):
        for rest in _partitions(d - first, k - 1, first):
            yield (first,) + rest


def _table(n: int, d: int, cap: int) -> _Table:
    """The (n, d) table, grown until it holds every partition of d into
    at most n parts with largest part at most cap."""
    table = _TABLES.get((n, d))
    if table is None:
        table = _TABLES[(n, d)] = _Table()
    if cap > table.cap:
        for lam in _partitions(d, n, cap, table.cap + 1):
            table.index[lam] = len(table.parts)
            table.parts.append(lam)
            table.mus.append(tuple(a - b for a, b in zip(lam, lam[1:] + (0,))))
        table.cap = cap
    return table


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


def elem_monomial(n: int, mu: tuple[int, ...]) -> dict[int, int]:
    """Expansion of e_1^mu1 * ... * e_n^mun, cached ring-independently,
    keyed by index in the table of its degree."""
    key = (n, mu)
    got = _ELEM_CACHE.get(key)
    if got is not None:
        return got
    # the lead lam has lam_k = mu_k + ... + mu_n
    lam = tuple(accumulate(reversed(mu)))[::-1]
    table = _table(n, sum(lam), lam[0] if n else 0)
    if not any(mu):
        res = {lam: 1}
    else:
        i = max(k for k in range(n) if mu[k])
        smaller = mu[:i] + (mu[i] - 1,) + mu[i + 1 :]
        low = elem_monomial(n, smaller)
        parts = _TABLES[(n, sum(lam) - i - 1)].parts
        res = _mul_elementary_int({parts[j]: k for j, k in low.items()}, i + 1, n)
    top = table.index[lam]
    expansion = {}
    for part, k in res.items():
        j = table.index.get(part)
        # the well-ordering argument: no term lies above the lead
        if j is None or j > top:
            raise InvariantViolationError(f"e-monomial {mu} has {part} above {lam}")
        expansion[j] = k
    _ELEM_CACHE[key] = expansion
    return expansion


def _modulus(ring) -> int:
    """The modulus of a residue ring, whose payloads are reduced lazily;
    0 for every other ring."""
    return ring.modulus if isinstance(ring, ZmodRing) else 0


def decompose_rep(rep: dict[Partition, object], n: int, ring) -> dict[tuple, object]:
    """e-basis coefficients of a compressed symmetric polynomial.

    Returns a map from e-exponent tuples (length n) to nonzero canonical
    payloads.
    """
    quotients._check_arity(n)
    m = _modulus(ring)
    embed = ring._from_int if isinstance(ring, PolyRing) else None
    zero = ring._from_int(0)
    by_degree: dict[int, list] = {}
    for lam, c in rep.items():
        by_degree.setdefault(sum(lam), []).append((lam, c))
    out = {}
    for d, terms in by_degree.items():
        table = _table(n, d, max(lam[0] for lam, _ in terms) if n else 0)
        slots = [table.index[lam] for lam, _ in terms]
        rem = [zero] * (max(slots) + 1)
        for j, (_, c) in zip(slots, terms):
            rem[j] = c
        mus = table.mus
        for j in range(len(rem) - 1, -1, -1):
            c = rem[j]
            if m:
                c %= m
            if c == zero:
                continue
            mu = mus[j]
            out[mu] = c
            expansion = elem_monomial(n, mu)
            if expansion.get(j) != 1:
                raise InvariantViolationError(
                    f"e-monomial {mu} does not lead with {table.parts[j]}"
                )
            neg_c = -c
            if embed is None:
                for i, k in expansion.items():
                    rem[i] += neg_c * k
            else:
                for i, k in expansion.items():
                    rem[i] += neg_c * embed(k)
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
    quotients._check_arity(n)
    fterms = _nonzero_terms(fpayloads, ring)
    reps: dict[int, dict] = {0: {(): ring._from_int(1)}}
    for k in range(1, n + 1):
        reps = _extend(reps, k, fterms, ring)
    return [reps[i] for i in range(1, n + 1)]


def diagonal_rep(fpayloads, n: int, ring) -> dict[Partition, object]:
    """Compressed rep of f(X_1) * ... * f(X_n)."""
    quotients._check_arity(n)
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
