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
    the compressed form: the coefficient of nu in P*e_i is the sum of
    P_lam * |lam| / |nu|, |lam| the size of lam's orbit, over the pairs
    (lam, S) of a partition of P and a set S of i positions with
    sort(lam + 1_S) = nu, since times |nu| both sides count the pairs
    (alpha in the orbit of lam, S) with alpha + 1_S in the orbit of nu;

  * products of e-monomials have integer coefficients that do not
    depend on the base ring (they count (0,1)-matrices; Macdonald,
    Symmetric Functions and Hall Polynomials, I.6), so their expansions
    are cached once, globally, with plain int values and scaled into the
    ring on use.

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
    each keyed by table index: e^mu is e^(mu - 1_i) times the e_i with
    the fewest position sets (the smallest C(n, i), ties to the larger
    i, so e_n is a pure shift).  A product total that its orbit size
    does not divide, or a term above the lead in the table (the
    well-ordering argument), is an InvariantViolationError.
  * A table refers to the expansion led by its j-th partition from a
    list parallel to parts, filled on the first read: the very dict
    _ELEM_CACHE holds under (n, mu), not a copy, so the expansions are
    stored once and a read by index hashes no (n, mu).  _expansion, the
    one place decompose_rep and evaluate_reps read an expansion through,
    checks on every read that it leads with 1 at its lead's index.
  * decompose_rep groups its input by degree, fills a dense remainder
    list per degree, and scans the indices downward from the input's
    top one.  Every expansion read at index j writes only below j, so
    the value found at an index is final when the scan reaches it.

evaluate_reps applies the evaluation map u: e_i -> images[i-1] without
decomposing.  u is linear in the monomial basis, so u(s) is the sum of
s_lam * u(m_lam), and the values u(m_lam) depend only on the images:
one pass per call serves every rep it is given (the n symmetric
operators of f share it).  The same unitriangular change of basis gives
them by forward substitution, upward this time: per degree, for each
index j up to the top one the reps use,

    u(m_j) = u(e^mu_j) - sum over i < j of E_j[i] * u(m_i),

where E_j is the expansion of e^mu_j and u(e^mu_j) is a product of
powers of the images.  Nothing derived from the images outlives the
call; _ELEM_CACHE stays the only cache.  The substitution reads the
expansion at every index up to the top, not only at the nonzero leads
that decompose_rep visits, so it may build a few more of them.

sym_ops_reps writes down the signed coefficients of prod_k (Y - f(X_k)),
s_i = e_i(f(X_1), ..., f(X_n)), in closed form (Macdonald, Symmetric
Functions and Hall Polynomials, I.2): with l the number of nonzero parts
of lam,

    s_i[lam] = C(n - l, i - l) * f_0^(i - l) * prod_{p in lam, p > 0} f_p.

Proof: s_i sums prod_{k in S} f(X_k) over the i-sets S, and the monomial
X^lam arises exactly from the C(n - l, i - l) sets S that contain its l
nonzero positions, each taking f_(lam_k) at those and f_0 at the other
i - l.  _monomials walks the partitions into at most n parts drawn from
f's nonzero exponents j >= 1, carrying the product of f_j over each
one's parts; a product that vanishes drops out with every partition that
extends it.  diagonal_rep, the rep of f(X_1)...f(X_n) = s_n, is the
slice i = n.

All four kernels run on raw payloads with their native + - *
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
  * evaluate_reps reduces each power of an image, each value u(m_lam)
    and each image of a rep mod m as it is formed.
  * The int scalar k of an expansion multiplies a payload directly; only
    Poly payloads take ring._from_int(k), a choice made once per call.
  * sym_ops_reps and diagonal_rep reduce each product of f_j, each
    power of f_0, each scale C(n - l, i - l) * f_0^(i - l) and each
    coefficient as it is formed, and drop the zeros.  All outputs are
    canonical and nonzero.

decompose_rep and evaluate_reps grow the process-global tables and
cache, and the reps of sym_ops_reps and diagonal_rep grow with the
arity too, so each of the four refuses an arity above
errors.ARITY_BOUND before any work.
"""

from __future__ import annotations

from itertools import accumulate, combinations, groupby
from math import comb, factorial, prod
from operator import getitem, mul

from .errors import InvariantViolationError, _check_arity
from .poly import PolyRing
from .rings import ZmodRing

Partition = tuple  # descending ints, fixed length = number of variables


class _Table:
    """The partitions of one degree into at most n parts whose largest
    part is at most cap, in ascending lex order, with their positions,
    their e-exponent tuples, the sizes of their orbits and, once read,
    their expansions (the _ELEM_CACHE entries themselves, None before)."""

    __slots__ = ("cap", "parts", "index", "mus", "orbits", "expansions")

    def __init__(self):
        self.cap = -1
        self.parts: list[Partition] = []
        self.index: dict[Partition, int] = {}
        self.mus: list[tuple[int, ...]] = []
        self.orbits: list[int] = []
        self.expansions: list[dict[int, int] | None] = []


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
            runs = (len(list(run)) for _, run in groupby(lam))
            table.orbits.append(factorial(n) // prod(map(factorial, runs)))
            table.expansions.append(None)
        table.cap = cap
    return table


def _mul_elementary_int(low: dict[int, int], src: _Table, i: int, dst: _Table) -> dict:
    """The expansion low, keyed by index in src, times e_i, keyed by
    index in dst: each pair (lam, S) of a term and a size-i position set
    adds low[lam] * |lam| at sort(lam + 1_S), and each total is then
    divided by the size of its own orbit."""
    parts, orbits = src.parts, src.orbits
    subsets = list(combinations(range(len(parts[0])), i))
    totals: dict[Partition, int] = {}
    for j, c in low.items():
        lam, w = parts[j], c * orbits[j]
        for sub in subsets:
            vec = list(lam)
            for pos in sub:
                vec[pos] += 1
            vec.sort(reverse=True)
            nu = tuple(vec)
            totals[nu] = totals.get(nu, 0) + w
    out = {}
    index, orbits = dst.index, dst.orbits
    for nu, total in totals.items():
        k = index.get(nu)
        if k is None:
            raise InvariantViolationError(f"a product by e_{i} has {nu} beyond its table")
        out[k], r = divmod(total, orbits[k])
        if r:
            raise InvariantViolationError(f"a product by e_{i} leaves {r} over on {nu}")
    return out


def elem_monomial(n: int, mu: tuple[int, ...]) -> dict[int, int]:
    """Expansion of e_1^mu1 * ... * e_n^mun, cached ring-independently,
    keyed by index in the table of its degree.  mu is peeled one factor
    at a time down to the first cached or empty e-monomial, and the
    expansions are built back up from there in a loop, so a lead with a
    large part costs no recursion depth."""
    expansion = _ELEM_CACHE.get((n, mu))
    if expansion is not None:
        return expansion
    peels = []  # (mu, the index i of its peeled factor e_(i+1)), outermost first
    while expansion is None and any(mu):
        # peel the factor e_(i+1) with the fewest position sets
        i = min((k for k in range(n) if mu[k]), key=lambda k: (comb(n, k + 1), -k))
        peels.append((mu, i))
        mu = mu[:i] + (mu[i] - 1,) + mu[i + 1 :]
        expansion = _ELEM_CACHE.get((n, mu))
    if expansion is None:
        # the empty e-monomial, 1, leads with the zero partition mu itself
        expansion = _ELEM_CACHE[(n, mu)] = {_table(n, 0, 0).index[mu]: 1}
    for mu, i in reversed(peels):
        # the lead lam has lam_k = mu_k + ... + mu_n
        lam = tuple(accumulate(reversed(mu)))[::-1]
        d = sum(lam)
        table = _table(n, d, lam[0])
        expansion = _mul_elementary_int(expansion, _TABLES[(n, d - i - 1)], i + 1, table)
        # the well-ordering argument: no term lies above the lead
        j = max(expansion)
        if j > table.index[lam]:
            raise InvariantViolationError(f"e-monomial {mu} has {table.parts[j]} above {lam}")
        _ELEM_CACHE[(n, mu)] = expansion
    return expansion


def _modulus(ring) -> int:
    """The modulus of a residue ring, whose payloads are reduced lazily;
    0 for every other ring."""
    return ring.modulus if isinstance(ring, ZmodRing) else 0


def _expansion(n: int, table: _Table, j: int) -> dict[int, int]:
    """The expansion of e^mu for the j-th partition lam of table, mu its
    e-exponents, checked on every read to lead with 1 at j."""
    expansion = table.expansions[j]
    if expansion is None:
        expansion = table.expansions[j] = elem_monomial(n, table.mus[j])
    if expansion.get(j) != 1:
        raise InvariantViolationError(
            f"e-monomial {table.mus[j]} does not lead with {table.parts[j]}"
        )
    return expansion


def decompose_rep(rep: dict[Partition, object], n: int, ring) -> dict[tuple, object]:
    """e-basis coefficients of a compressed symmetric polynomial.

    Returns a map from e-exponent tuples (length n) to nonzero canonical
    payloads.
    """
    _check_arity(n)
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
            out[mus[j]] = c
            expansion = _expansion(n, table, j)
            neg_c = -c
            if embed is None:
                for i, k in expansion.items():
                    rem[i] += neg_c * k
            else:
                for i, k in expansion.items():
                    rem[i] += neg_c * embed(k)
    return out


def evaluate_reps(reps, n: int, ring, images) -> list:
    """The image of each compressed rep under e_i -> images[i-1], as
    payloads: sum over lam of rep[lam] * u(m_lam), with the values
    u(m_lam) found once per call by forward substitution."""
    _check_arity(n)
    m = _modulus(ring)
    embed = ring._from_int if isinstance(ring, PolyRing) else None
    zero, one = ring._from_int(0), ring._from_int(1)
    tops: dict[int, Partition] = {}  # degree -> its lex-largest partition
    for rep in reps:
        for d, lam in zip(map(sum, rep), rep):
            if lam >= tops.get(d, lam):
                tops[d] = lam
    # rows[i][k] = images[i]^k, k up to the largest part of any input
    # term, which bounds every e-exponent at or below it in its table
    cap = max((lam[0] for lam in tops.values() if lam), default=0)
    rows = []
    for v in images:
        row = [one]
        for _ in range(cap):
            p = row[-1] * v
            row.append(p % m if m else p)
        rows.append(row)
    value_of: dict[Partition, object] = {}  # lam -> u(m_lam)
    for d, top in tops.items():
        table = _table(n, d, top[0] if n else 0)
        # zeros stand for the values not yet found; an expansion read
        # at j lies at or below j and leads with 1 at j
        vals = [zero] * (table.index[top] + 1)
        for j, mu in enumerate(table.mus[: len(vals)]):
            expansion = _expansion(n, table, j)
            ks = expansion.values() if embed is None else map(embed, expansion.values())
            v = prod(map(getitem, rows, mu), start=one) - sum(
                map(mul, ks, map(vals.__getitem__, expansion)), zero
            )
            vals[j] = v % m if m else v
        value_of.update(zip(table.parts, vals))
    out = []
    for rep in reps:
        v = sum(map(mul, rep.values(), map(value_of.__getitem__, rep)), zero)
        out.append(v % m if m else v)
    return out


def _monomials(fpayloads, n: int, ring) -> list[list]:
    """The partitions into at most n parts drawn from f's nonzero
    exponents j >= 1, by number of parts l: levels[l] lists (parts, top,
    p) for the l nonzero parts, descending, the number top of f's terms
    the next part may be drawn from, and p the product of f_j over the
    parts, reduced mod m.  A product that vanishes is dropped together
    with every partition that extends it, whose product is a multiple
    of it."""
    m = _modulus(ring)
    zero = ring._from_int(0)
    fterms = [(j, a) for j, a in enumerate(fpayloads) if j and a != zero]
    levels = [[((), len(fterms), ring._from_int(1))]]
    for _ in range(n):
        grown = []
        for parts, top, p in levels[-1]:
            for k, (j, a) in enumerate(fterms[:top]):
                q = p * a
                if m:
                    q %= m
                if q != zero:
                    grown.append((parts + (j,), k + 1, q))
        levels.append(grown)
    return levels


def _sym_reps(fpayloads, n: int, ring, first: int) -> list[dict[Partition, object]]:
    """Compressed reps of e_i(f(X_1), ..., f(X_n)) for i = first..n: the
    closed form C(n - l, i - l) * f_0^(i - l) * p at each partition of
    _monomials, padded with zeros to n parts."""
    m = _modulus(ring)
    embed = ring._from_int if isinstance(ring, PolyRing) else None
    zero, one = ring._from_int(0), ring._from_int(1)
    f0 = fpayloads[0] if fpayloads else zero
    powers = [one]  # powers[k] = f_0^k
    for _ in range(n):
        v = powers[-1] * f0
        powers.append(v % m if m else v)
    reps: list[dict] = [{} for _ in range(first, n + 1)]
    for l, level in enumerate(_monomials(fpayloads, n, ring)):
        # the nonzero scales C(n - l, i - l) * f_0^(i - l), each with the rep of its i
        scales = []
        for i in range(max(l, first), n + 1):
            k = comb(n - l, i - l)
            v = (k if embed is None else embed(k)) * powers[i - l]
            if m:
                v %= m
            if v != zero:
                scales.append((reps[i - first], v))
        pad = (0,) * (n - l)
        for parts, _, p in level:
            lam = parts + pad
            for rep, v in scales:
                c = v * p
                if m:
                    c %= m
                if c != zero:
                    rep[lam] = c
    return reps


def sym_ops_reps(fpayloads, n: int, ring) -> list[dict[Partition, object]]:
    """Compressed reps of the signed coefficients of prod_i (Y - f(X_i))."""
    _check_arity(n)
    return _sym_reps(fpayloads, n, ring, 1)


def diagonal_rep(fpayloads, n: int, ring) -> dict[Partition, object]:
    """Compressed rep of f(X_1) * ... * f(X_n)."""
    _check_arity(n)
    return _sym_reps(fpayloads, n, ring, n)[0]
