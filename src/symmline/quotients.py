"""Free rank-n quotients of localized polynomial rings, and point counts.

A multiplicatively closed subset U of A[X] is described by a MultSet:
trivial {1}, finitely generated, the local set {f : f(a) is a unit}, or
all nonzero polynomials over a domain.  A monic F of degree n is
admissible for U exactly when every element of U has unit norm with
respect to F, which by norm multiplicativity only needs checking on
generators.  The admissible F are precisely the monic generators of
ideals with free rank-n quotient, so counting them over GF(q) counts
the GF(q)-points of the corresponding parameter scheme.

A generator g of degree d >= 1 whose leading coefficient a is a unit
is decided on its own side of the resultant: with g = a*h, h monic,

    N_F(g) = (-1)^(nd) * a^n * N_h(F),

an identity in the coefficients that holds over every commutative ring,
so N_F(g) is a unit exactly when N_h(F) is.  When d < n that is a d x d
determinant instead of an n x n one.  Every other generator (degree 0,
a leading coefficient that is not a unit, or d >= n) keeps the norm
N_F(g) itself.  Over GF(q) every nonconstant generator has a unit
leading coefficient, so the census takes the generator side whenever
d < n.  Over a field N_F(g) is a unit exactly when gcd(F, g) = 1, which
depends only on F mod H, H the product of the monic associates: for
deg H <= n, G -> (X^n + G) mod H over deg G < n is onto with fibres of
size q^(n - deg H).  Group the generators into blocks, the connected
components of "shares a factor"; the block products H_b are pairwise
coprime, so by the Chinese remainder theorem (Rosen, Number Theory in
Function Fields, ch. 1) F mod H is the tuple of the F mod H_b, and F
is admissible exactly when it is admissible for each block.  On each
block, R -> (X^n + R) mod H_b over deg R < deg H_b is a bijection onto
the residues, so count_points tests the q^(deg H_b) candidates
X^n + R of each block and multiplies the block counts by
q^(n - deg H).  The other three kinds are closed forms, which
count_points returns without a candidate: trivial admits all q^n monic
F; all-nonzero admits none, as F lies in U and has norm 0; and the
local set at a admits exactly one monic F, (X - a)^n, so its count is 1.

free_quotient_oracle decides the same membership by exhaustive search
for an inverse residue, touching neither norms nor determinants; it is
the independent route the criterion is tested against.

The addition map sends the symmetric ring on n letters to the symmetric
ring on n-1 letters tensored with one polynomial factor, on the basis
symbols e_i -> e_i + e_(i-1)*X (with e_0 = 1 and e_n = 0 downstairs).
Its section recovers e_i upstairs recursively, and its kernel contains
the generic monic polynomial of sym_char_poly(X, n).  Both are ring
maps given by their images of e_1, e_2, ..., extended X-linearly;
_substitute applies such a map in one _sparse_eval over flat SymElems
of arity k+1 in (e_1..e_k, X), X going to itself, and splits the value
by the power of X.  addition_map and apply_addition write their images
flat, and section_map builds its images by the recursion on SymPoly1
and flattens them.
"""

from __future__ import annotations

import operator
from itertools import product
from math import comb

from .errors import (
    CENSUS_BOUND,
    ORACLE_SEARCH_BOUND,
    OracleInfeasibleError,
    UnsupportedRingError,
    _agree,
)
from .matrices import SquareMatrix, char_poly, poly_at_matrix
from .multipoly import _sparse_eval
from .norms import norm
from .poly import MonicPoly, Poly, poly_gcd
from .rings import PrimeField, Ring, RingValue, ZmodRing, ZZ, _check_rings
from .symmetric import (
    SymElem,
    SymPoly1,
    SymRing,
    diagonal_tensor,
    sym_char_poly,
    sym_ops_of,
)

class MultSet:
    """A multiplicatively closed subset of the polynomial ring.

    monic_gens holds, for each generator g, its monic associate
    g / lc(g), built once here; it is None when deg g = 0 or lc(g) is
    not a unit, and is_free_quotient then uses g itself.
    """

    __slots__ = ("ring", "kind", "gens", "point", "monic_gens")

    def __init__(self, ring: Ring, kind: str, gens=(), point=None):
        self.ring = ring
        self.kind = kind
        self.gens = tuple(gens)
        self.point = point
        self.monic_gens = tuple(_monic_associate(g) for g in self.gens)

    @classmethod
    def trivial(cls, ring: Ring) -> MultSet:
        return cls(ring, "trivial")

    @classmethod
    def generated(cls, *gens: Poly) -> MultSet:
        if not gens:
            raise ValueError("need at least one generator")
        ring = gens[0].ring
        for g in gens:
            _check_rings(g.ring, ring)
            if g.is_zero:
                raise ValueError("generators must be nonzero")
        return cls(ring, "generated", gens)

    @classmethod
    def local_at(cls, point: RingValue) -> MultSet:
        return cls(point.ring, "local-at", point=point)

    @classmethod
    def all_nonzero(cls, ring: Ring) -> MultSet:
        if not ring.is_domain:
            raise UnsupportedRingError(
                f"all-nonzero needs an integral domain, got {ring.name}"
            )
        return cls(ring, "all-nonzero")

    def diagonal_power(self, n: int) -> list[SymElem]:
        """Diagonal tensors of the generators: the generators of the
        diagonal image of this set in the symmetric ring (together with
        1, which the closure always contains)."""
        if self.kind == "trivial":
            return []
        if self.kind == "generated":
            return [diagonal_tensor(g, n) for g in self.gens]
        raise UnsupportedRingError(
            f"diagonal generators are not finitely presented for {self.kind}"
        )

    def describe(self) -> str:
        if self.kind == "generated":
            return "gens:" + ",".join(str(g) for g in self.gens)
        if self.kind == "local-at":
            return f"local-at:{self.point}"
        return self.kind

    def __repr__(self):
        return f"MultSet({self.ring.name}, {self.describe()})"


def _monic_associate(g: Poly) -> MonicPoly | None:
    """g / lc(g) when deg g >= 1 and lc(g) is a unit, else None."""
    if not g.degree:
        return None
    inv = g.leading.try_inverse()
    return None if inv is None else MonicPoly(g.scale(inv))


def is_free_quotient(modulus: MonicPoly, mult_set: MultSet) -> bool:
    """Whether A[X]/(F) maps isomorphically onto A[X]_U/(F): the norm
    of every element of U is a unit, decided on generators in order,
    stopping at the first that fails.

    A generator with a monic associate h of degree below deg F is
    decided by whether N_h(F) is a unit, which by the resultant identity
    in the module docstring is the same question as whether N_F(g) is;
    any other generator g by N_F(g) itself.
    """
    ring = modulus.ring
    _check_rings(ring, mult_set.ring)
    if mult_set.kind == "trivial":
        return True
    if mult_set.kind == "generated":
        n = modulus.degree
        for g, monic in zip(mult_set.gens, mult_set.monic_gens):
            if monic is not None and monic.degree < n:
                unit = norm(modulus, monic).is_unit()
            else:
                unit = norm(g, modulus).is_unit()
            if not unit:
                return False
        return True
    if mult_set.kind == "local-at":
        if not ring.is_field:
            raise UnsupportedRingError(
                "local-at membership is only decidable over a field base"
            )
        return _is_power_of_linear(modulus, mult_set.point.payload)
    if mult_set.kind == "all-nonzero":
        # F itself lies in U and has norm zero
        return False
    raise ValueError(f"unknown kind {mult_set.kind!r}")


def _is_power_of_linear(modulus: MonicPoly, a) -> bool:
    """Whether F = (X - a)^n, for a payload a: the X^k coefficient of
    (X - a)^n is C(n, k) * (-a)^(n-k), checked on payloads from the top."""
    ring = modulus.ring
    n = modulus.degree
    mul = ring._mul
    neg_a = ring._neg(a)
    power = ring._from_int(1)  # (-a)^(n-k)
    for k, c in zip(range(n, -1, -1), reversed(modulus._payload_coeffs)):
        if c != mul(ring._from_int(comb(n, k)), power):
            return False
        power = mul(power, neg_a)
    return True


def free_quotient_oracle(modulus: MonicPoly, mult_set: MultSet) -> bool:
    """Exhaustive-search route for the same membership: every generator
    must have an inverse residue modulo F, found by trying all of them.

    Only finite modular bases and finitely generated sets are in range;
    independent of norms, determinants, and symmetric functions.
    """
    ring = modulus.ring
    if not isinstance(ring, ZmodRing):
        raise UnsupportedRingError(
            f"oracle needs a finite modular base, got {ring.name}"
        )
    if mult_set.kind != "generated":
        raise UnsupportedRingError(
            f"oracle needs a finitely generated set, got {mult_set.kind}"
        )
    _check_rings(mult_set.ring, ring)
    m = ring.modulus
    n = modulus.degree
    if m**n > ORACLE_SEARCH_BOUND:
        raise OracleInfeasibleError(
            f"{m}^{n} residues exceed the search bound {ORACLE_SEARCH_BOUND}"
        )
    fc = modulus._payload_coeffs
    for g in mult_set.gens:
        gc = _int_mod(g._payload_coeffs, fc, n, m)
        if not _has_inverse(gc, fc, n, m):
            return False
    return True


def _int_mod(coeffs, fc, n, m):
    """Reduce an int coefficient list modulo the monic fc, mod m."""
    rem = [c % m for c in coeffs]
    for k in range(len(rem) - 1, n - 1, -1):
        c = rem[k]
        if c:
            for i in range(n + 1):
                rem[k - n + i] = (rem[k - n + i] - c * fc[i]) % m
    rem = rem[:n]
    rem += [0] * (n - len(rem))
    return rem


def _has_inverse(gc, fc, n, m):
    for cand in product(range(m), repeat=n):
        prod_len = 2 * n - 1
        acc = [0] * prod_len
        for i, a in enumerate(gc):
            if a:
                for j, b in enumerate(cand):
                    if b:
                        acc[i + j] = (acc[i + j] + a * b) % m
        acc = _int_mod(acc, fc, n, m)
        if acc[0] == 1 and all(c == 0 for c in acc[1:]):
            return True
    return False


def recover_monic(theta: SquareMatrix) -> MonicPoly:
    """The unique monic polynomial generating the kernel of the natural
    map onto a free rank-n quotient whose X-action is theta: its
    characteristic polynomial.  Verifies F(theta) = 0 before returning."""
    result = char_poly(theta)
    zero = SquareMatrix.zero(theta.ring, theta.n)
    _agree(poly_at_matrix(result, theta), zero, "F(theta) and the zero matrix")
    return result


def _flat(coeffs) -> dict:
    """The payloads of sum_j coeffs[j] * X^j, for SymElem coeffs, with
    the exponent of X as the last slot of each exponent tuple."""
    return {
        expo + (j,): c
        for j, coeff in enumerate(coeffs)
        for expo, c in coeff._payload_terms.items()
    }


def _substitute(coeffs, images, sym: SymRing) -> SymPoly1:
    """sum_j coeffs[j](e_i -> images[i-1]) * X^j over sym, for SymElem
    coeffs and flat images, SymElems of arity k+1 over (e_1..e_k, X),
    k = sym.arity: the ring map e_i -> images[i-1], X -> X, evaluated
    once on the flat input and split by the exponent of X."""
    ring, k = sym.base, sym.arity
    flat = SymRing(ring, k + 1)
    x = SymElem._from_payloads(ring, k + 1, {(0,) * k + (1,): ring._from_int(1)})
    value = _sparse_eval(
        ring, _flat(coeffs), [*images, x], flat._const, operator.add, operator.mul
    )
    terms = value._payload_terms
    parts = [{} for _ in range(max((e[-1] for e in terms), default=-1) + 1)]
    for expo, c in terms.items():
        parts[expo[-1]][expo[:-1]] = c
    return SymPoly1._from_payloads(
        sym, [SymElem._from_payloads(ring, k, part) for part in parts]
    )


def _addition_images(sym: SymRing) -> list[SymElem]:
    """Images of e_1..e_n downstairs, over sym = SymRing(base, k = n-1),
    flat over (e_1..e_k, X): e_i + e_(i-1)*X, with e_n = 0 there."""
    ring, k = sym.base, sym.arity
    e = [SymElem.e(i, k, ring) for i in range(k + 1)] + [sym._zero]
    return [
        SymElem._from_payloads(ring, k + 1, _flat((e[i], e[i - 1])))
        for i in range(1, k + 2)
    ]


def _downstairs(ring: Ring, arity: int) -> SymRing:
    """The symmetric ring of arity n-1 the addition map lands in, for an
    arity n >= 1."""
    if arity < 1:
        raise ValueError("arity must be >= 1")
    return SymRing(ring, arity - 1)


def addition_map(s: SymElem) -> SymPoly1:
    """Apply the addition homomorphism to an arity-n symmetric element;
    the result has symmetric coefficients of arity n-1."""
    sym = _downstairs(s.ring, s.arity)
    return _substitute((s,), _addition_images(sym), sym)


def apply_addition(t: SymPoly1) -> SymPoly1:
    """Extend the addition map X-linearly to polynomials in the outer X."""
    sym = _downstairs(t.ring.base, t.arity)
    return _substitute(t.coeffs, _addition_images(sym), sym)


def section_map(t: SymPoly1) -> SymPoly1:
    """The recursive section of the addition map: on basis symbols,
    p(e_i) = e_i' - p(e_(i-1))*X, raising arity by one."""
    k = t.arity
    ring = t.ring.base
    sym = SymRing(ring, k + 1)
    images = [SymPoly1._from_payloads(sym, (sym._one,))]
    for i in range(1, k + 1):
        upstairs = SymPoly1._from_payloads(sym, (SymElem.e(i, k + 1, ring),))
        images.append(upstairs - images[i - 1].shift(1))
    flat = [SymElem._from_payloads(ring, k + 2, _flat(p.coeffs)) for p in images[1:]]
    return _substitute(t.coeffs, flat, sym)


def addition_kernel_check(n: int, ring: Ring = ZZ) -> bool:
    """Whether the generic monic polynomial of degree n dies under the
    addition map, the computation behind the kernel statement."""
    generic = sym_char_poly(Poly.gen(ring), n)
    return apply_addition(generic).is_zero


def addition_diagonal_check(f: Poly, n: int) -> bool:
    """Whether the addition map carries the diagonal tensor of f to the
    one-variable-shorter diagonal tensor times f(X), and likewise each
    symmetric operator to s_i' + s_(i-1)'*f(X).  That identity adjoins
    one variable to the operators of n - 1 variables; the kernel
    (_symbasis.sym_ops_reps) builds them from a closed form instead, so
    the identity checks it independently."""
    if n < 2:
        raise ValueError("need arity >= 2")
    ring = f.ring
    lhs = addition_map(diagonal_tensor(f, n))
    rhs = SymPoly1.lift_poly(f, n - 1).scale(diagonal_tensor(f, n - 1))
    if lhs != rhs:
        return False
    ops_hi = sym_ops_of(f, n)
    ops_lo = sym_ops_of(f, n - 1)
    f_lift = SymPoly1.lift_poly(f, n - 1)
    for i in range(1, n + 1):
        left = addition_map(ops_hi[i - 1])
        const = (
            SymPoly1.from_symelem(ops_lo[i - 1])
            if i <= n - 1
            else SymPoly1.zero(ring, n - 1)
        )
        prev = ops_lo[i - 2] if i >= 2 else SymElem.one(ring, n - 1)
        if left != const + f_lift.scale(prev):
            return False
    return True


def _coprime_blocks(mult_set: MultSet) -> list[MultSet]:
    """The generators split into blocks, the connected components of
    "shares a factor" (a poly_gcd of positive degree), each a generated
    MultSet; [mult_set] itself when it is a single block, found without
    a gcd when it has fewer than two generators."""
    if len(mult_set.gens) < 2:
        return [mult_set]
    blocks: list[list[Poly]] = []
    for g in mult_set.gens:
        shares = [any(poly_gcd(g, h).degree for h in block) for block in blocks]
        merged = [h for block, s in zip(blocks, shares) if s for h in block]
        blocks = [block for block, s in zip(blocks, shares) if not s]
        blocks.append(merged + [g])
    if len(blocks) == 1:
        return [mult_set]
    return [MultSet.generated(*block) for block in blocks]


def _admitted(ring: PrimeField, n: int, d: int, mult_set: MultSet) -> int:
    """How many X^n + c_(d-1) X^(d-1) + ... + c_0 are admissible for
    mult_set, (c_0..c_(d-1)) running over itertools.product of residues
    0..q-1, c_0 slowest, each sent to is_free_quotient in that order."""
    monic = MonicPoly._from_monic_payloads
    top = (0,) * (n - d) + (1,)
    return sum(
        is_free_quotient(monic(ring, low + top), mult_set)
        for low in product(range(ring.modulus), repeat=d)
    )


def count_points(q: int, n: int, mult_set: MultSet, workers: int = 1) -> int:
    """Number of monic degree-n polynomials over GF(q) that generate a
    free rank-n quotient of the localization at the given set.

    trivial counts q^n, all-nonzero 0 and local-at 1, in closed form
    after the checks below.  For a generated set membership depends
    only on F mod H (module docstring), H of degree D = sum of deg g.
    For D > n every monic F is a candidate.  For D <= n the set is
    split into _coprime_blocks, of degrees D_b, and the count is
    q^(n-D) times the product over the blocks of the admissible
    X^n + R, deg R < D_b: sum_b q^(D_b) candidates in place of q^n.
    A single block is the set itself, so one generator, or generators
    that all share factors, test the q^D candidates X^n + R, deg R < D,
    against mult_set.  Each candidate is built by the trusted
    MonicPoly._from_monic_payloads: its payloads (the residues, zeros,
    then GF(q)'s one, 1) are canonical and it equals
    MonicPoly(Poly(ring, ...)) under ==, hash and str.
    Generators with a unit leading coefficient and degree below n are
    decided by a determinant of their own degree; see is_free_quotient.
    workers is ignored.  CENSUS_BOUND caps q^n, not the candidates.
    """
    ring = PrimeField(q)
    _check_rings(mult_set.ring, ring)
    if n < 1:
        raise ValueError("n must be >= 1")
    # q >= 2, so q**n exceeds the bound once n passes its bit length; test
    # that first, as the power alone would take minutes for a huge n
    if n > CENSUS_BOUND.bit_length() or q**n > CENSUS_BOUND:
        raise OracleInfeasibleError(
            f"{q}^{n} polynomials exceed the census bound {CENSUS_BOUND}"
        )
    if mult_set.kind == "trivial":
        return q**n
    if mult_set.kind == "all-nonzero":
        return 0
    if mult_set.kind == "local-at":
        return 1
    total = sum(g.degree for g in mult_set.gens)
    if total > n:
        return _admitted(ring, n, n, mult_set)
    count = q ** (n - total)
    for block in _coprime_blocks(mult_set):
        count *= _admitted(ring, n, sum(g.degree for g in block.gens), block)
    return count
