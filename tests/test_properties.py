"""Property tests: the two norm routes against the Sylvester oracle, and
the membership criterion against exhaustive search, on random inputs.

The examples are drawn under the derandomized profile of conftest.py.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from symmline.norms import norm, norm_symmetric
from symmline.oracles import sylvester_resultant
from symmline.poly import MonicPoly, Poly, PolyRing
from symmline.quotients import MultSet, free_quotient_oracle, is_free_quotient
from symmline.rings import GF, QQ, Zmod, ZZ

RINGS = [
    ZZ,
    QQ,
    Zmod(12),
    Zmod(4),
    GF(5),
    GF(10007),
    PolyRing(ZZ, "T"),
    PolyRing(Zmod(6), "T"),
    PolyRing(PolyRing(ZZ, "T"), "S"),
]


def scalars(ring):
    """Coefficients that ring.value accepts: small ints, k/d for QQ, and
    short polynomials over the base for a tower."""
    if isinstance(ring, PolyRing):
        top = 1 if isinstance(ring.base, PolyRing) else 2
        return st.lists(scalars(ring.base), max_size=top + 1).map(
            lambda cs: Poly(ring.base, cs)
        )
    if ring == QQ:
        return st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
    return st.integers(-9, 9)


@st.composite
def norm_inputs(draw, ring):
    small = isinstance(ring, PolyRing)
    n = draw(st.integers(1, 2 if small else 3))
    low = draw(st.lists(scalars(ring), min_size=n, max_size=n))
    modulus = MonicPoly(Poly(ring, low + [1]))
    size = draw(st.integers(0, 5 if small else 8))
    f = Poly(ring, draw(st.lists(scalars(ring), min_size=size, max_size=size)))
    return modulus, f


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
@given(data=st.data())
def test_norm_routes_match_sylvester(ring, data):
    modulus, f = data.draw(norm_inputs(ring))
    n = modulus.degree
    if f.degree is None or f.degree == 0:
        expected = f.coeff(0) ** n
    else:
        expected = sylvester_resultant(modulus, f)
    assert norm(f, modulus) == expected
    assert norm_symmetric(f, modulus) == expected


@st.composite
def membership_inputs(draw):
    m = draw(st.integers(2, 10))
    n = draw(st.integers(1, 3 if m <= 4 else 2))
    ring = Zmod(m)
    residues = st.integers(0, m - 1)
    modulus = MonicPoly(Poly(ring, draw(st.lists(residues, min_size=n, max_size=n)) + [1]))
    gens = draw(
        st.lists(
            st.lists(residues, min_size=1, max_size=4)
            .map(lambda cs: Poly(ring, cs))
            .filter(lambda g: not g.is_zero),
            min_size=1,
            max_size=2,
        )
    )
    return modulus, MultSet.generated(*gens)


@settings(max_examples=100)
@given(membership_inputs())
def test_criterion_matches_oracle(inputs):
    modulus, mult_set = inputs
    assert is_free_quotient(modulus, mult_set) == free_quotient_oracle(
        modulus, mult_set
    )
