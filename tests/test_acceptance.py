"""Acceptance suite: every selftest check at release size.

The properties live in symmline.selftest.CHECKS; this module only says
how many times each runs, over fresh seeds, and over which ranges the
exhaustive sweeps run.  Each test prints one PASS line, visible
under `pytest -s` or `pytest -v -rA`.
"""

from random import Random

import pytest

from symmline.rings import GF, Zmod
from symmline.selftest import CHECKS, DEFAULT_SEED, _census_sweep, _criterion_sweep

# check name -> runs, each with its own seed; a check not named runs once.
# The release criteria behind the counts: 1 thm24-equivalence (1000
# pairs per ring), 2 resultant-symmetry (500 pairs), 3 push-norm (200
# per reduction), 5 recover-similarity (100 per ring), 6
# section-identity (50 random elements) with section-partial and
# addition-kernel, 7 addition-diagonal (100 cases), 10 split-root-oracle
# (150 per ring), 11 symmetric-roundtrip (500 elements).
REPETITIONS = {
    "thm24-equivalence": 25,
    "resultant-symmetry": 13,
    "push-norm": 20,
    "recover-similarity": 10,
    "section-identity": 4,
    "addition-diagonal": 5,
    "split-root-oracle": 10,
    "symmetric-roundtrip": 17,
}


@pytest.mark.parametrize("name", sorted({n for n, _ in CHECKS} | set(REPETITIONS)))
def test_check(name):
    check = dict(CHECKS)[name]  # a name the table invents fails here
    runs = REPETITIONS.get(name, 1)
    for i in range(runs):
        detail = check(Random(f"{DEFAULT_SEED}:{name}:{i}"))
    print(f"{name} x{runs} ({detail}): PASS")


def test_criterion_sweep():
    # criterion 4: every monic F of degree 1..3 against every g of degree <= 2
    detail = _criterion_sweep((Zmod(4), GF(3)), (1, 2, 3), 2)
    print(f"criterion sweep ({detail}): PASS")


def test_criterion_8_census_trivial():
    # criterion 8: the whole line has q^n points, q in {2, 3, 5}, n <= 3
    detail = _census_sweep((2, 3, 5), (1, 2, 3), ("trivial",))
    print(f"census sweep ({detail}): PASS")


def test_criterion_9_census_local_and_generic():
    # criterion 9: one point at the origin, none at the generic point;
    # the gens:X,X^2+X+1 family against the oracle rides along
    detail = _census_sweep((2, 3, 5), (1, 2, 3), ("local-at", "all-nonzero", "gens"))
    print(f"census sweep ({detail}): PASS")
