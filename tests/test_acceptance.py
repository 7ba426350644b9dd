"""Acceptance suite: every selftest check at release size.

The properties live in symmline.selftest.CHECKS, and this module runs
them at release size: it says how many times each runs, over fresh
seeds, and over which ranges the exhaustive sweeps behind
criterion-oracle-agreement and census-counts run.  The coprimality
sweep runs at full range as tests/test_quotients.py::
test_coprimality_exhaustive.  Unit tests elsewhere keep worked examples,
error paths, routing guards and oracles that no check uses; a unit test
named for a check's property runs that check through run_check, over
seeds of its own.  Each test here prints one PASS line, visible under
`pytest -s` or `pytest -v -rA`.
"""

import pytest

from symmline.rings import GF, Zmod
from symmline.selftest import CHECKS, _census_sweep, _criterion_sweep, run_check

# check name -> runs, each with its own seed; a check not named runs once.
# The release criteria behind the counts: 1 thm24-equivalence (1000
# pairs per ring), 2 resultant-symmetry (500 pairs), 3 push-norm (200
# per reduction), 5 recover-similarity (100 per ring), 6
# section-identity (50 random elements) with section-partial and
# addition-kernel, 7 addition-diagonal (100 cases), 10 split-root-oracle
# (150 per ring), 11 symmetric-roundtrip (500 elements).  The x2 rows
# give 40 ring-axiom triples per ring, 30 constant-term moduli per
# ring, 40 addition-homomorphism pairs and 30 sym-ops specializations.
REPETITIONS = {
    "ring-axioms": 2,
    "norm-constant-term": 2,
    "addition-homomorphism": 2,
    "sym-ops-specialize": 2,
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
    runs = REPETITIONS.get(name, 1)
    detail = run_check(name, runs)  # a name the table invents fails here
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
    # the gens:X,X^2+X+1 (coprime) and gens:X+1,X^2+X (sharing X+1)
    # families against the oracle ride along
    detail = _census_sweep(
        (2, 3, 5), (1, 2, 3), ("local-at", "all-nonzero", "gens", "gens-shared")
    )
    print(f"census sweep ({detail}): PASS")
