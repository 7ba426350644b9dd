"""Exact symmetric-tensor algebra for the polynomial ring in one
variable: norms and characteristic polynomials of multiplication
operators, resultant identities, the unit-norm criterion for free
quotients of localized polynomial rings, the addition map on symmetric
powers, and finite-field censuses of the admissible monic polynomials.
"""

from .errors import (
    InvariantViolationError,
    NotSymmetricError,
    OracleInfeasibleError,
    ParseError,
    RingMismatchError,
    SymmlineError,
    UnsupportedRingError,
)
from .quotients import (
    MultSet,
    addition_diagonal_check,
    addition_kernel_check,
    addition_map,
    apply_addition,
    count_points,
    free_quotient_oracle,
    is_free_quotient,
    recover_monic,
    section_map,
)
from .homs import RingHom
from .matrices import (
    SquareMatrix,
    char_poly,
    companion_matrix,
    det,
    mult_matrix,
    poly_at_matrix,
)
from .multipoly import MultiPoly, elementary, is_symmetric
from .norms import (
    EvalMap,
    mult_char_poly,
    norm,
    norm_checked,
    norm_symmetric,
    push_norm,
    resultant_symmetry_check,
)
from .poly import (
    MonicPoly,
    Poly,
    PolyRing,
    poly_divmod,
    poly_gcd,
    poly_mod,
)
from .rings import GF, QQ, RingValue, Zmod, ZZ, is_prime
from .symmetric import (
    SymElem,
    SymPoly1,
    decompose,
    diagonal_tensor,
    sym_char_poly,
    sym_ops_of,
)

__all__ = [
    "EvalMap",
    "GF",
    "InvariantViolationError",
    "MonicPoly",
    "MultSet",
    "MultiPoly",
    "NotSymmetricError",
    "OracleInfeasibleError",
    "ParseError",
    "Poly",
    "PolyRing",
    "QQ",
    "RingHom",
    "RingMismatchError",
    "RingValue",
    "SquareMatrix",
    "SymElem",
    "SymPoly1",
    "SymmlineError",
    "UnsupportedRingError",
    "ZZ",
    "Zmod",
    "addition_diagonal_check",
    "addition_kernel_check",
    "addition_map",
    "apply_addition",
    "char_poly",
    "companion_matrix",
    "count_points",
    "decompose",
    "det",
    "diagonal_tensor",
    "elementary",
    "free_quotient_oracle",
    "is_free_quotient",
    "is_prime",
    "is_symmetric",
    "mult_char_poly",
    "mult_matrix",
    "norm",
    "norm_checked",
    "norm_symmetric",
    "poly_at_matrix",
    "poly_divmod",
    "poly_gcd",
    "poly_mod",
    "push_norm",
    "recover_monic",
    "resultant_symmetry_check",
    "section_map",
    "sym_char_poly",
    "sym_ops_of",
]
