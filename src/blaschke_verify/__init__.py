"""Numerical verification of disk zero bounds for Cauchy transforms.

Atomic measures on the unit circle, their Cauchy transforms, rank-one
perturbations of the companion diagonal unitary, unitary dilations, and the
inequality chains tying zero locations to total variation.
"""

from .bounds import (
    BoundReport,
    check_corollary,
    check_jensen_h1,
    check_real_line_variant,
    check_schur_chain,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    summarize,
)
from .dilation import DilationResult, dilate, extract_spectral_measure, roundtrip_check
from .errors import (
    BlaschkeVerifyError,
    InputError,
    NumericalError,
)
from .linalg import NumericalRangeSupport, eigenvalues_clustered
from .measure import (
    AtomicMeasure,
    dirac,
    inverse_shift,
    measure_from_jsonable,
    measure_to_jsonable,
    reflect_measure,
    shift_measure,
    total_variation,
)
from .operator_model import (
    ContractionSystem,
    build_L,
    build_system_from_measure,
    eval_h_resolvent,
    perturbation_determinant,
    rank_one_factors,
    system_from_jsonable,
    system_to_jsonable,
)
from .transform import CauchyFunction, eval_K, eval_h, rational_form, taylor_moment
from .zeros import (
    ZeroSet,
    blaschke_sum,
    match_zero_sets,
    zeros_via_L,
    zeros_via_argument_principle,
    zeros_via_numerator_roots,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure",
    "BlaschkeVerifyError",
    "BoundReport",
    "CauchyFunction",
    "ContractionSystem",
    "DilationResult",
    "InputError",
    "NumericalError",
    "NumericalRangeSupport",
    "ZeroSet",
    "blaschke_sum",
    "build_L",
    "build_system_from_measure",
    "check_corollary",
    "check_jensen_h1",
    "check_real_line_variant",
    "check_schur_chain",
    "check_theorem1",
    "check_theorem2",
    "check_theorem3",
    "dilate",
    "dirac",
    "eigenvalues_clustered",
    "eval_K",
    "eval_h",
    "eval_h_resolvent",
    "extract_spectral_measure",
    "inverse_shift",
    "match_zero_sets",
    "measure_from_jsonable",
    "measure_to_jsonable",
    "perturbation_determinant",
    "rational_form",
    "rank_one_factors",
    "reflect_measure",
    "roundtrip_check",
    "shift_measure",
    "summarize",
    "system_from_jsonable",
    "system_to_jsonable",
    "taylor_moment",
    "total_variation",
    "zeros_via_L",
    "zeros_via_argument_principle",
    "zeros_via_numerator_roots",
]
