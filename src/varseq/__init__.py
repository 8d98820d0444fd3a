"""Variable-exponent sequence spaces and the fractional maximal operator.

Core objects: integer-lattice sequences, exponent functions with tail decay,
the Luxemburg norm, the fractional maximal operator M_alpha, dyadic
stopping-time decompositions with their covering and domination bounds, and
a reproducible empirical verification harness with a CLI front end.
"""

from .lattice import (
    Sequence,
    ZInterval,
    cardinality,
    dilate,
    dyadic_block,
    interval_sum,
    truncate,
)
from .exponent import (
    ExponentFunction,
    LHConstant,
    check_lh_equivalences,
    conjugate,
    fractional_conjugate,
    lh_infinity_constant,
)
from .norm import (
    ModularValue,
    NormValue,
    characteristic_norm,
    characteristic_norms,
    check_norm_modular_relations,
    check_scaling_bounds,
    luxemburg_norm,
    modular,
)
from .maximal import (
    MaximalEvaluator,
    MaximalProfile,
    m_alpha_point,
    m_alpha_profile,
    superlevel_set,
)
from .czd import (
    CZDecomposition,
    LevelSetPartition,
    alpha_average,
    covering_check,
    cz_decompose,
    cz_nesting_check,
    domination_check,
    level_set_partition,
)
from .harness import (
    CorpusItem,
    CorpusSpec,
    VerificationReport,
    XorShift64Star,
    check_holder_variant,
    check_key_comparison,
    estimate_strong_type,
    estimate_weak_type,
    generate_corpus,
    run_verification_suite,
)

__version__ = "0.1.0"

__all__ = [
    "ZInterval",
    "Sequence",
    "cardinality",
    "dilate",
    "dyadic_block",
    "interval_sum",
    "truncate",
    "ExponentFunction",
    "LHConstant",
    "lh_infinity_constant",
    "conjugate",
    "fractional_conjugate",
    "check_lh_equivalences",
    "ModularValue",
    "NormValue",
    "modular",
    "luxemburg_norm",
    "characteristic_norm",
    "characteristic_norms",
    "check_scaling_bounds",
    "check_norm_modular_relations",
    "MaximalProfile",
    "MaximalEvaluator",
    "m_alpha_point",
    "m_alpha_profile",
    "superlevel_set",
    "CZDecomposition",
    "LevelSetPartition",
    "alpha_average",
    "cz_decompose",
    "cz_nesting_check",
    "covering_check",
    "level_set_partition",
    "domination_check",
    "XorShift64Star",
    "CorpusSpec",
    "CorpusItem",
    "VerificationReport",
    "generate_corpus",
    "check_holder_variant",
    "check_key_comparison",
    "estimate_strong_type",
    "estimate_weak_type",
    "run_verification_suite",
    "__version__",
]
