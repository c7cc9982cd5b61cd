"""Controlled operator-valued frames over matrix algebras.

Finite-dimensional realization of continuous frame families whose members
take values in a module over the square complex matrices.  Everything is
computable: frame operators, optimal bounds, controlled variants with a
commuting pair of positive invertible operators, synthesis and analysis
maps, reconstruction, and a randomized verifier that exercises the
structural identities the theory promises.
"""

from .algebra import (DEFAULT_TOL, AlgebraElement, alg_adjoint, alg_norm,
                      alg_sqrt, is_positive, loewner_leq)
from .controlled import (CommutationReport, ControlPair, ControlledScenario,
                         CrossAdjointDiagnostic, ReconstructionResult,
                         TransferResult, analysis, bounds_cc_from_plain,
                         bounds_plain_from_cc, controlled_classify,
                         controlled_frame_operator, cross_adjoint_resolve,
                         cross_operator, decide_commutation,
                         make_control_pair, make_scenario, reconstruct,
                         surjectivity_transfer, synthesis,
                         synthesis_norm_check, synthesis_operator,
                         validate_commutation)
from .errors import (CommutationViolated, GFrameError, InvalidSpec,
                     MeasureMismatch, NotAFrame, NotHermitian, NotPositive,
                     NotPositiveDefinite, NotSurjective, PreconditionViolated,
                     SchemaError)
from .frames import (BESSEL_ONLY, FRAME, FrameBounds, FrameVerdict,
                     GFrameFamily, MeasurePoint, check_sandwich, classify,
                     frame_operator, optimal_bounds, sandwich_sum)
from .generators import FLAVORS, GeneratorSpec, generate, generate_pair
from .module_space import (ModuleVector, a_valued_abs, inner, module_action,
                           vec_norm)
from .operators import (SURJECTIVITY_TOL, ModuleOperator,
                        PositiveInvertibleOperator, energy_bound_check,
                        gram_sandwich_check, identity_control, is_bounded_below,
                        is_surjective, make_positive_invertible, op_adjoint,
                        op_apply, op_compose, op_norm)
from .verifier import (CHECKS, CheckFailure, CheckResult, default_batch,
                       run_suite, suite_passed)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement", "ModuleVector", "ModuleOperator",
    "PositiveInvertibleOperator", "GFrameFamily", "MeasurePoint",
    "FrameBounds", "FrameVerdict", "ControlPair", "ControlledScenario",
    "CommutationReport", "CrossAdjointDiagnostic", "TransferResult",
    "ReconstructionResult", "GeneratorSpec", "CheckFailure", "CheckResult",
    "GFrameError", "NotPositive", "NotHermitian", "NotPositiveDefinite",
    "NotSurjective", "NotAFrame", "CommutationViolated", "MeasureMismatch",
    "PreconditionViolated", "InvalidSpec", "SchemaError",
    "alg_adjoint", "alg_norm", "alg_sqrt", "is_positive", "loewner_leq",
    "inner", "a_valued_abs", "vec_norm", "module_action",
    "op_apply", "op_adjoint", "op_compose", "op_norm",
    "energy_bound_check", "gram_sandwich_check", "is_bounded_below",
    "is_surjective", "make_positive_invertible", "identity_control",
    "frame_operator", "optimal_bounds", "classify", "sandwich_sum",
    "check_sandwich", "make_control_pair", "make_scenario",
    "validate_commutation", "decide_commutation", "controlled_frame_operator",
    "controlled_classify",
    "synthesis", "analysis", "synthesis_operator", "synthesis_norm_check",
    "cross_operator", "cross_adjoint_resolve", "bounds_plain_from_cc",
    "bounds_cc_from_plain", "surjectivity_transfer", "reconstruct",
    "generate", "generate_pair", "default_batch", "run_suite", "suite_passed",
    "FRAME", "BESSEL_ONLY", "FLAVORS", "CHECKS",
    "DEFAULT_TOL", "SURJECTIVITY_TOL",
]
