"""The package's export list: pinned, so adding or removing a public name
shows as an edit here, and every listed name importable."""

import gframes

PUBLIC = [
    "AlgebraElement", "BESSEL_ONLY", "CHECKS", "CheckFailure", "CheckResult",
    "CommutationReport", "CommutationViolated", "ControlPair",
    "ControlledScenario", "CrossAdjointDiagnostic", "DEFAULT_TOL", "FLAVORS",
    "FRAME", "FrameBounds", "FrameVerdict", "GFrameError", "GFrameFamily",
    "GeneratorSpec", "InvalidSpec", "MeasureMismatch", "MeasurePoint",
    "ModuleOperator", "ModuleVector", "NotAFrame", "NotHermitian",
    "NotPositive", "NotPositiveDefinite", "NotSurjective",
    "PositiveInvertibleOperator", "PreconditionViolated",
    "ReconstructionResult", "SURJECTIVITY_TOL", "SchemaError",
    "TransferResult", "a_valued_abs", "alg_adjoint", "alg_norm", "alg_sqrt",
    "analysis", "bounds_cc_from_plain", "bounds_plain_from_cc",
    "check_sandwich", "classify", "controlled_classify",
    "controlled_frame_operator", "cross_adjoint_resolve", "cross_operator",
    "decide_commutation", "default_batch", "energy_bound_check",
    "frame_operator", "generate", "generate_pair", "gram_sandwich_check",
    "identity_control", "inner", "is_bounded_below", "is_positive",
    "is_surjective", "loewner_leq", "make_positive_invertible",
    "module_action", "op_adjoint", "op_apply", "op_compose", "op_norm",
    "optimal_bounds", "reconstruct", "run_suite", "sandwich_sum",
    "suite_passed", "surjectivity_transfer", "synthesis",
    "synthesis_norm_check", "synthesis_operator", "validate_commutation",
    "vec_norm",
]


def test_public_names_are_pinned():
    assert sorted(gframes.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in gframes.__all__:
        assert getattr(gframes, name) is not None, name
