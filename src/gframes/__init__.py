"""Controlled operator-valued frames over matrix algebras.

Finite-dimensional realization of continuous frame families whose members
take values in a module over the square complex matrices.  Everything is
computable: frame operators, optimal bounds, controlled variants with a
commuting pair of positive invertible operators, synthesis and analysis
maps, reconstruction, and a randomized verifier that exercises the
structural identities the theory promises.
"""

# Each submodule and the public names it defines.  ``import gframes`` loads
# no submodule: a name or submodule is imported on its first read.
_EXPORTS = {
    "algebra": ("DEFAULT_TOL", "AlgebraElement", "alg_adjoint", "alg_norm",
                "alg_sqrt", "is_positive", "loewner_leq"),
    "controlled": ("CommutationReport", "ControlPair", "ControlledScenario",
                   "CrossAdjointDiagnostic", "ReconstructionResult",
                   "TransferResult", "analysis", "bounds_cc_from_plain",
                   "bounds_plain_from_cc", "controlled_classify",
                   "controlled_frame_operator", "cross_adjoint_resolve",
                   "cross_operator", "decide_commutation", "reconstruct",
                   "surjectivity_transfer", "synthesis",
                   "synthesis_norm_check", "synthesis_operator",
                   "validate_commutation"),
    "errors": ("CommutationViolated", "GFrameError", "InvalidSpec",
               "MeasureMismatch", "NotAFrame", "NotHermitian", "NotPositive",
               "NotPositiveDefinite", "NotSurjective", "PreconditionViolated",
               "SchemaError"),
    "frames": ("BESSEL_ONLY", "FRAME", "FrameBounds", "FrameVerdict",
               "GFrameFamily", "MeasurePoint", "check_sandwich", "classify",
               "frame_operator", "optimal_bounds", "sandwich_sum"),
    "generators": ("FLAVORS", "GeneratorSpec", "generate", "generate_pair"),
    "module_space": ("ModuleVector", "a_valued_abs", "inner", "module_action",
                     "vec_norm"),
    "operators": ("SURJECTIVITY_TOL", "ModuleOperator",
                  "PositiveInvertibleOperator", "energy_bound_check",
                  "gram_sandwich_check", "identity_control",
                  "is_bounded_below", "is_surjective",
                  "make_positive_invertible", "op_adjoint", "op_apply",
                  "op_compose", "op_norm"),
    "rng": (),
    "verifier": ("CHECKS", "CheckFailure", "CheckResult", "default_batch",
                 "run_suite", "suite_passed"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:
        # importing a submodule binds it here, so this runs once per module
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    # kept, so later reads are plain lookups.  A first read while a caller
    # has swapped the submodule's function for a wrapper keeps the wrapper:
    # perfbench's tracer and the tests' counters read nothing this way
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_HOME})
