"""Refusals of outside input: the one tolerance rule, and each guard of a
public constructor or operation, with its exception type and message."""

import re

import numpy as np
import pytest

from gframes import (AlgebraElement, ControlledScenario, ControlPair,
                     GFrameFamily, MeasureMismatch, MeasurePoint,
                     ModuleOperator, ModuleVector, alg_sqrt, analysis,
                     bounds_cc_from_plain, bounds_plain_from_cc,
                     check_sandwich, classify, controlled_classify,
                     controlled_frame_operator, cross_adjoint_resolve,
                     cross_operator, decide_commutation, default_batch,
                     energy_bound_check, generate, generate_pair,
                     gram_sandwich_check, is_bounded_below, is_positive,
                     is_surjective, loewner_leq, make_positive_invertible,
                     module_action, op_apply, op_compose, optimal_bounds,
                     run_suite, surjectivity_transfer, synthesis,
                     synthesis_norm_check, validate_commutation)
from gframes.generators import GeneratorSpec
from gframes.verifier import DEFAULT_TOL, _evaluate_scenario


@pytest.fixture(scope="module")
def pair_of():
    """A certified commuting (2, 2, 4) scenario, whose points have codomain
    ranks 1, 2, 2, 2, its twin, and a surjective operator with a vector it
    accepts."""
    sc, twin = generate_pair(GeneratorSpec(seed=3, n=2, d=2, m=4, flavor="commuting"))
    controlled_frame_operator(sc)  # certify the pair on the family up front
    t = ModuleOperator(2, 2, 1, np.eye(4, 2))
    return sc, twin, t, ModuleVector(2, 2, np.ones((2, 4)))


# Every public function that takes a tolerance, called on valid inputs.
TOL_TAKERS = {
    "is_positive": lambda o, tol: is_positive(AlgebraElement.identity(2), tol),
    "loewner_leq": lambda o, tol: loewner_leq(AlgebraElement.zero(2),
                                              AlgebraElement.identity(2), tol),
    "alg_sqrt": lambda o, tol: alg_sqrt(AlgebraElement.identity(2), tol),
    "ControlPair": lambda o, tol: ControlPair(o[0].pair.c, o[0].pair.cp, tol),
    "classify": lambda o, tol: classify(o[0].family, tol),
    "optimal_bounds": lambda o, tol: optimal_bounds(o[0].family, tol),
    "controlled_classify": lambda o, tol: controlled_classify(o[0], tol),
    "is_bounded_below": lambda o, tol: is_bounded_below(o[2], tol),
    "is_surjective": lambda o, tol: is_surjective(o[2], tol),
    "make_positive_invertible": lambda o, tol: make_positive_invertible(
        ModuleOperator.identity(2, 2), tol),
    "run_suite": lambda o, tol: run_suite(default_batch()[:2], tol),
    "validate_commutation": lambda o, tol: validate_commutation(
        o[0].family, o[0].pair.c, o[0].pair.cp, tol),
    "decide_commutation": lambda o, tol: decide_commutation(
        o[0].family, o[0].pair.c, o[0].pair.cp, tol),
    "synthesis_norm_check": lambda o, tol: synthesis_norm_check(o[0], tol),
    "cross_adjoint_resolve": lambda o, tol: cross_adjoint_resolve(
        o[0].family, o[1], o[0].pair, tol),
    "surjectivity_transfer": lambda o, tol: surjectivity_transfer(
        o[0].family, o[1], o[0].pair, tol),
    "check_sandwich": lambda o, tol: check_sandwich(o[0].family, 0.5, 2.0, 2, 0, tol),
    "energy_bound_check": lambda o, tol: energy_bound_check(o[2], o[3], tol),
    "gram_sandwich_check": lambda o, tol: gram_sandwich_check(o[2], tol),
}


@pytest.mark.parametrize("name", TOL_TAKERS)
def test_every_tolerance_taker_accepts_a_valid_tol(name, pair_of):
    TOL_TAKERS[name](pair_of, DEFAULT_TOL)


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf], ids=["nan", "negative", "inf"])
@pytest.mark.parametrize("name", TOL_TAKERS)
def test_every_tolerance_taker_refuses_a_bad_tol_before_any_decomposition(
        name, tol, pair_of, calls):
    # at an infinite tol every order, certificate and closed form would pass
    with pytest.raises(ValueError, match=re.escape(
            f"tol must be nonnegative and finite, got {tol!r}")):
        TOL_TAKERS[name](pair_of, tol)
    assert [len(calls[k]) for k in ("svd", "eigvalsh", "qr")] == [0, 0, 0]


def test_controlled_classify_refuses_a_bad_tol_before_its_certificate(pair_of, calls):
    # a pair that fails its certificate on the family, after 14 SVDs
    c = make_positive_invertible(ModuleOperator(2, 2, 2, np.diag([1.0, 2.0, 3.0, 4.0])))
    scenario = ControlledScenario(pair_of[0].family, ControlPair(c, c))
    calls["svd"].clear()
    with pytest.raises(ValueError, match="tol must be nonnegative and finite, got nan"):
        controlled_classify(scenario, np.nan)
    assert calls["svd"] == []


def _with_point(family, i, point):
    points = list(family.points)
    points[i] = point
    return GFrameFamily(family.algebra_dim, family.module_rank, tuple(points))


def _twins(o):
    """Twins over another measure: another module, one point short, and a
    point of another codomain rank; a zero point passes any certificate."""
    twin = o[1]
    p = twin.points[0]  # of codomain rank 1
    return {
        "module": generate(GeneratorSpec(seed=3, n=2, d=3, m=4)).family,
        "count": GFrameFamily(2, 2, twin.points[:3]),
        "rank": _with_point(twin, 0, MeasurePoint(
            p.weight, ModuleOperator.zero(2, 2, 3))),
    }


# Each guard: what is called, the exception and the whole message.
GUARDS = {
    "cross_operator_modules": (
        lambda o: cross_operator(o[0].family, _twins(o)["module"], o[0].pair),
        MeasureMismatch, "families live over different modules"),
    "cross_operator_count": (
        lambda o: cross_operator(o[0].family, _twins(o)["count"], o[0].pair),
        MeasureMismatch, "point counts differ: 4 vs 3"),
    "cross_operator_rank": (
        lambda o: cross_operator(o[0].family, _twins(o)["rank"], o[0].pair),
        MeasureMismatch, "codomain ranks differ at point 0"),
    # the evaluator certifies a case by building its cross operator
    "evaluator_modules": (
        lambda o: _evaluate_scenario(o[0], _twins(o)["module"], 3, DEFAULT_TOL),
        MeasureMismatch, "families live over different modules"),
    "evaluator_count": (
        lambda o: _evaluate_scenario(o[0], _twins(o)["count"], 3, DEFAULT_TOL),
        MeasureMismatch, "point counts differ: 4 vs 3"),
    "evaluator_rank": (
        lambda o: _evaluate_scenario(o[0], _twins(o)["rank"], 3, DEFAULT_TOL),
        MeasureMismatch, "codomain ranks differ at point 0"),
    "scenario_shape": (
        lambda o: ControlledScenario(_twins(o)["module"], o[0].pair),
        ValueError, "control shape does not match the family"),
    "analysis_vector": (
        lambda o: analysis(o[0], ModuleVector.zero(2, 3)),
        ValueError, "vector does not live in the family's module"),
    "synthesis_count": (
        lambda o: synthesis(o[0], [ModuleVector.zero(2, 1)] * 3),
        ValueError, "expected 4 coefficient vectors, got 3"),
    "synthesis_shape": (
        lambda o: synthesis(o[0], [ModuleVector.zero(2, 4)] * 4),
        ValueError, "coefficient shape (2, 4) does not match point codomain (2, 1)"),
    "bounds_plain_from_cc": (
        lambda o: bounds_plain_from_cc(0.0, 1.0, o[0].pair.c),
        ValueError, "bounds must be positive and finite"),
    "bounds_plain_from_cc_nan": (
        lambda o: bounds_plain_from_cc(np.nan, 1.0, o[0].pair.c),
        ValueError, "bounds must be positive and finite"),
    "bounds_cc_from_plain": (
        lambda o: bounds_cc_from_plain(1.0, -1.0, o[0].pair.c),
        ValueError, "bounds must be positive and finite"),
    "bounds_cc_from_plain_inf": (
        lambda o: bounds_cc_from_plain(1.0, np.inf, o[0].pair.c),
        ValueError, "bounds must be positive and finite"),
    "empty_family": (
        lambda o: GFrameFamily(2, 2, ()),
        ValueError, "a family needs at least one point"),
    "check_sandwich_bounds": (
        lambda o: check_sandwich(o[0].family, 0.0, 1.0, 2, 0),
        ValueError, "bounds must be positive and finite"),
    # NaN bounds once reached the order check as non-finite matrix entries
    "check_sandwich_nan_bound": (
        lambda o: check_sandwich(o[0].family, np.nan, 1.0, 2, 0),
        ValueError, "bounds must be positive and finite"),
    # a seed outside 64 bits once wrapped round to another seed's vectors
    "check_sandwich_negative_seed": (
        lambda o: check_sandwich(o[0].family, 0.5, 2.0, 2, -1),
        ValueError, "seed must be a 64-bit nonnegative integer, got -1"),
    "check_sandwich_seed_over_64_bits": (
        lambda o: check_sandwich(o[0].family, 0.5, 2.0, 2, 1 << 64),
        ValueError, "seed must be a 64-bit nonnegative integer, got 18446744073709551616"),
    "check_sandwich_samples": (
        lambda o: check_sandwich(o[0].family, 0.5, 2.0, 0, 0),
        ValueError, "need at least one sample"),
    "operator_ranks": (
        lambda o: ModuleOperator(2, 0, 1, np.zeros((0, 2))),
        ValueError, "algebra_dim and ranks must be positive"),
    "operator_shape": (
        lambda o: ModuleOperator(2, 2, 2, np.zeros((3, 4))),
        ValueError, "action must have shape (4, 4), got (3, 4)"),
    "op_apply": (
        lambda o: op_apply(ModuleOperator.identity(2, 2), ModuleVector.zero(2, 3)),
        ValueError, "operator domain (2, 2) does not accept vector of shape (2, 3)"),
    "op_compose": (
        lambda o: op_compose(ModuleOperator.zero(2, 3, 1), ModuleOperator.zero(2, 2, 2)),
        ValueError, "composition shape mismatch"),
    "positive_not_square": (
        lambda o: make_positive_invertible(ModuleOperator.zero(2, 2, 3)),
        ValueError, "positive operators must be square"),
    "vector_rank": (
        lambda o: ModuleVector(2, 0, np.zeros((2, 0))),
        ValueError, "algebra_dim and rank must be positive"),
    "vector_shape": (
        lambda o: ModuleVector(2, 2, np.zeros((2, 3))),
        ValueError, "flat must have shape (2, 4), got (2, 3)"),
    "from_no_blocks": (
        lambda o: ModuleVector.from_blocks([]),
        ValueError, "need at least one block"),
    "from_ragged_blocks": (
        lambda o: ModuleVector.from_blocks([np.eye(2), np.eye(3)]),
        ValueError, "block 1 has shape (3, 3), expected (2, 2)"),
    "block_index": (
        lambda o: ModuleVector.zero(2, 2).block(2),
        IndexError, "block index 2 out of range for rank 2"),
    "module_action": (
        lambda o: module_action(AlgebraElement.identity(3), ModuleVector.zero(2, 2)),
        ValueError, "dimension mismatch: 3 vs 2"),
    "algebra_dims": (
        lambda o: AlgebraElement.identity(2) + AlgebraElement.identity(3),
        ValueError, "dimension mismatch: 2 vs 3"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_every_input_guard_refuses_with_its_message(name, pair_of):
    call, exc, message = GUARDS[name]
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call(pair_of)


def test_scalar_and_negation_operators_act_entrywise():
    x = ModuleVector(2, 1, np.arange(4).reshape(2, 2))
    for y in (x * 2j, 2j * x):
        assert np.array_equal(y.flat, 2j * x.flat) and (y.algebra_dim, y.rank) == (2, 1)
    a = AlgebraElement(np.arange(4).reshape(2, 2))
    assert np.array_equal((-a).entries, -a.entries)
