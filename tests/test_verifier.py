"""Randomized property suite: coverage, gating, determinism, failure capture."""

import dataclasses

import pytest

from gframes import (CHECKS, GeneratorSpec, default_batch, run_suite,
                     suite_passed)
from gframes.verifier import EMPIRICAL_CHECKS

EXPECTED_IDS = {
    "op_energy_bound",
    "gram_sandwich",
    "plain_frame_sandwich",
    "controlled_frame_sandwich",
    "norm_characterization",
    "cc_equivalence_bounds",
    "synthesis_norm_bound",
    "cross_operator_norm_bound",
    "cross_adjoint_identity",
    "surjectivity_transfer",
    "bound_product_probe",
}


def small_batch():
    return [
        GeneratorSpec(seed=100, n=1, d=1, m=2, flavor="generic"),
        GeneratorSpec(seed=101, n=2, d=2, m=4, flavor="commuting"),
        GeneratorSpec(seed=102, n=2, d=2, m=4, flavor="parseval"),
        GeneratorSpec(seed=103, n=2, d=2, m=4, flavor="bessel_only"),
        GeneratorSpec(seed=104, n=3, d=2, m=3, flavor="commuting"),
        GeneratorSpec(seed=105, n=1, d=3, m=5, flavor="generic"),
    ]


def test_static_check_table():
    # one check per verified statement; the id set is the coverage contract
    assert set(CHECKS) == EXPECTED_IDS
    assert EMPIRICAL_CHECKS == {"bound_product_probe"}
    for check_id, description in CHECKS.items():
        assert isinstance(description, str) and description


def test_suite_passes_on_small_batch():
    results = run_suite(small_batch())
    assert suite_passed(results)
    by_id = {r.check_id: r for r in results}
    assert set(by_id) == EXPECTED_IDS
    for r in results:
        assert r.passes + len(r.failures) == r.scenarios_run


def test_results_sorted_by_check_id():
    results = run_suite(small_batch())
    ids = [r.check_id for r in results]
    assert ids == sorted(ids)


def test_gating_skips_non_frames():
    results = run_suite([GeneratorSpec(seed=103, n=2, d=2, m=4,
                                       flavor="bessel_only")])
    by_id = {r.check_id: r for r in results}
    # frame-hypothesis checks run nothing on a bessel_only scenario
    assert by_id["gram_sandwich"].scenarios_run == 0
    assert by_id["surjectivity_transfer"].scenarios_run == 0
    # Bessel-level checks still run and pass
    assert by_id["op_energy_bound"].scenarios_run == 1
    assert by_id["synthesis_norm_bound"].scenarios_run == 1
    assert suite_passed(results)


def test_parseval_batch_all_normative_pass():
    batch = [GeneratorSpec(seed=s, n=2, d=2, m=4, flavor="parseval")
             for s in range(700, 710)]
    results = run_suite(batch)
    for r in results:
        if r.check_id not in EMPIRICAL_CHECKS:
            assert r.status == "pass"
            assert not r.failures


def test_tiny_tolerance_forces_failures_with_seeds():
    batch = small_batch()
    results = run_suite(batch, tol=1e-18)
    assert not suite_passed(results)
    failed = [r for r in results if r.status == "fail"]
    assert failed
    batch_seeds = {s.seed for s in batch}
    for r in failed:
        for f in r.failures:
            assert f.seed in batch_seeds
            assert f.residual >= 0.0
            assert f.detail


def test_failure_reproduces_bit_identically():
    results = run_suite(small_batch(), tol=1e-18)
    again = run_suite(small_batch(), tol=1e-18)
    for r1, r2 in zip(results, again):
        assert r1.check_id == r2.check_id
        assert r1.passes == r2.passes
        assert [dataclasses.astuple(f) for f in r1.failures] == \
               [dataclasses.astuple(f) for f in r2.failures]


def test_probe_is_always_empirical():
    results = run_suite(small_batch())
    by_id = {r.check_id: r for r in results}
    assert by_id["bound_product_probe"].status == "empirical"
    # empirical outcomes never block the suite
    assert suite_passed(results)


def test_empty_batch_rejected():
    with pytest.raises(ValueError):
        run_suite([])


# Operator builds and op_norm calls of one (2, 2, 4) scenario, generation
# included.  Left after sharing: the parseval generator normalizes family and
# twin; surjectivity_transfer builds the twin's synthesis and both controlled
# operators; the commuting generator certifies two controls.
SCENARIO_BUILDS = {
    "generic": {"frame_operator": 1, "controlled_frame_operator": 5,
                "synthesis_operator": 2, "op_norm": 14},
    "commuting": {"frame_operator": 1, "controlled_frame_operator": 5,
                  "synthesis_operator": 2, "op_norm": 16},
    "parseval": {"frame_operator": 3, "controlled_frame_operator": 5,
                 "synthesis_operator": 2, "op_norm": 14},
    "bessel_only": {"frame_operator": 1, "controlled_frame_operator": 3,
                    "synthesis_operator": 1, "op_norm": 10},
}


@pytest.mark.parametrize("flavor", sorted(SCENARIO_BUILDS))
def test_scenario_builds_each_operator_once(calls, flavor):
    run_suite([GeneratorSpec(seed=7, n=2, d=2, m=4, flavor=flavor)])
    expected = SCENARIO_BUILDS[flavor]
    assert {name: len(calls[name]) for name in expected} == expected


def test_suite_constructs_no_wrappers(calls):
    run_suite(small_batch(), tol=1e-18)
    assert calls["ModuleVector"] == []
    assert calls["AlgebraElement"] == []


def test_default_batch_shape():
    batch = default_batch()
    assert len(batch) == 200
    assert len({s.seed for s in batch}) == 200
    for s in batch:
        assert s.n <= 3 and s.d <= 6 and s.m <= 8
    flavors = {s.flavor for s in batch}
    assert flavors == {"generic", "commuting", "parseval", "bessel_only"}
