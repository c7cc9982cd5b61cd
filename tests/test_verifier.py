"""Randomized property suite: coverage, gating, determinism, failure capture."""

import dataclasses
import math

import numpy as np

import pytest

from gframes import (CHECKS, GeneratorSpec, default_batch, generate,
                     generate_pair, op_norm, run_suite, suite_passed,
                     surjectivity_transfer)
from gframes.rng import _rekey, complex_normal, stream
from gframes import controlled, verifier
from gframes.verifier import EMPIRICAL_CHECKS, _hmin, _order_violation

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


def test_scalar_transfer_gate_holds_below_tol(monkeypatch):
    # a scalar transfer 1e-10 off is not tight at SCALAR_TIGHT_TOL, though
    # it is within the default tol of 1e-9
    real = verifier.bounds_plain_from_cc

    def loose(lower, upper, c):
        b = real(lower, upper, c)
        return dataclasses.replace(b, lower=b.lower * (1 + 1e-10))
    monkeypatch.setattr(verifier, "bounds_plain_from_cc", loose)
    results = run_suite([GeneratorSpec(seed=5, n=1, d=1, m=3, flavor="commuting")])
    r = {r.check_id: r for r in results}["cc_equivalence_bounds"]
    assert (r.passes, r.scenarios_run, r.status) == (0, 1, "fail")
    [f] = r.failures
    assert f.detail == "scalar transfer not tight"
    assert 1e-10 <= f.residual <= 1.1e-10


def test_transfer_off_its_floor_is_recorded(monkeypatch):
    # a derived bound above the twin's controlled floor is a failed check in
    # the suite, while the library call still raises
    real = controlled.synthesis_operator

    def inflated(scenario):
        t = real(scenario)
        return dataclasses.replace(t, action=t.action * (1 + 1e-6))
    monkeypatch.setattr(controlled, "synthesis_operator", inflated)
    spec = GeneratorSpec(seed=101, n=2, d=2, m=4, flavor="commuting")
    results = run_suite([spec])
    r = {r.check_id: r for r in results}["surjectivity_transfer"]
    assert (r.passes, r.scenarios_run, r.status) == (0, 1, "fail")
    [f] = r.failures
    assert f.detail == "derived bound does not certify the twin"
    assert 3.7e-6 <= f.residual <= 3.8e-6
    sc, twin = generate_pair(spec)
    with pytest.raises(ArithmeticError, match="exceeds the spectral floor"):
        surjectivity_transfer(sc.family, twin, sc.pair)


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
# included.  A plain frame operator is built once per family and kept, so
# its builds are the distinct families it is called on.  Left after
# sharing: the parseval generator normalizes family and twin; the
# scenario, its same-control pair and the twin each take one controlled
# operator, which conjugates the plain operator of its family; one cross
# operator serves every two-family check, its norm taken once by the
# adjoint diagnostic, and the transfer step of a frame
# builds the twin's synthesis.  op_norm is left with the synthesis norm
# and the control norms nothing took yet: a certified control comes with
# its norm, an identity control takes its norm and inverse norm for the
# bound probe of a frame, and the transferred bounds of a frame take
# C^-1's.  The point norms and the Hermitian-ness norms come from stacked
# SVDs, which op_norm does not see.
SCENARIO_BUILDS = {
    "generic": {"frame_operator": 2, "controlled_frame_operator": 3,
                "synthesis_operator": 2, "cross_operator": 1, "op_norm": 3},
    "commuting": {"frame_operator": 2, "controlled_frame_operator": 3,
                  "synthesis_operator": 2, "cross_operator": 1, "op_norm": 2},
    "parseval": {"frame_operator": 4, "controlled_frame_operator": 3,
                 "synthesis_operator": 2, "cross_operator": 1, "op_norm": 3},
    "bessel_only": {"frame_operator": 2, "controlled_frame_operator": 3,
                    "synthesis_operator": 1, "cross_operator": 1, "op_norm": 1},
}


@pytest.mark.parametrize("flavor", sorted(SCENARIO_BUILDS))
def test_scenario_builds_each_operator_once(calls, flavor):
    run_suite([GeneratorSpec(seed=7, n=2, d=2, m=4, flavor=flavor)])
    expected = SCENARIO_BUILDS[flavor]
    counts = {name: len(calls[name]) for name in expected}
    # the call log keeps every family alive, so no two share an id
    counts["frame_operator"] = len({id(f) for f in calls["frame_operator"]})
    assert counts == expected


# Spectral norms, SVDs and eigvalsh calls of the same scenario.  Every
# spectral_norm left is an op_norm above, so norm2 reads op_norm's count.
# Every other norm comes from a stacked SVD: one
# per codomain rank for the point norms, one for the Hermitian-ness of the
# distinct operators, one for the norm characterization of a frame, one
# for the cross adjoint's three norms and its smallest singular value, which
# the surjectivity transfer reads, one per certified control for its
# norm and asymmetry, and one per order check with a failing slice for the
# scales of all its failing slices; a certificate takes none, since its
# Frobenius bound passes every commutator here.  Which slices of a tight
# order check fail by roundoff follows the operators' last bits.  The four
# verdicts take one eigvalsh, and each order check one more.
SCENARIO_NORMS = {
    "bessel_only": {"norm2": 1, "svd": 8, "eigvalsh": 4},
    "commuting": {"norm2": 2, "svd": 12, "eigvalsh": 8},
    "generic": {"norm2": 3, "svd": 11, "eigvalsh": 8},
    "parseval": {"norm2": 3, "svd": 13, "eigvalsh": 8},
}


@pytest.mark.parametrize("flavor", sorted(SCENARIO_NORMS))
def test_scenario_spectral_norm_count(calls, flavor):
    run_suite([GeneratorSpec(seed=7, n=2, d=2, m=4, flavor=flavor)])
    expected = SCENARIO_NORMS[flavor]
    assert {name: len(calls[name]) for name in expected} == expected


@pytest.mark.parametrize("flavor,slices", [("generic", 2), ("commuting", 4)])
def test_verdicts_stack_each_distinct_operator_once(calls, flavor, slices):
    # identity controls make the controlled and same-control operators the
    # plain one, so a generic scenario stacks that and the twin's
    run_suite([GeneratorSpec(seed=7, n=2, d=2, m=4, flavor=flavor)])
    assert calls["eigvalsh"][0].shape == (slices, 4, 4)


def reference_order_violation(a, b):
    """``_order_violation`` with its scale always taken: inf where ``b - a``
    is not finite or its smallest eigenvalue is NaN."""
    scale = max(1.0, float(np.linalg.norm(a, 2)), float(np.linalg.norm(b, 2)))
    h = _hmin(b - a)
    if not np.isfinite(b - a).all() or np.isnan(h):
        return math.inf
    return max(0.0, -h / scale)


def hermitian(seed, k, rank=None):
    """Seeded Hermitian k x k matrix, positive semidefinite of ``rank``
    when a rank is given."""
    g = complex_normal(stream(seed, 0), (k, k if rank is None else rank))
    return g @ g.conj().T if rank is not None else g + g.conj().T


ORDER_CASES = {
    "equal": lambda a: (a, a.copy()),
    "plus_psd": lambda a: (a, a + hermitian(2, a.shape[0], a.shape[0])),
    "minus_eps": lambda a: (a, a - 1e-9 * np.eye(a.shape[0])),
    "rank_deficient": lambda a: (hermitian(3, a.shape[0], 1),
                                 hermitian(3, a.shape[0], 1) + a @ a),
    "rank_deficient_fails": lambda a: (a @ a, hermitian(3, a.shape[0], 1)),
}


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("case", sorted(ORDER_CASES))
def test_order_violation_matches_reference_bit_for_bit(case, k):
    a, b = ORDER_CASES[case](hermitian(1, k))
    got = _order_violation(a, b)
    ref = reference_order_violation(a, b)
    assert got == ref
    assert math.copysign(1.0, got) == math.copysign(1.0, ref)


def reference_fold(a, b):
    """Per-slice ``reference_order_violation`` over two stacks, folded in
    stack order as the sampled checks fold them."""
    viol = 0.0
    for i in np.ndindex(a.shape[:-2]):
        viol = max(viol, reference_order_violation(a[i], b[i]))
    return viol


@pytest.mark.parametrize("seed", range(6))
def test_stacked_order_violation_matches_per_slice_fold(seed):
    # each stack mixes slices that hold, fail and are rank deficient, in a
    # seeded order, so the fold order and the skipped scales both show
    k = 1 + seed % 4
    cases = [ORDER_CASES[c](hermitian(10 * seed + j, k))
             for j, c in enumerate(sorted(ORDER_CASES) * 2)]
    order = stream(seed, 1).permutation(len(cases))
    a = np.stack([cases[j][0] for j in order]).reshape(2, -1, k, k)
    b = np.stack([cases[j][1] for j in order]).reshape(2, -1, k, k)
    got = _order_violation(a, b)
    assert got == reference_fold(a, b)
    assert got > 0.0
    assert _order_violation(a[:, :0], b[:, :0]) == 0.0


def test_stacked_order_violation_with_a_nan_slice_raises():
    eye = np.eye(2)
    nan = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        _order_violation(np.stack([eye, eye, eye]),
                         np.stack([2 * eye, nan, eye]))


def test_stacked_order_violation_inf_slice_takes_the_scale(calls):
    eye = np.eye(2)
    inf = np.array([[np.inf, 0.0], [0.0, 1.0]])
    a, b = np.stack([eye, eye, eye]), np.stack([2 * eye, inf, 3 * eye])
    assert _order_violation(a, b) == reference_fold(a, b)
    # the scale norms of the inf slice only, from one SVD of (a[1], b[1])
    assert calls["norm2"] == []
    (scales,) = calls["svd"]
    assert scales.shape == (2, 1, 2, 2)
    assert np.isinf(scales[1]).any()


@pytest.mark.parametrize("k", range(1, 13))
def test_stacked_decompositions_match_per_slice_bit_for_bit(k):
    # every stacked svd and eigvalsh of the library rests on this: LAPACK
    # takes each slice of a stack alone, so no value moves by stacking
    a = complex_normal(stream(k, 0), (5, k, k + 1))
    square = a[..., :k]
    h = square + square.conj().swapaxes(-1, -2)
    for stack in (a, square):
        tops = np.linalg.svd(stack, compute_uv=False)[..., 0]
        for i in range(5):
            assert tops[i] == np.linalg.svd(stack[i], compute_uv=False)[0]
    w = np.linalg.eigvalsh(h)
    for i in range(5):
        assert w[i].tobytes() == np.linalg.eigvalsh(h[i]).tobytes()
    # and so does every stacked QR of the generators
    z = a[..., :k]
    q, r = np.linalg.qr(z)
    for i in range(5):
        qi, ri = np.linalg.qr(z[i])
        assert q[i].tobytes() == qi.tobytes()
        assert r[i].tobytes() == ri.tobytes()


def test_stacked_svd_with_a_nan_slice_raises():
    eye = np.eye(2, dtype=np.complex128)
    nan = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=np.complex128)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.svd(np.stack([eye, nan, eye]), compute_uv=False)


def test_sample_vectors_are_successive_complex_normal_draws():
    spec = GeneratorSpec(seed=11, n=2, d=3, m=1)
    rng = stream(spec.seed, verifier._CHECK_STREAM + 2)
    expected = np.stack([complex_normal(rng, (2, 6)) for _ in range(4)])
    # a generator left mid-stream elsewhere is re-keyed first
    used = stream(5, 9)
    used.uniform(size=3)
    assert verifier._sample_vectors(used, spec, 2, 4).tobytes() == expected.tobytes()


def test_point_norms_are_op_norms_bit_for_bit():
    points = generate(GeneratorSpec(seed=12, n=2, d=2, m=6)).family.points
    assert len({p.codomain_rank for p in points}) == 3
    assert verifier._point_norms(points) == [op_norm(p.lam) for p in points]


def test_order_violation_on_nan_takes_the_scale():
    # eigvalsh may report finite eigenvalues for a NaN matrix; the SVD of
    # the scale fails on it, and the order check must still reach that SVD
    a = np.eye(2)
    b = np.array([[np.nan, 0.0], [0.0, 1.0]])
    for order_violation in (_order_violation, reference_order_violation):
        with pytest.raises(np.linalg.LinAlgError):
            order_violation(a, b)


def test_order_violation_on_a_non_finite_failing_slice_is_inf():
    # eigvalsh gives NaN for diag(-inf, 0) and the SVD of the scale gives NaN
    # without raising; neither may fold the violation away
    a, b = np.eye(2), np.diag([-np.inf, 1.0])
    assert _order_violation(a, b) == math.inf
    worse = np.ones((2, 2))
    assert _order_violation(np.stack([a, a, a]),
                            np.stack([2 * a, b, a - worse])) == math.inf


def test_order_check_takes_no_scale_norm_when_it_holds(calls):
    a = hermitian(4, 6)
    b = a + hermitian(5, 6, 6)
    assert _order_violation(a, b) == 0.0
    assert _order_violation(a, a.copy()) == 0.0
    assert calls["svd"] == []
    assert _order_violation(b, a) > 0.0
    # both scale norms from one SVD
    assert len(calls["svd"]) == 1 and calls["norm2"] == []


def test_default_batch_eigh_count(monkeypatch):
    # eigh: two controls per commuting or bessel_only spec, family and twin
    # renormalization per parseval spec, and one product root per commuting
    # or bessel_only scenario; a same-control pair's root is its control,
    # and the generic and parseval flavors pair one identity with itself.  Order checks: one stacked
    # check per sampled check, one for the gram sandwich and one for the
    # transferred bounds of a frame, each one eigvalsh; the other eigvalsh
    # calls are the gram floors and the verdict spectra, the four verdicts
    # of a scenario in one call.
    seen = {"eigh": [], "eigvalsh": [], "order": []}

    def counting(log, real):
        def call(a, *args, **kwargs):
            log.append(a)
            return real(a, *args, **kwargs)
        return call
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name,
                            counting(seen[name], getattr(np.linalg, name)))
    monkeypatch.setattr(verifier, "_order_violation",
                        counting(seen["order"], _order_violation))
    run_suite(default_batch())
    assert {name: len(log) for name, log in seen.items()} == \
        {"eigh": 400, "eigvalsh": 1400, "order": 900}


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


REKEY_SEEDS = (0, 2**64 - 1)
REKEY_INDICES = (0, 1, 2**32, 3 << 32)


def _draws(rng):
    return (rng.standard_normal(7).tobytes() + rng.uniform(0.5, 1.5, 5).tobytes()
            + rng.integers(1, 4, size=9).tobytes() + rng.standard_normal(3).tobytes())


def test_rekeyed_generator_draws_as_a_new_stream():
    rng = stream(123, 456)
    held = stream(7, 3)
    first = _draws(held)
    for seed in REKEY_SEEDS:
        for index in REKEY_INDICES:
            # left mid-buffer by a bounded integer draw and a normal draw
            rng.integers(0, 10, size=3)
            rng.standard_normal(1)
            assert _rekey(rng, seed, index) is rng
            assert _draws(rng) == _draws(stream(seed, index)), (seed, index)
    # a generator held meanwhile goes on where it stopped
    fresh = stream(7, 3)
    assert _draws(fresh) == first
    assert _draws(held) == _draws(fresh)


@pytest.mark.parametrize("order", range(4))
def test_outcomes_do_not_depend_on_batch_neighbours(order):
    # specs share one re-keyed Philox and one QR stack per size, so each
    # spec's outcomes must be those it gets alone; at tol 1e-18 the order
    # checks fail too, so their residual bits are compared as well
    tol = 1e-18 if order % 2 else verifier.DEFAULT_TOL
    full = default_batch()
    batch = [full[i] for i in
             np.random.default_rng(order).choice(len(full), 12, replace=False)]
    together = {r.check_id: r for r in run_suite(batch, tol)}
    alone = [{r.check_id: r for r in run_suite([s], tol)} for s in batch]
    for cid, r in together.items():
        assert r.scenarios_run == sum(a[cid].scenarios_run for a in alone)
        assert r.passes == sum(a[cid].passes for a in alone)
        failures = sorted((f for a in alone for f in a[cid].failures),
                          key=lambda f: (f.seed, f.detail))
        assert [(f.seed, f.detail, np.float64(f.residual).tobytes())
                for f in r.failures] == [
            (f.seed, f.detail, np.float64(f.residual).tobytes())
            for f in failures]
