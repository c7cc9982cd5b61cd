"""Randomized property suite: coverage, gating, determinism, failure capture."""

import dataclasses
import math
import sys

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gframes import (CHECKS, GeneratorSpec, default_batch, generate,
                     generate_pair, op_norm, run_suite, suite_passed,
                     surjectivity_transfer)
from gframes.algebra import (_hmin, _order_violations, _per_shape, _sandwich,
                             _top_singular, spectral_norm)
from gframes.rng import _rekey, complex_normal, stream
from gframes import algebra, controlled, verifier
from gframes import serialization as ser
from gframes.controlled import ControlledScenario, ControlPair, controlled_classify
from gframes.errors import CommutationViolated, MeasureMismatch
from gframes.frames import (FRAME, GFrameFamily, MeasurePoint, classify,
                            sandwich_sum)
from gframes.module_space import ModuleVector, inner
from gframes.operators import (ModuleOperator, identity_control,
                               make_positive_invertible)
from gframes.verifier import EMPIRICAL_CHECKS

from test_report_bytes import HANDWRITTEN


def _order_violation(a, b):
    """``_order_violations`` of the one pair of stacks ``a`` and ``b``."""
    return _order_violations(a[None], b[None])[0]


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
    # the relative excess of a bound inflated by (1 + 1e-6)**2
    assert 1.99e-6 <= f.residual <= 2.0e-6
    sc, twin = generate_pair(spec)
    with pytest.raises(ArithmeticError, match="exceeds the spectral floor"):
        surjectivity_transfer(sc.family, twin, sc.pair)


def test_a_mixed_operator_that_is_not_surjective_is_recorded():
    # a twin whose actions all lose their last row: the mixed operator
    # misses one direction, so the transfer has no bound to give, while
    # every other check passes
    sc, twin = generate_pair(GeneratorSpec(seed=7, n=2, d=2, m=4))
    cut = np.diag([1.0, 1.0, 1.0, 0.0]).astype(np.complex128)
    twin = GFrameFamily(2, 2, tuple(
        MeasurePoint(p.weight, ModuleOperator(2, 2, p.codomain_rank,
                                              cut @ p.lam.action))
        for p in twin.points))
    out = verifier._evaluate_scenario(sc, twin, 7, verifier.DEFAULT_TOL)
    assert out.pop("surjectivity_transfer") == verifier._Outcome(
        False, 1.0, "mixed operator not surjective")
    assert all(o.ok for o in out.values())
    assert surjectivity_transfer(sc.family, twin, sc.pair) == \
        controlled.TransferResult(False, None)


@pytest.mark.parametrize("flavor", ["generic", "commuting", "parseval", "bessel_only"])
def test_outcomes_at_the_spectrum_floor_match_the_ceiling(flavor):
    # controls at the generators' floor and at their ceiling, one spectrum
    # times 1e300 the other: every check reads alike, and the norm bounds
    # take their roots before a product of bounds can underflow
    outs = []
    for spectrum in ((1e-150, 2e-150), (5e149, 1e150)):
        spec = GeneratorSpec(seed=1, n=2, d=2, m=4, flavor=flavor,
                             spectrum_range=spectrum)
        out = verifier._evaluate_scenario(*generate_pair(spec), 1, verifier.DEFAULT_TOL)
        outs.append({cid: o.ok for cid, o in out.items()})
    assert outs[0] == outs[1]
    assert all(ok for cid, ok in outs[0].items() if cid not in EMPIRICAL_CHECKS)


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
# scenario and the twin each take one controlled operator, which
# conjugates the plain operator of its family, and the same-control
# operator C S C is formed from the plain one by hand; one cross
# operator serves every two-family check, its norm taken once by the
# adjoint diagnostic, and the transfer step of a frame
# builds the twin's synthesis.  op_norm is left with the control norms
# nothing took yet: a certified control comes with its norm, an identity
# control takes its norm and inverse norm for the bound probe of a frame,
# and the transferred bounds of a frame take C^-1's.  The synthesis norm
# is a spectral_norm, and the point norms and the Hermitian-ness norms
# come from stacked SVDs, none of which op_norm sees.
SCENARIO_BUILDS = {
    "generic": {"frame_operator": 2, "controlled_frame_operator": 2,
                "synthesis_operator": 2, "cross_operator": 1, "op_norm": 2},
    "commuting": {"frame_operator": 2, "controlled_frame_operator": 2,
                  "synthesis_operator": 2, "cross_operator": 1, "op_norm": 1},
    "parseval": {"frame_operator": 4, "controlled_frame_operator": 2,
                 "synthesis_operator": 2, "cross_operator": 1, "op_norm": 2},
    "bessel_only": {"frame_operator": 2, "controlled_frame_operator": 2,
                    "synthesis_operator": 1, "cross_operator": 1, "op_norm": 0},
}


@pytest.mark.parametrize("flavor", sorted(SCENARIO_BUILDS))
def test_scenario_builds_each_operator_once(calls, flavor):
    run_suite([GeneratorSpec(seed=7, n=2, d=2, m=4, flavor=flavor)])
    expected = SCENARIO_BUILDS[flavor]
    counts = {name: len(calls[name]) for name in expected}
    # the call log keeps every family alive, so no two share an id
    counts["frame_operator"] = len({id(f) for f in calls["frame_operator"]})
    assert counts == expected


def test_same_control_operator_is_the_library_one(monkeypatch):
    # the verifier's C S C has the bits of controlled_frame_operator on the
    # pair (C, C), and an identity C leaves the plain operator itself
    groups, quads = [], []

    def record_group(cases, tol):
        groups.extend(cases)
        return real_group(cases, tol)

    def record_verdicts(ops, *args):
        quads.extend(zip(*[iter(ops)] * 4))
        return real_verdicts(ops, *args)

    real_group, real_verdicts = verifier._evaluate_group, verifier._verdicts
    monkeypatch.setattr(verifier, "_evaluate_group", record_group)
    monkeypatch.setattr(verifier, "_verdicts", record_verdicts)
    run_suite(default_batch())
    assert len(groups) == len(quads) == 200
    identities = 0
    for (sc, *_), (plain, _, same, _) in zip(groups, quads):
        c = sc.pair.c
        assert plain is verifier.frame_operator(sc.family)
        cc = ControlledScenario(sc.family, ControlPair(c, c, sc.pair.tol))
        assert (same.action.tobytes()
                == controlled.controlled_frame_operator(cc).action.tobytes())
        if c.is_identity:
            identities += 1
            assert same is plain
    assert 0 < identities < 200


def test_suite_builds_one_control_pair_per_scenario(monkeypatch):
    built = []
    real = ControlPair.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(ControlPair, "__post_init__", counting)
    run_suite(default_batch())
    assert len(built) == 200


# Spectral norms, SVDs and eigvalsh calls of the same scenario.  The
# synthesis norm is a spectral_norm of its own, and every other
# spectral_norm is an op_norm above, so norm2 reads op_norm's count plus
# one.  Every other norm comes from a stacked SVD: one per codomain rank
# for the point norms, one for the Hermitian-ness of the distinct
# operators, one for the norm characterization of a frame, one for the
# cross adjoint's three norms and its smallest singular value, which the
# surjectivity transfer reads, one per certified control for its norm and
# asymmetry, and one per order check with a failing slice for the scales
# of all its failing slices; a certificate takes none, since its Frobenius
# bound passes every commutator here.  Which slices of a tight order check
# fail by roundoff follows the operators' last bits.  The four verdicts
# take one eigvalsh, and each order check one more.
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


@pytest.mark.parametrize("flavor", ["generic", "commuting"])
def test_verdicts_give_a_repeated_operator_the_same_bits(calls, flavor):
    # identity controls make the controlled and same-control operators the
    # plain one; each slice of the verdicts' stack has the eigenvalues it
    # has alone, so a repeated operator gets the same bits every time
    run_suite([GeneratorSpec(seed=7, n=2, d=2, m=4, flavor=flavor)])
    stack = calls["eigvalsh"][0]
    got = np.linalg.eigvalsh(stack)
    for a, w in zip(stack, got):
        assert np.array_equal(np.linalg.eigvalsh(a), w)
    if flavor == "generic":
        assert np.array_equal(got[0], got[1]) and np.array_equal(got[0], got[2])


def reference_order_violation(a, b):
    """``_order_violation`` with its scale always taken: inf where ``b - a``
    is not finite or its smallest eigenvalue is NaN."""
    scale = max(sys.float_info.min, float(np.linalg.norm(a, 2)),
                float(np.linalg.norm(b, 2)))
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


def psd_stack(seed, shape, k):
    """Seeded stack of full-rank positive semidefinite k x k matrices."""
    return np.stack([hermitian(seed + j, k, k)
                     for j in range(math.prod(shape))]).reshape(shape + (k, k))


def test_sandwich_per_case_bounds_match_the_fold_bit_for_bit():
    # a None lower bound checks that case's upper side only
    k, lo, hi = 3, [0.03, None, 0.05, None, 0.004], [160.0, 18.0, 90.0, 100.0, 140.0]
    xx, val = psd_stack(20, (5, 4), k), psd_stack(60, (5, 4), k)
    got = _sandwich(lo, hi, xx, val)
    ref = [max(0.0 if l is None else reference_fold(l * x, v),
               reference_fold(v, h * x)) for l, h, x, v in zip(lo, hi, xx, val)]
    assert got == ref
    assert got[0] == got[1] == got[4] == 0.0 and got[2] > 0.0 and got[3] > 0.0


def test_sandwich_per_slice_bound_pairs_match_the_fold_bit_for_bit():
    # the cc_equivalence_bounds form: one (lower, upper) pair per slice
    k = 4
    val = psd_stack(30, (3, 2), k)
    lo = np.array([[0.1, 0.04], [0.1, 0.1], [0.1, 0.4]])
    hi = np.array([[7.0, 9.0], [10.0, 10.0], [6.0, 9.0]])
    eye = np.eye(k)
    got = _sandwich(lo, hi, eye, val)
    ref = [max(max(reference_fold(l * eye, v), reference_fold(v, h * eye))
               for l, h, v in zip(ls, hs, vs)) for ls, hs, vs in zip(lo, hi, val)]
    assert got == ref
    assert got[0] == 0.0 and got[1] > 0.0 and got[2] > 0.0


def test_sandwich_upper_only_matches_the_fold_bit_for_bit():
    # the upper side only, with a bound per case and slice broadcast over
    # that case's samples; op_energy_bound passes one bound per case, a
    # point operator
    k = 2
    xx = psd_stack(40, (3, 1, 5), k)
    val = psd_stack(70, (3, 2, 5), k)
    hi = np.array([[600.0, 400.0], [30.0, 15.0], [60.0, 25.0]])
    got = _sandwich(None, hi, xx, val)
    ref = [reference_fold(v, h[:, None, None, None] * x)
           for h, x, v in zip(hi, xx, val)]
    assert got == ref
    assert got[0] > 0.0 and got[1] == got[2] == 0.0


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
        floats = _top_singular(stack)
        for i in range(5):
            assert tops[i] == np.linalg.svd(stack[i], compute_uv=False)[0]
            assert type(floats[i]) is float
            assert floats[i] == spectral_norm(stack[i])
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


@pytest.mark.parametrize("n,d,e", [(1, 1, 1), (1, 3, 2), (2, 1, 1), (3, 2, 3),
                                   (8, 4, 2)])
def test_stacked_products_match_per_slice_bit_for_bit(n, d, e):
    # the grouped evaluator's products: sample stacks against point actions
    # broadcast over the samples, grams, controls broadcast over a stack and
    # chains of equal-shape stacks; numpy runs BLAS on each slice alone, on
    # the vector paths of one-row and one-column slices too
    rng = stream(40 + n, d)
    x = complex_normal(rng, (5, 6, n, d * n))
    lam = complex_normal(rng, (5, d * n, e * n))
    a = complex_normal(rng, (5, d * n, d * n))
    xl = x @ lam[:, None]
    gram = xl @ xl.conj().swapaxes(-1, -2)
    chain = a @ a.conj().swapaxes(-1, -2) @ a
    for i in range(5):
        assert xl[i].tobytes() == (x[i] @ lam[i]).tobytes()
        assert gram[i].tobytes() == (
            xl[i] @ xl[i].conj().swapaxes(-1, -2)).tobytes()
        assert chain[i].tobytes() == (a[i] @ a[i].conj().T @ a[i]).tobytes()
        assert (x @ a[i]).tobytes() == np.stack([s @ a[i] for s in x]).tobytes()
        for s in range(6):
            assert xl[i, s].tobytes() == (x[i, s] @ lam[i]).tobytes()


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
    assert verifier._sample_vectors(used, [spec.seed], spec.n, spec.d, 2,
                                    4).tobytes() == expected.tobytes()


def test_point_norms_are_op_norms_bit_for_bit():
    # op_energy_bound takes the point norms from one stacked SVD per rank
    points = generate(GeneratorSpec(seed=12, n=2, d=2, m=6)).family.points
    assert len({p.codomain_rank for p in points}) == 3
    assert _per_shape(_top_singular, [p.lam.action for p in points]) == \
        [op_norm(p.lam) for p in points]


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
    # and the generic and parseval flavors pair one identity with itself.
    # The rest is per (n, d) group, and the batch has ten: order checks,
    # one stacked check per sampled check, one for the gram sandwich and
    # one for the transferred bounds, each one eigvalsh; the other eigvalsh
    # calls are the gram floors and the verdict spectra, the four verdicts
    # of every scenario in one call, and one transfer floor per frame whose
    # cross adjoint is bounded below, 150 of them.
    seen = {"eigh": [], "eigvalsh": [], "order": []}

    def counting(log, real):
        def call(a, *args, **kwargs):
            log.append(a)
            return real(a, *args, **kwargs)
        return call
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name,
                            counting(seen[name], getattr(np.linalg, name)))
    monkeypatch.setattr(algebra, "_order_violations",
                        counting(seen["order"], _order_violations))
    run_suite(default_batch())
    assert {name: len(log) for name, log in seen.items()} == \
        {"eigh": 400, "eigvalsh": 220, "order": 50}


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


# ``_evaluate_scenario`` takes any scenario, its twin and a seed; the tests
# below call it directly, mostly on scenarios that no generator emits.

def normative_failures(out):
    """Check ids of ``out`` whose normative outcome failed."""
    return [cid for cid, o in out.items()
            if cid not in EMPIRICAL_CHECKS and not o.ok]


def test_evaluator_runs_every_check_on_a_hand_written_scenario():
    scenario = ser.scenario_from_obj(HANDWRITTEN)
    out = verifier._evaluate_scenario(scenario, scenario.family, 0,
                                      verifier.DEFAULT_TOL)
    assert set(out) == set(CHECKS)
    assert normative_failures(out) == []


@pytest.mark.parametrize("tol", [verifier.DEFAULT_TOL, 1e-18])
def test_evaluator_gives_what_the_suite_records(tol):
    # the first 12 default specs hold every flavor and n = d = 1
    batch = default_batch()[:12]
    assert {s.flavor for s in batch} == {"generic", "commuting", "parseval",
                                         "bessel_only"}
    assert any(s.n == s.d == 1 for s in batch)
    for spec in batch:
        out = verifier._evaluate_scenario(*generate_pair(spec), spec.seed, tol)
        for r in run_suite([spec], tol):
            o = out.get(r.check_id)
            assert r.scenarios_run == (o is not None)
            if o is None:
                continue
            assert r.passes == o.ok
            assert [(f.seed, np.float64(f.residual).tobytes(), f.detail)
                    for f in r.failures] == ([] if o.ok else [
                (spec.seed, np.float64(o.residual).tobytes(), o.detail)])


def test_evaluator_refuses_a_twin_over_another_measure():
    scenario, twin = generate_pair(GeneratorSpec(seed=7, n=2, d=2, m=4,
                                                 flavor="commuting"))
    first = dataclasses.replace(twin.points[0], weight=2 * twin.points[0].weight)
    other = GFrameFamily(twin.algebra_dim, twin.module_rank,
                         (first,) + twin.points[1:])
    with pytest.raises(MeasureMismatch, match="weights differ at point 0"):
        verifier._evaluate_scenario(scenario, other, 7, verifier.DEFAULT_TOL)


def test_evaluator_refuses_a_pair_its_certificate_fails():
    scenario, twin = generate_pair(GeneratorSpec(seed=7, n=2, d=2, m=4,
                                                 flavor="commuting"))
    generic, _ = generate_pair(GeneratorSpec(seed=7, n=2, d=2, m=4))
    # the commuting pair on a generic family, first as the scenario's family
    # and then as the twin
    with pytest.raises(CommutationViolated):
        verifier._evaluate_scenario(
            ControlledScenario(generic.family, scenario.pair), generic.family,
            7, verifier.DEFAULT_TOL)
    with pytest.raises(CommutationViolated):
        verifier._evaluate_scenario(scenario, generic.family, 7,
                                    verifier.DEFAULT_TOL)


SCALAR = {
    "version": 1, "n": 1, "d": 1,
    "points": [{"weight": 0.5, "dw": 1, "lambda": [[1.5, 0]]},
               {"weight": 2, "dw": 2, "lambda": [[0.5, 0], [0, 1]]}],
    "C": [[2, 0]], "Cprime": [[3, 0]],
}


def test_scalar_gate_holds_on_a_hand_built_scenario(monkeypatch):
    # the n = d = 1 rule reads the family's shape, whatever the seed
    scenario = ser.scenario_from_obj(SCALAR)
    seed = 2**64 - 1
    assert seed not in {s.seed for s in default_batch()}
    out = verifier._evaluate_scenario(scenario, scenario.family, seed,
                                      verifier.DEFAULT_TOL)
    assert out["cc_equivalence_bounds"].ok
    real = verifier.bounds_plain_from_cc

    def loose(lower, upper, c):
        b = real(lower, upper, c)
        return dataclasses.replace(b, lower=b.lower * (1 + 1e-10))
    monkeypatch.setattr(verifier, "bounds_plain_from_cc", loose)
    o = verifier._evaluate_scenario(scenario, scenario.family, seed,
                                    verifier.DEFAULT_TOL)["cc_equivalence_bounds"]
    assert (o.ok, o.detail) == (False, "scalar transfer not tight")
    assert 1e-10 <= o.residual <= 1.1e-10


def family_of(family, points):
    return GFrameFamily(family.algebra_dim, family.module_rank, tuple(points))


def extremes(scenario):
    w = controlled_classify(scenario).witnesses
    return w["lambda_min"], w["lambda_max"]


def assert_same_outcomes(scenario, twin, new_points, spec):
    """Evaluate the scenario and twin with ``new_points`` applied to both
    families' points; every normative check passes and the controlled
    spectrum stays within 1e-12 of the original's top eigenvalue."""
    fam = family_of(scenario.family, new_points(scenario.family.points))
    new = ControlledScenario(fam, scenario.pair)
    new_twin = family_of(twin, new_points(twin.points))
    out = verifier._evaluate_scenario(new, new_twin, spec.seed,
                                      verifier.DEFAULT_TOL)
    assert normative_failures(out) == [], spec
    (lo, hi), (lo2, hi2) = extremes(scenario), extremes(new)
    assert abs(lo2 - lo) <= 1e-12 * hi and abs(hi2 - hi) <= 1e-12 * hi, spec


def test_point_order_does_not_change_the_checks():
    for spec in default_batch()[:100]:
        scenario, twin = generate_pair(spec)
        order = stream(spec.seed, 1).permutation(scenario.family.size)
        assert_same_outcomes(scenario, twin,
                             lambda pts: [pts[i] for i in order], spec)


def test_measure_split_does_not_change_the_checks():
    # each point (w, lam) becomes (0.3 w, lam) and (0.7 w, lam)
    for spec in default_batch()[:100]:
        scenario, twin = generate_pair(spec)
        assert_same_outcomes(
            scenario, twin, lambda pts: [MeasurePoint(t * p.weight, p.lam)
                                         for p in pts for t in (0.3, 0.7)],
            spec)


def kron_family(f, g):
    """The exterior tensor product of two families: every pair of points,
    with the product of their weights and the Kronecker product of their
    actions, over the algebra of the product size."""
    n, d = f.algebra_dim * g.algebra_dim, f.module_rank * g.module_rank
    return GFrameFamily(n, d, tuple(
        MeasurePoint(p.weight * q.weight, ModuleOperator(
            n, d, p.codomain_rank * q.codomain_rank,
            np.kron(p.lam.action, q.lam.action)))
        for p in f.points for q in g.points))


def kron_control(c, e, n, d):
    if c.is_identity and e.is_identity:
        return identity_control(n, d)
    return make_positive_invertible(ModuleOperator(
        n, d, d, np.kron(c.base.action, e.base.action)))


@pytest.mark.parametrize("seed", [0, 1])
def test_tensor_products_pass_every_check(seed):
    # (2, 2, 3) x (2, 1, 2) over every pair of flavors, with controls
    # C x D and twin x twin; the controlled spectrum of a product is the
    # product of the spectra, so the top eigenvalues multiply
    flavors = ("generic", "commuting", "parseval", "bessel_only")
    for i, fa in enumerate(flavors):
        for j, fb in enumerate(flavors):
            sa, ta = generate_pair(GeneratorSpec(seed=500 + 16 * seed + i,
                                                 n=2, d=2, m=3, flavor=fa))
            sb, tb = generate_pair(GeneratorSpec(seed=600 + 16 * seed + j,
                                                 n=2, d=1, m=2, flavor=fb))
            fam = kron_family(sa.family, sb.family)
            n, d = fam.algebra_dim, fam.module_rank
            pair = ControlPair(kron_control(sa.pair.c, sb.pair.c, n, d),
                               kron_control(sa.pair.cp, sb.pair.cp, n, d))
            scenario = ControlledScenario(fam, pair)
            out = verifier._evaluate_scenario(scenario, kron_family(ta, tb),
                                              seed, verifier.DEFAULT_TOL)
            assert normative_failures(out) == [], (fa, fb)
            hi = extremes(scenario)[1]
            product = extremes(sa)[1] * extremes(sb)[1]
            assert abs(hi - product) <= 1e-12 * product, (fa, fb)


FLAVORS = ("generic", "commuting", "parseval", "bessel_only")


@st.composite
def factor_specs(draw):
    """A small generated factor: n * d <= 8 and m <= 3, with m >= d for
    parseval."""
    flavor = draw(st.sampled_from(FLAVORS))
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, min(8 // n, 3) if flavor == "parseval" else 8 // n))
    m = draw(st.integers(d if flavor == "parseval" else 1, 3))
    return GeneratorSpec(seed=draw(st.integers(0, 2**32)), n=n, d=d, m=m,
                         dw_range=(1, 2), flavor=flavor)


@settings(max_examples=60, deadline=None)
@given(factor_specs(), factor_specs())
# the controlled lambda_min of this product is off by 6.6e-12 of itself
@example(GeneratorSpec(seed=17, n=2, d=3, m=2, dw_range=(1, 2)),
         GeneratorSpec(seed=117, n=4, d=2, m=1, dw_range=(1, 2)))
# the zero family times a frame
@example(GeneratorSpec(seed=3, n=1, d=1, m=2, dw_range=(1, 2),
                       flavor="bessel_only"),
         GeneratorSpec(seed=4, n=2, d=2, m=3, dw_range=(1, 2),
                       flavor="commuting"))
def test_tensor_products_compose_spectra_and_verdicts(spec_a, spec_b):
    # the plain and controlled operators of a product are the Kronecker
    # products of the factors', so their extreme eigenvalues multiply and the
    # product is a frame exactly when both factors are.  lambda_min is held
    # to 1e-12 of the top one: relative to itself it carries roundoff scaled
    # by the condition number.  A bessel_only factor at n = d = 1 is the zero
    # family, whose products are zero.
    sa, ta = generate_pair(spec_a)
    sb, tb = generate_pair(spec_b)
    fam = kron_family(sa.family, sb.family)
    n, d = fam.algebra_dim, fam.module_rank
    pair = ControlPair(kron_control(sa.pair.c, sb.pair.c, n, d),
                       kron_control(sa.pair.cp, sb.pair.cp, n, d))
    scenario = ControlledScenario(fam, pair)
    out = verifier._evaluate_scenario(scenario, kron_family(ta, tb),
                                      spec_a.seed, verifier.DEFAULT_TOL)
    assert normative_failures(out) == []
    for a, b, prod in ([classify(f) for f in (sa.family, sb.family, fam)],
                       [controlled_classify(sc) for sc in (sa, sb, scenario)]):
        top = a.witnesses["lambda_max"] * b.witnesses["lambda_max"]
        low = a.witnesses["lambda_min"] * b.witnesses["lambda_min"]
        assert abs(prod.witnesses["lambda_max"] - top) <= 1e-12 * top
        assert abs(prod.witnesses["lambda_min"] - low) <= 1e-12 * top
        assert (prod.kind == FRAME) == (a.kind == b.kind == FRAME)
    # [C x D, G x G'] = [C, G] x D G' + G C x [D, G'], so each relative
    # commutator of a product point is at most the sum of its factors'
    ra, rb, rp = (sc.pair.report_on(sc.family) for sc in (sa, sb, scenario))
    rows = iter(rp.per_point)
    for row_a in ra.per_point:
        for row_b in rb.per_point:
            for r, x, y in zip(next(rows), row_a, row_b):
                assert r <= x + y + 1e-15


# Grouped evaluation: ``_evaluate`` takes cases of any shapes in any order,
# evaluates each (n, d) group's checks together, and must give every case
# what ``_evaluate_scenario`` gives it alone.

def mixed_cases():
    """Cases of many shapes in a seeded order: default specs, the byte
    sweep's mixed-size specs, and hand-written scenarios, one of them with
    more points than the generated scenarios of its shape."""
    specs = default_batch()[::7] + [
        GeneratorSpec(seed=970 + 4 * j + i, n=n, d=d, m=m, dw_range=(1, 3),
                      flavor=fl)
        for j, (n, d, m) in enumerate(((3, 3, 5), (8, 2, 6)))
        for i, fl in enumerate(("generic", "commuting", "parseval",
                                "bessel_only"))]
    cases = [(*generate_pair(s), s.seed) for s in specs]
    for obj, seed in ((HANDWRITTEN, 1), (SCALAR, 2)):
        scenario = ser.scenario_from_obj(obj)
        cases.append((scenario, scenario.family, seed))
    sa, ta = generate_pair(GeneratorSpec(seed=500, n=2, d=1, m=3,
                                         flavor="commuting"))
    sb, tb = generate_pair(GeneratorSpec(seed=600, n=1, d=2, m=2))
    fam = kron_family(sa.family, sb.family)
    pair = ControlPair(kron_control(sa.pair.c, sb.pair.c, 2, 2),
                       kron_control(sa.pair.cp, sb.pair.cp, 2, 2))
    cases.append((ControlledScenario(fam, pair), kron_family(ta, tb), 3))
    order = stream(17, 0).permutation(len(cases))
    return [cases[i] for i in order]


def outcome_bits(out):
    return {cid: (o.ok, o.detail, np.float64(o.residual).tobytes())
            for cid, o in out.items()}


@pytest.mark.parametrize("tol", [verifier.DEFAULT_TOL, 1e-18])
def test_grouped_evaluation_gives_each_case_its_own_outcomes(tol):
    cases = mixed_cases()
    shapes = [(sc.family.algebra_dim, sc.family.module_rank)
              for sc, _, _ in cases]
    # shapes interleave, so most groups hold one case; a stable shape-sorted
    # copy of the same cases makes groups of several
    assert len(set(shapes)) >= 8 and shapes != sorted(shapes, key=shapes.index)
    order = sorted(range(len(cases)), key=shapes.__getitem__)
    alone = [outcome_bits(verifier._evaluate_scenario(*case, tol))
             for case in cases]
    for idx in (range(len(cases)), order):
        grouped = verifier._evaluate([cases[i] for i in idx], tol)
        assert len(grouped) == len(cases)
        for i, out in zip(idx, grouped):
            assert outcome_bits(out) == alone[i], cases[i][2]


@pytest.mark.parametrize("tol", [verifier.DEFAULT_TOL, 1e-18])
def test_plain_sandwich_residual_is_the_public_sandwich_sums(tol):
    # the library and the verifier share one energy kernel: the check's
    # residual, rebuilt from sandwich_sum on the check's own samples and the
    # plain verdict's bounds, has the same bits
    for scenario, twin, seed in mixed_cases():
        family = scenario.family
        n, d = family.algebra_dim, family.module_rank
        verdict = classify(family)
        lo = verdict.witnesses["lambda_min"] if verdict.kind == FRAME else None
        hi = verdict.witnesses["lambda_max"]
        viol = 0.0
        for x in verifier._sample_vectors(stream(0, 0), [seed], n, d, 1,
                                          verifier._SAMPLES)[0]:
            v = ModuleVector(n, d, x)
            xx, val = inner(v, v).entries, sandwich_sum(family, v).entries
            viol = max(viol, 0.0 if lo is None else reference_fold(lo * xx, val),
                       reference_fold(val, hi * xx))
        o = verifier._evaluate_scenario(scenario, twin, seed, tol)[
            "plain_frame_sandwich"]
        assert np.float64(o.residual).tobytes() == np.float64(viol).tobytes(), seed
        assert o.ok == (viol <= tol)


def test_failures_of_equal_seed_and_detail_keep_batch_order():
    # three specs share a seed; the middle one has another shape, so its
    # group comes after the first group in any order of groups
    batch = [GeneratorSpec(seed=5, n=2, d=2, m=4, flavor="commuting"),
             GeneratorSpec(seed=5, n=1, d=1, m=2),
             GeneratorSpec(seed=5, n=2, d=2, m=4)]
    alone = [{r.check_id: r for r in run_suite([s], 1e-18)} for s in batch]

    def folded(order, cid):
        return [(f.seed, f.detail, np.float64(f.residual).tobytes())
                for f in sorted((f for i in order for f in alone[i][cid].failures),
                                key=lambda f: (f.seed, f.detail))]
    reordered = False
    for r in run_suite(batch, 1e-18):
        want = folded((0, 1, 2), r.check_id)
        assert [(f.seed, f.detail, np.float64(f.residual).tobytes())
                for f in r.failures] == want
        reordered |= folded((0, 2, 1), r.check_id) != want
    # folding in group order would have shown
    assert reordered


def test_suite_holds_one_shape_group_at_a_time(monkeypatch):
    # default_batch cycles its ten shapes; taken in shape order, each group
    # is evaluated once the first case of the next shape is generated, so
    # no scenario of a later group is alive yet
    real_batch, real_group = verifier._generate_batch, verifier._evaluate_group
    generated, evaluated, seen = [0], [0], []

    def counting_batch(specs, twins):
        for pair in real_batch(specs, twins):
            generated[0] += 1
            yield pair

    def counting_group(cases, tol):
        seen.append((generated[0], evaluated[0], len(cases)))
        evaluated[0] += len(cases)
        return real_group(cases, tol)
    monkeypatch.setattr(verifier, "_generate_batch", counting_batch)
    monkeypatch.setattr(verifier, "_evaluate_group", counting_group)
    run_suite(default_batch())
    assert [k for _, _, k in seen] == [20] * 10
    for made, done, k in seen:
        assert made <= done + k + 1, seen


def result_bits(results):
    return [(r.check_id, r.scenarios_run, r.passes, r.status,
             [(f.seed, f.detail, np.float64(f.residual).tobytes())
              for f in r.failures]) for r in results]


def test_reversed_default_batch_gives_the_same_report():
    # at 1e-18 the order checks fail too, so residual bits are compared
    assert result_bits(run_suite(default_batch()[::-1], 1e-18)) == \
        result_bits(run_suite(default_batch(), 1e-18))


def certificate_failures():
    """Three scenarios whose pairs fail their certificates, with distinct
    worst commutators: two at (2, 2) and, between them in input order, one
    at (3, 2)."""
    bad = []
    for seed, n, d, m in ((7, 2, 2, 4), (9, 3, 2, 3), (8, 2, 2, 4)):
        commuting, _ = generate_pair(GeneratorSpec(seed=seed, n=n, d=d, m=m,
                                                   flavor="commuting"))
        generic, _ = generate_pair(GeneratorSpec(seed=seed, n=n, d=d, m=m))
        bad.append((ControlledScenario(generic.family, commuting.pair),
                    generic.family, seed))
    return bad


def raised(cases):
    with pytest.raises(CommutationViolated) as info:
        verifier._evaluate(cases, verifier.DEFAULT_TOL)
    return str(info.value)


def test_the_first_failing_certificate_in_input_order_raises():
    first, other_shape, second = certificate_failures()
    messages = [raised([case]) for case in (first, other_shape, second)]
    assert len(set(messages)) == 3
    # two failures in one group
    assert raised([first, second]) == messages[0]
    assert raised([second, first]) == messages[2]
    # a group that waits: its passing first case comes before the failure
    # of another shape, and its own failure after it
    good = default_batch()[3]
    assert (good.n, good.d) == (2, 2)
    good_case = (*generate_pair(good), good.seed)
    assert raised([good_case, other_shape, second]) == messages[1]


def test_group_cap_keeps_default_groups_whole_and_large_scenarios_alone(
        monkeypatch):
    groups = []

    def record(cases, tol):
        groups.append([(sc.family.algebra_dim, sc.family.module_rank, seed)
                       for sc, _, seed, _ in cases])
        return [{} for _ in cases]
    monkeypatch.setattr(verifier, "_evaluate_group", record)
    run_suite(default_batch())
    assert sorted(len(g) for g in groups) == [20] * 10
    assert all(len({(n, d) for n, d, _ in g}) == 1 for g in groups)
    # the verify-ladder shapes: (8, 4, 16) scenarios in pairs, each
    # (8, 8, 32) alone, each group evaluated as soon as it is full
    del groups[:]
    run_suite([GeneratorSpec(seed=900 + 4 * j + i, n=8, d=d, m=m,
                             dw_range=(2, 2), flavor=fl)
               for j, (d, m) in enumerate(((4, 16), (8, 32)))
               for i, fl in enumerate(("generic", "commuting", "parseval",
                                       "bessel_only"))])
    assert [[seed for *_, seed in g] for g in groups] == [
        [900, 901], [902, 903], [904], [905], [906], [907]]


@pytest.mark.parametrize("tol", [math.nan, -1e-9])
def test_run_suite_refuses_a_nan_or_negative_tol_before_generating(tol, monkeypatch):
    monkeypatch.setattr(verifier, "_generate_batch",
                        lambda *a, **k: pytest.fail("generated a batch"))
    with pytest.raises(ValueError, match="tol must be nonnegative"):
        run_suite(default_batch()[:2], tol)
