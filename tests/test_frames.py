"""Frame families: operator assembly, optimal bounds, classification."""

import numpy as np
import pytest

from gframes import (AlgebraElement, BESSEL_ONLY, FRAME, GFrameFamily,
                     MeasurePoint, ModuleOperator, ModuleVector, NotAFrame,
                     alg_norm, check_sandwich, classify, frame_operator, inner,
                     loewner_leq, op_apply, optimal_bounds, sandwich_sum,
                     vec_norm)
from gframes.frames import _energy, _verdicts
from gframes.generators import GeneratorSpec, generate
from gframes.rng import complex_normal, stream


def scalar_point(value, weight=1.0):
    action = np.array([[value]], dtype=np.complex128)
    return MeasurePoint(weight, ModuleOperator(1, 1, 1, action))


def two_point_scalar_family():
    return GFrameFamily(1, 1, (scalar_point(1.0), scalar_point(1.0)))


def random_family(seed, n, d, m, dw=2):
    rng = stream(seed, 0)
    points = []
    for _ in range(m):
        action = complex_normal(rng, (d * n, dw * n))
        points.append(MeasurePoint(float(rng.uniform(0.5, 1.5)),
                                   ModuleOperator(n, d, dw, action)))
    return GFrameFamily(n, d, tuple(points))


def test_frame_operator_scalar_sum():
    s = frame_operator(two_point_scalar_family())
    np.testing.assert_allclose(s.action, [[2.0]], atol=1e-15)


def test_frame_operator_single_identity_point():
    fam = GFrameFamily(2, 2, (MeasurePoint(1.0, ModuleOperator.identity(2, 2)),))
    np.testing.assert_allclose(frame_operator(fam).action, np.eye(4), atol=1e-15)


def test_frame_operator_matches_accumulation_oracle():
    fam = random_family(17, 2, 3, 5)
    acc = np.zeros((6, 6), dtype=np.complex128)
    for p in fam.points:
        acc += p.weight * (p.lam.action @ p.lam.action.conj().T)
    np.testing.assert_allclose(frame_operator(fam).action, acc, atol=1e-12)


def test_frame_operator_hermitian_psd():
    fam = random_family(23, 3, 2, 4)
    s = frame_operator(fam)
    assert np.linalg.norm(s.action - s.action.conj().T) <= 1e-11 * np.linalg.norm(s.action)
    assert np.linalg.eigvalsh(s.action)[0] >= -1e-10


def test_optimal_bounds_two_point_scalar():
    b = optimal_bounds(two_point_scalar_family())
    assert b.lower == pytest.approx(2.0)
    assert b.upper == pytest.approx(2.0)


def test_optimal_bounds_parseval():
    sc = generate(GeneratorSpec(seed=3, n=2, d=2, m=4, flavor="parseval"))
    b = optimal_bounds(sc.family)
    assert b.lower == pytest.approx(1.0, abs=1e-9)
    assert b.upper == pytest.approx(1.0, abs=1e-9)


def test_optimal_bounds_match_rayleigh_sampling():
    fam = random_family(29, 2, 2, 5)
    b = optimal_bounds(fam)
    s = frame_operator(fam).action
    rng = stream(30, 0)
    lo, hi = np.inf, 0.0
    for _ in range(10_000):
        v = complex_normal(rng, (s.shape[0],))
        v = v / np.linalg.norm(v)
        q = float(np.real(v.conj() @ s @ v))
        lo, hi = min(lo, q), max(hi, q)
    assert b.lower <= lo + 1e-6 and lo >= b.lower - 1e-6
    assert hi <= b.upper + 1e-6
    # extremes are approached from inside at this sample count
    assert hi >= b.upper - 0.2 * (b.upper - b.lower + 1.0)


def test_optimal_bounds_raises_on_deficient():
    fam = GFrameFamily(1, 2, (scalar_point_wide(),))
    with pytest.raises(NotAFrame):
        optimal_bounds(fam)


def scalar_point_wide():
    # rank-one map out of a rank-2 module: annihilates a direction
    action = np.array([[1.0], [0.0]], dtype=np.complex128)
    return MeasurePoint(1.0, ModuleOperator(1, 2, 1, action))


def test_classify_kinds():
    assert classify(two_point_scalar_family()).kind == FRAME
    deficient = GFrameFamily(1, 2, (scalar_point_wide(),))
    assert classify(deficient).kind == BESSEL_ONLY
    assert classify(deficient).bounds is None


def test_classify_verdict_has_witnesses():
    v = classify(two_point_scalar_family())
    assert v.bounds.lower == pytest.approx(2.0)
    assert "lambda_min" in v.witnesses and "lambda_max" in v.witnesses


def test_classify_agrees_with_loewner_sandwich():
    fam = random_family(31, 2, 2, 4)
    v = classify(fam)
    assert v.kind == FRAME
    rng = stream(32, 0)
    for _ in range(200):
        x = ModuleVector(2, 2, complex_normal(rng, (2, 4)))
        mid = sandwich_sum(fam, x)
        gram = inner(x, x)
        assert loewner_leq(v.bounds.lower * gram, mid, tol=1e-9)
        assert loewner_leq(mid, v.bounds.upper * gram, tol=1e-9)


def test_scalar_norm_form_of_bounds():
    fam = random_family(37, 2, 3, 6)
    v = classify(fam)
    rng = stream(38, 0)
    for _ in range(200):
        x = ModuleVector(2, 3, complex_normal(rng, (2, 6)))
        mid = alg_norm(sandwich_sum(fam, x))
        nx = vec_norm(x) ** 2
        scale = max(1.0, mid)
        assert v.bounds.lower * nx <= mid + 1e-9 * scale
        assert mid <= v.bounds.upper * nx + 1e-9 * scale


def test_classify_permutation_invariant():
    fam = random_family(41, 2, 2, 5)
    perm = GFrameFamily(2, 2, tuple(reversed(fam.points)))
    b1, b2 = optimal_bounds(fam), optimal_bounds(perm)
    assert abs(b1.lower - b2.lower) <= 1e-12
    assert abs(b1.upper - b2.upper) <= 1e-12


def test_classify_weight_split_invariant():
    fam = random_family(43, 2, 2, 4)
    first = fam.points[0]
    halves = (MeasurePoint(first.weight / 2, first.lam),
              MeasurePoint(first.weight / 2, first.lam))
    split = GFrameFamily(2, 2, halves + fam.points[1:])
    b1, b2 = optimal_bounds(fam), optimal_bounds(split)
    assert abs(b1.lower - b2.lower) <= 1e-12
    assert abs(b1.upper - b2.upper) <= 1e-12


@pytest.mark.parametrize("flavor", ["generic", "commuting", "parseval",
                                    "bessel_only"])
def test_classify_verdict_ignores_weight_scale(flavor):
    # an explicit tol is relative to lambda_max, as the default is, so
    # rescaling every weight leaves the verdict alone
    fam = generate(GeneratorSpec(seed=3, n=2, d=2, m=4, flavor=flavor)).family
    kind = classify(fam, 1e-9).kind
    assert kind == (BESSEL_ONLY if flavor == "bessel_only" else FRAME)
    for s in (1e-12, 1.0, 1e12):
        scaled = GFrameFamily(2, 2, tuple(MeasurePoint(s * p.weight, p.lam)
                                          for p in fam.points))
        assert classify(scaled, 1e-9).kind == kind


def test_sandwich_sum_matches_frame_operator_quadratic_form():
    # independent path: per-point inner products vs <x, Sx>
    fam = random_family(47, 2, 2, 4)
    s = frame_operator(fam)
    rng = stream(48, 0)
    for _ in range(50):
        x = ModuleVector(2, 2, complex_normal(rng, (2, 4)))
        via_points = sandwich_sum(fam, x)
        via_s = inner(x, op_apply(s, x))
        assert alg_norm(via_points - via_s) <= 1e-11 * max(1.0, alg_norm(via_s))


def test_energy_matches_wrapper_loop_bit_for_bit():
    fam = random_family(49, 2, 3, 5)
    rng = stream(50, 0)
    x = ModuleVector(2, 3, complex_normal(rng, (2, 6)))
    y = ModuleVector(2, 3, complex_normal(rng, (2, 6)))
    for u, v in ((x, x), (x, y)):
        ref = None
        for p in fam.points:
            term = p.weight * inner(op_apply(p.lam, u), op_apply(p.lam, v)).entries
            ref = term if ref is None else ref + term
        assert np.array_equal(_energy(fam.points, u.flat, v.flat), ref)
    assert np.array_equal(sandwich_sum(fam, x).entries,
                          _energy(fam.points, x.flat, x.flat))
    with pytest.raises(ValueError):
        sandwich_sum(fam, ModuleVector(3, 2, complex_normal(rng, (3, 6))))


@pytest.mark.parametrize("shape", [(1, 1, 3), (2, 3, 5), (3, 2, 4)])
def test_energy_on_a_stack_matches_per_slice_calls(shape):
    n, d, m = shape
    fam = random_family(59 + n, n, d, m)
    rng = stream(60 + n, 0)
    xs = complex_normal(rng, (6, n, d * n))
    ys = complex_normal(rng, (6, n, d * n))
    for u, v in ((xs, xs), (xs, ys)):
        got = _energy(fam.points, u, v)
        assert got.shape == (6, n, n)
        for s in range(6):
            assert np.array_equal(got[s], _energy(fam.points, u[s], v[s]))


def test_check_sandwich_parseval():
    sc = generate(GeneratorSpec(seed=5, n=2, d=2, m=4, flavor="parseval"))
    assert check_sandwich(sc.family, 1.0, 1.0, samples=50, seed=9)
    assert not check_sandwich(sc.family, 2.0, 1.0, samples=50, seed=9)


def test_check_sandwich_optimal_vs_inflated():
    fam = random_family(53, 2, 2, 5)
    b = optimal_bounds(fam)
    assert check_sandwich(fam, b.lower, b.upper, samples=100, seed=11)
    assert not check_sandwich(fam, b.lower * 1.5, b.upper, samples=400, seed=11)


def test_weight_must_be_positive():
    with pytest.raises(ValueError):
        MeasurePoint(0.0, ModuleOperator.identity(1, 1))
    with pytest.raises(ValueError):
        MeasurePoint(-1.0, ModuleOperator.identity(1, 1))


def test_family_rejects_mixed_shapes():
    good = MeasurePoint(1.0, ModuleOperator.identity(2, 2))
    bad = MeasurePoint(1.0, ModuleOperator.identity(2, 3))
    with pytest.raises(ValueError):
        GFrameFamily(2, 2, (good, bad))


def test_verdicts_of_a_repeated_operator_match_one_at_a_time():
    s = frame_operator(random_family(61, 2, 2, 4))
    t = frame_operator(random_family(62, 2, 2, 4))
    got = _verdicts((s, t, s, s))
    alone = [_verdicts((op,))[0] for op in (s, t, s, s)]
    assert [(v.kind, v.witnesses) for v in got] == [(v.kind, v.witnesses)
                                                   for v in alone]


@pytest.mark.parametrize("verdict", [classify, optimal_bounds])
@pytest.mark.parametrize("tol", [np.nan, -1e-9])
def test_frame_verdicts_refuse_a_nan_or_negative_tol(verdict, tol):
    # a negative tol used to call this Bessel-only family a frame, with a
    # lower bound of 3e-16
    fam = generate(GeneratorSpec(seed=3, n=2, d=2, m=4, flavor="bessel_only")).family
    assert classify(fam).kind == BESSEL_ONLY
    with pytest.raises(ValueError, match="tol must be nonnegative"):
        verdict(fam, tol)
