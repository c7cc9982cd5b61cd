"""Adjointable operators between modules and the positive invertible wrapper."""

import numpy as np
import pytest

from gframes import (ModuleOperator, ModuleVector, NotHermitian,
                     NotPositiveDefinite, NotSurjective, alg_norm,
                     energy_bound_check, gram_sandwich_check, inner,
                     is_bounded_below, is_surjective, make_positive_invertible,
                     op_adjoint, op_apply, op_compose, op_norm, vec_norm)
from gframes.rng import complex_normal, stream


def random_op(rng, n, d, e):
    return ModuleOperator(n, d, e, complex_normal(rng, (d * n, e * n)))


def random_vec(rng, n, d):
    return ModuleVector(n, d, complex_normal(rng, (n, d * n)))


def diag_op(*vals):
    n = 1
    d = len(vals)
    return ModuleOperator(n, d, d, np.diag(np.array(vals, dtype=np.complex128)))


def test_apply_identity_and_zero():
    x = random_vec(stream(1, 0), 2, 3)
    ide = ModuleOperator.identity(2, 3)
    np.testing.assert_array_equal(op_apply(ide, x).flat, x.flat)
    zero = ModuleOperator.zero(2, 3, 2)
    assert np.all(op_apply(zero, x).flat == 0)


def test_apply_matches_block_sum_oracle():
    """Blockwise oracle: y_j = sum_i x_i A_{ij} over n-by-n blocks."""
    rng = stream(13, 0)
    n, d, e = 2, 3, 2
    t = random_op(rng, n, d, e)
    x = random_vec(rng, n, d)
    y = op_apply(t, x)
    for j in range(e):
        acc = np.zeros((n, n), dtype=np.complex128)
        for i in range(d):
            block = t.action[i * n:(i + 1) * n, j * n:(j + 1) * n]
            acc += x.block(i).entries @ block
        np.testing.assert_allclose(y.block(j).entries, acc, atol=1e-12)


def test_adjoint_defining_identity():
    rng = stream(2, 0)
    for _ in range(1000):
        t = random_op(rng, 2, 2, 3)
        x = random_vec(rng, 2, 2)
        y = random_vec(rng, 2, 3)
        lhs = inner(op_apply(t, x), y)
        rhs = inner(x, op_apply(op_adjoint(t), y))
        scale = max(1.0, alg_norm(lhs))
        assert alg_norm(lhs - rhs) <= 1e-12 * scale


def test_adjoint_involution_exact():
    t = random_op(stream(3, 0), 2, 3, 2)
    np.testing.assert_array_equal(op_adjoint(op_adjoint(t)).action, t.action)


def test_compose_identity():
    t = random_op(stream(4, 0), 2, 3, 2)
    ide = ModuleOperator.identity(2, 2)
    np.testing.assert_allclose(op_compose(ide, t).action, t.action)


def test_compose_adjoint_antihomomorphism():
    rng = stream(5, 0)
    s = random_op(rng, 2, 3, 2)
    t = random_op(rng, 2, 2, 3)
    lhs = op_adjoint(op_compose(s, t))
    rhs = op_compose(op_adjoint(t), op_adjoint(s))
    assert np.linalg.norm(lhs.action - rhs.action) <= 1e-12


def test_compose_associative():
    rng = stream(6, 0)
    a = random_op(rng, 2, 2, 4)
    b = random_op(rng, 2, 3, 2)
    c = random_op(rng, 2, 2, 3)
    left = op_compose(op_compose(a, b), c)
    right = op_compose(a, op_compose(b, c))
    assert np.linalg.norm(left.action - right.action) <= 1e-12 * max(
        1.0, np.linalg.norm(left.action))


def test_compose_agrees_with_pointwise_application():
    rng = stream(7, 0)
    s = random_op(rng, 2, 3, 2)
    t = random_op(rng, 2, 2, 3)
    x = random_vec(rng, 2, 2)
    via_compose = op_apply(op_compose(s, t), x)
    via_steps = op_apply(s, op_apply(t, x))
    np.testing.assert_allclose(via_compose.flat, via_steps.flat, atol=1e-12)


def test_norm_scaled_identity():
    t = ModuleOperator(2, 3, 3, 3.0 * np.eye(6, dtype=np.complex128))
    assert op_norm(t) == pytest.approx(3.0)
    assert op_norm(ModuleOperator.zero(2, 3, 3)) == 0.0


def test_norm_bounds_application():
    rng = stream(8, 0)
    t = random_op(rng, 2, 3, 2)
    bound = op_norm(t) + 1e-10
    for _ in range(1000):
        x = random_vec(rng, 2, 3)
        assert vec_norm(op_apply(t, x)) <= bound * vec_norm(x)


def test_norm_matches_power_iteration():
    t = random_op(stream(9, 0), 2, 3, 2)
    m = t.action @ t.action.conj().T
    v = np.ones(m.shape[0], dtype=np.complex128)
    for _ in range(800):
        v = m @ v
        v /= np.linalg.norm(v)
    sigma = float(np.sqrt(np.real(v.conj() @ m @ v)))
    assert op_norm(t) == pytest.approx(sigma, rel=1e-8)


def test_norm_submultiplicative():
    rng = stream(10, 0)
    s = random_op(rng, 2, 3, 2)
    t = random_op(rng, 2, 2, 3)
    assert op_norm(op_compose(s, t)) <= op_norm(s) * op_norm(t) + 1e-10


def test_energy_bound_identity_and_zero():
    x = random_vec(stream(11, 0), 2, 3)
    assert energy_bound_check(ModuleOperator.identity(2, 3), x)
    assert energy_bound_check(ModuleOperator.zero(2, 3, 2), x)
    # a tight bound at 5e7, where b - a is a roundoff of -7.5e-9
    assert energy_bound_check(ModuleOperator(1, 1, 1, [[1e4 * (0.6 + 0.8j)]]),
                              ModuleVector(1, 1, [[0.1 + 0.7j]]))


def test_energy_bound_random_batch():
    rng = stream(12, 0)
    for _ in range(1000):
        t = random_op(rng, 2, 2, 2)
        x = random_vec(rng, 2, 2)
        assert energy_bound_check(t, x)


def test_bounded_below_identity():
    ok, m = is_bounded_below(ModuleOperator.identity(2, 3))
    assert ok and m == pytest.approx(1.0)


def test_bounded_below_rank_deficient():
    t = diag_op(1.0, 0.0)
    ok, m = is_bounded_below(t)
    assert not ok and m == pytest.approx(0.0)


def test_bounded_below_matches_gram_eigens():
    t = random_op(stream(15, 0), 2, 3, 3)
    _, m = is_bounded_below(t)
    gram = t.action @ t.action.conj().T
    target = float(np.sqrt(np.linalg.eigvalsh(gram)[0]))
    assert m == pytest.approx(target, rel=1e-10)


def test_surjectivity_via_adjoint():
    # wide full-rank action: surjective map onto the smaller codomain
    t = ModuleOperator(1, 2, 1, np.array([[1.0], [1.0]], dtype=np.complex128))
    assert is_surjective(t)
    assert not is_surjective(op_adjoint(t))


def test_gram_sandwich_scalar_row_map():
    t = ModuleOperator(1, 2, 1, np.array([[1.0], [1.0]], dtype=np.complex128))
    # gram is the scalar 2; both bounds coincide there
    assert gram_sandwich_check(t)
    # and the scalar 6.5e7, where they coincide only up to roundoff
    assert gram_sandwich_check(ModuleOperator(1, 2, 1, [[1e3], [8e3j]]))


def test_gram_sandwich_identity():
    assert gram_sandwich_check(ModuleOperator.identity(2, 3))


def test_gram_sandwich_requires_surjective():
    t = diag_op(1.0, 0.0)
    with pytest.raises(NotSurjective):
        gram_sandwich_check(t)


def surjective_batch(count=500):
    """The first ``count`` surjective operators of stream 16 with n = 2."""
    rng = stream(16, 0)
    while count:
        d = int(rng.integers(1, 4))
        e = int(rng.integers(1, d + 1))
        t = random_op(rng, 2, d, e)
        if is_surjective(t):
            count -= 1
            yield t


def test_gram_sandwich_random_surjective_batch():
    for t in surjective_batch():
        assert gram_sandwich_check(t)


def test_gram_sandwich_holds_on_the_surjective_batch_scaled_down():
    # The surjectivity floor is relative, so scaling by 1e-8 leaves every
    # operator surjective; an absolute floor refused 337 of the 500.
    for t in surjective_batch():
        assert gram_sandwich_check(ModuleOperator(2, t.domain_rank, t.codomain_rank,
                                                  1e-8 * t.action))


@pytest.mark.parametrize("tol", [1e-9, 1e-14])
@pytest.mark.parametrize("k", [3, 4, 6, 8])
def test_tight_scalar_bounds_hold_far_above_unit_scale(k, tol):
    # For scalar maps both bounds are tight, so the difference they order
    # is roundoff of size eps * |t|^2; it must be judged against the size
    # of the compared quantities, not against its own size.
    rng = stream(40 + k, 0)
    for _ in range(50):
        t = ModuleOperator(1, 1, 1, 10.0**k * complex_normal(rng, (1, 1)))
        assert energy_bound_check(t, random_vec(rng, 1, 1), tol)
        t = ModuleOperator(1, 2, 1, 10.0**k * complex_normal(rng, (2, 1)))
        assert gram_sandwich_check(t, tol)


def test_make_positive_invertible_identity():
    p = make_positive_invertible(ModuleOperator.identity(2, 2))
    np.testing.assert_allclose(p.inverse.action, np.eye(4), atol=1e-12)
    assert p.condition_number == pytest.approx(1.0)


def test_make_positive_invertible_diagonal():
    p = make_positive_invertible(diag_op(4.0, 1.0))
    np.testing.assert_allclose(p.inverse.action, np.diag([0.25, 1.0]), atol=1e-12)
    assert p.condition_number == pytest.approx(4.0)


def test_make_positive_invertible_shifted_gram():
    rng = stream(17, 0)
    b = random_op(rng, 2, 3, 3)
    m = ModuleOperator(2, 3, 3,
                       b.action.conj().T @ b.action + 0.1 * np.eye(6))
    p = make_positive_invertible(m)
    prod = p.inverse.action @ m.action
    assert np.linalg.norm(prod - np.eye(6)) <= 1e-9 * p.condition_number


def test_make_positive_invertible_rejects_non_hermitian():
    t = ModuleOperator(1, 2, 2, np.array([[1.0, 1.0], [0.0, 1.0]],
                                         dtype=np.complex128))
    with pytest.raises(NotHermitian):
        make_positive_invertible(t)


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-9])
def test_make_positive_invertible_rejects_non_hermitian_at_any_scale(scale):
    # The Hermitian test is relative: an absolute floor accepted this
    # matrix at scale 1e-9.
    m = np.diag([1.0, 2.0])
    m[0, 1] = 0.3
    with pytest.raises(NotHermitian):
        make_positive_invertible(ModuleOperator(1, 2, 2, scale * m))


def test_make_positive_invertible_rejects_singular():
    with pytest.raises(NotPositiveDefinite):
        make_positive_invertible(diag_op(1.0, 0.0))


@pytest.mark.parametrize("action", [-np.eye(2), np.array([[1.0, 5.0], [0.0, 1.0]])],
                         ids=["negative", "not_hermitian"])
def test_make_positive_invertible_refuses_a_nan_tol(action):
    # NaN fails every comparison, so both matrices used to be certified
    with pytest.raises(ValueError, match="tol must be nonnegative and finite, got nan"):
        make_positive_invertible(ModuleOperator(1, 2, 2, action), tol=np.nan)


@pytest.mark.parametrize("check", [is_bounded_below, is_surjective])
@pytest.mark.parametrize("tol", [np.nan, -1.0])
def test_bounded_below_and_surjective_refuse_a_nan_or_negative_tol(check, tol):
    # at tol -1 a zero singular value used to clear the floor
    with pytest.raises(ValueError, match="tol must be nonnegative"):
        check(diag_op(1.0, 0.0), tol)
