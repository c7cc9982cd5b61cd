"""Matrix algebra layer: adjoint, positivity, square root, norm."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gframes import (AlgebraElement, NotPositive, alg_adjoint, alg_norm,
                     alg_sqrt, is_positive, loewner_leq)
from gframes.algebra import (_order_violations, _per_shape, _top_singular,
                             spectral_norm)
from gframes.generators import _unitaries
from gframes.rng import complex_normal, stream

TOL = 1e-10


def elem(rows):
    return AlgebraElement(np.array(rows, dtype=np.complex128))


def random_elem(seed, n):
    return AlgebraElement(complex_normal(stream(seed, 0), (n, n)))


def test_adjoint_conjugate_transposes():
    a = elem([[0, 1j], [0, 0]])
    expected = np.array([[0, 0], [-1j, 0]])
    assert np.array_equal(alg_adjoint(a).entries, expected)


def test_adjoint_fixes_identity():
    i3 = AlgebraElement.identity(3)
    assert np.array_equal(alg_adjoint(i3).entries, i3.entries)


def test_adjoint_matches_elementwise_oracle():
    a = random_elem(7, 4)
    oracle = a.entries.conj().T
    assert alg_norm(alg_adjoint(a) - AlgebraElement(oracle)) == 0.0


def test_adjoint_is_involution():
    a = random_elem(21, 5)
    assert np.array_equal(alg_adjoint(alg_adjoint(a)).entries, a.entries)


def test_is_positive_accepts_positive_diagonal():
    assert is_positive(elem([[2, 0], [0, 3]]), tol=1e-10)


def test_is_positive_rejects_non_hermitian():
    assert not is_positive(elem([[0, 1], [0, 0]]), tol=1e-10)


def test_is_positive_accepts_gram():
    b = random_elem(11, 3)
    assert is_positive(alg_adjoint(b) @ b, tol=1e-10)


def test_is_positive_rejects_negative_eigenvalue():
    assert not is_positive(elem([[1, 0], [0, -1]]), tol=1e-10)


def test_loewner_zero_below_identity():
    assert loewner_leq(AlgebraElement.zero(2), AlgebraElement.identity(2), tol=TOL)
    assert not loewner_leq(AlgebraElement.identity(2), AlgebraElement.zero(2), tol=TOL)


def test_loewner_rank_one_scaling():
    x = complex_normal(stream(3, 0), (3, 1))
    g = AlgebraElement(x @ x.conj().T)
    assert loewner_leq(g, 2.0 * g, tol=TOL)
    assert not loewner_leq(2.0 * g, g, tol=TOL)


def reference_is_positive(m, tol):
    """The positivity rule as stated before the order had one kernel, on
    the one relative scale: Hermitian up to ``tol * norm`` and smallest
    eigenvalue of the Hermitian part at least ``-tol * norm``, the norm
    floored at the smallest normal double."""
    scale = max(sys.float_info.min, np.linalg.norm(m, 2))
    asym = np.linalg.norm(m - m.conj().T, 2)
    lam = np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0]
    return bool(asym <= tol * scale and lam >= -tol * scale)


@pytest.mark.parametrize("scale", [1e-6, 1e-2, 1e2, 1e6])
@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12, 1e-14])
def test_is_positive_keeps_its_rule_near_the_boundary(tol, scale):
    # Hermitian matrices whose smallest eigenvalue, and half of them an
    # anti-Hermitian part, sit within a factor 2 of the threshold.
    rng = stream(31, 0)
    verdicts = []
    for _ in range(100):
        n = int(rng.integers(1, 4))
        q = np.linalg.qr(complex_normal(rng, (n, n)))[0]
        lam = scale * rng.uniform(0.5, 2.0, n)
        thresh = tol * max(sys.float_info.min, lam.max())
        lam[0] = -rng.uniform(-1.0, 2.0) * thresh
        m = (q * lam) @ q.conj().T
        if rng.random() < 0.5:
            e = complex_normal(rng, (n, n))
            e = e - e.conj().T
            m = m + rng.uniform(0.0, 2.0) * thresh * e / np.linalg.norm(e, 2)
        verdicts.append(is_positive(AlgebraElement(m), tol))
        assert verdicts[-1] == reference_is_positive(m, tol)
    assert 10 < sum(verdicts) < 90


def test_loewner_leq_judges_an_indefinite_pair_by_their_own_norms():
    # b - a = diag(2e3, -1.5e-6): a violation of 7.5e-10 relative to the
    # difference, but of 1.5e-9 relative to max(norm(a), norm(b)) = 1e3,
    # which is what the verifier's order check reads too
    a = elem([[-1e3, 0], [0, 0]])
    b = elem([[1e3, 0], [0, -1.5e-6]])
    assert not loewner_leq(a, b, tol=1e-9)
    assert _order_violations(a.entries[None], b.entries[None])[0] > 1e-9
    assert loewner_leq(a, b, tol=2e-9)
    # a 1% violation is one at every scale: the order has no absolute floor
    for e in range(-12, 13):
        s = 10.0 ** e
        a, b = elem([[s, 0], [0, s]]), elem([[0.99 * s, 0], [0, s]])
        assert not loewner_leq(a, b)
        assert _order_violations(a.entries[None], b.entries[None])[0] == \
            pytest.approx(1e-2)


def test_sqrt_diagonal():
    r = alg_sqrt(elem([[4, 0], [0, 9]]))
    np.testing.assert_allclose(r.entries, np.diag([2.0, 3.0]), atol=1e-12)


def test_sqrt_identity():
    r = alg_sqrt(AlgebraElement.identity(4))
    np.testing.assert_allclose(r.entries, np.eye(4), atol=1e-14)


def test_sqrt_squares_back():
    b = random_elem(5, 3)
    a = alg_adjoint(b) @ b
    r = alg_sqrt(a)
    assert alg_norm(r @ r - a) <= 1e-10 * alg_norm(a)
    assert is_positive(r, tol=TOL)


def test_sqrt_rejects_non_positive():
    with pytest.raises(NotPositive):
        alg_sqrt(elem([[0, 1], [0, 0]]))
    with pytest.raises(NotPositive):
        alg_sqrt(elem([[-1, 0], [0, 1]]))


def test_sqrt_idempotence_tower():
    # fourth power of the double square root recovers the element
    b = random_elem(13, 3)
    a = alg_adjoint(b) @ b
    q = alg_sqrt(alg_sqrt(a))
    fourth = q @ q @ q @ q
    assert alg_norm(fourth - a) <= 1e-8 * max(1.0, alg_norm(a))


def test_norm_hermitian_spectral():
    assert alg_norm(elem([[3, 0], [0, -1]])) == pytest.approx(3.0, abs=1e-14)
    assert alg_norm(AlgebraElement.zero(3)) == 0.0


def test_norm_matches_power_iteration():
    a = random_elem(3, 4)
    m = a.entries.conj().T @ a.entries
    v = np.ones(4, dtype=np.complex128) / 2.0
    for _ in range(500):
        v = m @ v
        v = v / np.linalg.norm(v)
    rayleigh = float(np.real(v.conj() @ m @ v))
    assert alg_norm(a) == pytest.approx(np.sqrt(rayleigh), rel=1e-8)


def random_psd(rng, k):
    g = complex_normal(rng, (k, k))
    return g @ g.conj().T


SPECTRAL_CASES = {
    "complex": lambda rng, k: complex_normal(rng, (k, k)),
    "real": lambda rng, k: rng.standard_normal((k, k)),
    "psd": random_psd,
    "wide": lambda rng, k: complex_normal(rng, (k, k + 3)),
}


@pytest.mark.parametrize("case", sorted(SPECTRAL_CASES))
def test_spectral_norm_matches_numpy_norm_bit_for_bit(case):
    rng = stream(71, len(case))
    for k in (1, 1, 2, 3, 4, 7, 16, 32):
        a = SPECTRAL_CASES[case](rng, k)
        assert spectral_norm(a) == np.linalg.norm(a, 2)


def test_cstar_identity_batch():
    rng = stream(2024, 0)
    for _ in range(500):
        n = int(rng.integers(1, 5))
        a = AlgebraElement(complex_normal(rng, (n, n)))
        lhs = alg_norm(alg_adjoint(a) @ a)
        rhs = alg_norm(a) ** 2
        assert abs(lhs - rhs) <= 1e-10 * max(rhs, 1e-30)


def test_product_adjoint_antihomomorphism():
    a = random_elem(17, 4)
    b = random_elem(18, 4)
    lhs = alg_adjoint(a @ b)
    rhs = alg_adjoint(b) @ alg_adjoint(a)
    scale = max(1.0, alg_norm(lhs))
    assert alg_norm(lhs - rhs) <= 1e-12 * scale


def test_rejects_non_square():
    with pytest.raises(ValueError):
        AlgebraElement(np.zeros((2, 3), dtype=np.complex128))


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        AlgebraElement(np.array([[np.inf, 0], [0, 1]], dtype=np.complex128))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=5))
def test_gram_always_positive(seed, n):
    b = random_elem(seed, n)
    assert is_positive(alg_adjoint(b) @ b, tol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_norm_subadditive(seed):
    a = random_elem(seed, 3)
    b = random_elem(seed + 1, 3)
    assert alg_norm(a + b) <= alg_norm(a) + alg_norm(b) + 1e-12


@pytest.mark.parametrize("f", [_top_singular, _unitaries])
def test_per_shape_is_the_per_matrix_map_from_one_call_per_shape(f):
    # interleaved shapes, square and not; a QR takes the square ones
    rng = stream(31, 0)
    shapes = [(2, 2), (3, 3), (2, 3), (2, 2), (1, 1), (3, 3), (2, 3), (2, 2)]
    if f is _unitaries:
        shapes = [s for s in shapes if s[0] == s[1]]
    mats = [complex_normal(rng, s) for s in shapes]
    stacks = []

    def recording(stack):
        stacks.append(stack)
        return f(stack)

    got = _per_shape(recording, mats)
    assert [s.shape[1:] for s in stacks] == list(dict.fromkeys(shapes))
    for s in stacks:
        assert s.tobytes() == np.stack([m for m in mats if m.shape == s.shape[1:]]).tobytes()
    want = [f(m[None])[0] for m in mats]
    assert len(got) == len(mats)
    for g, w in zip(got, want):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


@pytest.mark.parametrize("tol", [np.nan, -1e-9])
def test_is_positive_refuses_a_nan_or_negative_tol(tol):
    with pytest.raises(ValueError, match="tol must be nonnegative"):
        is_positive(AlgebraElement.identity(2), tol)
