"""The library's sandwich predicates decide by the verifier's rule.

``energy_bound_check``, ``gram_sandwich_check`` and ``check_sandwich`` call
``algebra._sandwich`` on arrays.  The references below are their former
bodies, which compared ``AlgebraElement`` wrappers with ``loewner_leq``, with
its separate Hermitian test taken out: on a seeded corpus far from unit
scale and at tight bounds their verdicts must agree, and on inputs that
overflow the predicates must raise what the wrapper bodies raised.
"""

import numpy as np
import pytest

from gframes import (AlgebraElement, GFrameFamily, MeasurePoint, ModuleOperator,
                     ModuleVector, NotSurjective, check_sandwich,
                     energy_bound_check, frame_operator, gram_sandwich_check,
                     inner, is_surjective, op_adjoint, op_apply, op_compose,
                     op_norm, sandwich_sum)
from gframes.algebra import _hmin, _order_violations
from gframes.rng import complex_normal, stream

TOLS = (1e-9, 1e-14, 1e-16, 1e-18)
CASES = 150


def leq(a, b, tol):
    """``loewner_leq`` without its Hermitian test."""
    return _order_violations(a.entries[None], b.entries[None])[0] <= tol


def reference_energy(t, x, tol):
    tx = op_apply(t, x)
    bound = (op_norm(t) ** 2) * inner(x, x)
    return leq(inner(tx, tx), bound, tol)


def reference_gram(t, tol):
    if not is_surjective(t):
        raise NotSurjective("gram sandwich requires a surjective operator")
    g = op_compose(t, op_adjoint(t))
    gm = AlgebraElement(g.action)
    lo, hi = float(_hmin(g.action)), float(op_norm(t) ** 2)
    eye = AlgebraElement.identity(g.action.shape[0])
    return leq(lo * eye, gm, tol) and leq(gm, hi * eye, tol)


def reference_sandwich(family, lower, upper, samples, seed, tol):
    n, d = family.algebra_dim, family.module_rank
    rng = stream(seed, 0)
    for _ in range(samples):
        x = ModuleVector(n, d, complex_normal(rng, (n, d * n)))
        xx = inner(x, x)
        val = sandwich_sum(family, x)
        if not (leq(lower * xx, val, tol) and leq(val, upper * xx, tol)):
            return False
    return True


def verdict(f, *args):
    try:
        return f(*args)
    except NotSurjective:
        return "NotSurjective"


def corpus():
    """Cases for each predicate at scales 10**k, k in [-8, 8]: operators with
    n, d, e <= 3 and vectors, scalar maps whose bounds are tight, and
    frames of up to three points at one scale, the first square, with their
    optimal bounds."""
    rng = stream(34, 0)

    def scale():
        return 10.0 ** int(rng.integers(-8, 9))

    def op(n, d, e, s=None):
        return ModuleOperator(n, d, e, (s or scale()) * complex_normal(rng, (d * n, e * n)))

    cases = {"energy": [], "gram": [], "sandwich": []}
    for i in range(CASES):
        n, d, e = (int(v) for v in rng.integers(1, 4, 3))
        x = ModuleVector(n, d, complex_normal(rng, (n, d * n)))
        cases["energy"] += [(op(n, d, e), x),
                            (op(1, 1, 1), ModuleVector(1, 1, complex_normal(rng, (1, 1))))]
        cases["gram"] += [(op(n, d, int(rng.integers(1, d + 1))),), (op(1, 2, 1),)]
        n, d = (int(v) for v in rng.integers(1, 3, 2))
        s = scale()
        fam = GFrameFamily(n, d, tuple(
            MeasurePoint(float(rng.uniform(0.5, 2.0)),
                         op(n, d, d if j == 0 else int(rng.integers(1, d + 1)), s))
            for j in range(int(rng.integers(1, 4)))))
        w = np.linalg.eigvalsh(frame_operator(fam).action)
        cases["sandwich"].append((fam, float(w[0]), float(w[-1]), 3, i))
    return cases


@pytest.mark.parametrize("tol", TOLS)
def test_predicates_match_the_wrapper_bodies_without_the_hermitian_test(tol):
    cases = corpus()
    for name, f, ref in (("energy", energy_bound_check, reference_energy),
                         ("gram", gram_sandwich_check, reference_gram),
                         ("sandwich", check_sandwich, reference_sandwich)):
        got = [verdict(f, *args, tol) for args in cases[name]]
        assert got == [verdict(ref, *args, tol) for args in cases[name]], name
        # at roundoff level the corpus reaches both verdicts
        assert len(set(got)) > 1 or tol > 1e-16, name


def one_point(value):
    return GFrameFamily(1, 1, (MeasurePoint(1.0, ModuleOperator(1, 1, 1, [[value]])),))


@pytest.mark.parametrize("call, error, match", [
    (lambda: energy_bound_check(ModuleOperator(1, 1, 1, [[1e200]]),
                                ModuleVector(1, 1, [[1e200]])),
     ValueError, "vector entries must be finite"),
    (lambda: energy_bound_check(ModuleOperator(1, 1, 1, [[1e160]]),
                                ModuleVector(1, 1, [[1.0]])),
     OverflowError, None),
    (lambda: energy_bound_check(ModuleOperator(1, 1, 1, [[1e150]]),
                                ModuleVector(1, 1, [[1e5]])),
     ValueError, "matrix entries must be finite"),
    (lambda: gram_sandwich_check(ModuleOperator(1, 2, 1, [[1e200], [1e200j]])),
     ValueError, "action entries must be finite"),
    (lambda: check_sandwich(one_point(1e160), 0.5, 2.0, 2, 0),
     ValueError, "matrix entries must be finite"),
    (lambda: check_sandwich(one_point(1e150), 0.5, 1.7e308, 2, 0),
     ValueError, "matrix entries must be finite"),
], ids=["energy_vector", "energy_norm_squared", "energy_bound", "gram",
        "sandwich_energy", "sandwich_bound"])
def test_overflow_raises_what_the_wrappers_raised(call, error, match):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error, match=match):
        call()
