"""Controlled frame operators, synthesis/analysis, cross operators, transfers."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gframes import (FRAME, DEFAULT_TOL, AlgebraElement, ControlledScenario,
                     ControlPair, GFrameFamily, MeasureMismatch, MeasurePoint,
                     ModuleOperator, ModuleVector, NotAFrame, alg_norm,
                     analysis, bounds_cc_from_plain, bounds_plain_from_cc,
                     check_sandwich, classify, controlled_classify,
                     controlled_frame_operator, cross_adjoint_resolve,
                     cross_operator, decide_commutation, frame_operator,
                     generate, generate_pair, identity_control, inner,
                     loewner_leq, make_positive_invertible, op_apply, op_norm,
                     optimal_bounds, reconstruct, surjectivity_transfer,
                     synthesis, synthesis_norm_check, synthesis_operator,
                     validate_commutation, vec_norm)
from gframes.algebra import spectral_norm
from gframes.controlled import (CommutationReport, TransferResult,
                                _frobenius_passes, _same_control)
from gframes.errors import (CommutationViolated, GFrameError,
                            PreconditionViolated)
from gframes.frames import _spectrum, _verdict
from gframes.generators import FLAVORS, GeneratorSpec
from gframes.operators import SURJECTIVITY_TOL, is_bounded_below
from gframes.rng import complex_normal, stream
from gframes.verifier import run_suite


def diag_control(n, d, *vals):
    action = np.diag(np.array(vals, dtype=np.complex128))
    return make_positive_invertible(ModuleOperator(n, d, d, action))


def scalar_scenario():
    """Single point, weight 1, scalar action 1, controls 2 and 3."""
    fam = GFrameFamily(1, 1, (MeasurePoint(1.0, ModuleOperator(
        1, 1, 1, np.array([[1.0]], dtype=np.complex128))),))
    return ControlledScenario(fam, ControlPair(diag_control(1, 1, 2.0),
                                               diag_control(1, 1, 3.0)))


def identity_point_scenario(n=2, d=2):
    fam = GFrameFamily(n, d, (MeasurePoint(1.0, ModuleOperator.identity(n, d)),))
    return ControlledScenario(fam, ControlPair(identity_control(n, d),
                                               identity_control(n, d)))


def random_vec(rng, n, d):
    return ModuleVector(n, d, complex_normal(rng, (n, d * n)))


# ---------------------------------------------------------- commutation


def test_commutation_identity_controls():
    sc = identity_point_scenario()
    rep = sc.pair.report_on(sc.family)
    assert rep.passed
    assert rep.cc_commutator == 0.0
    assert all(r == (0.0, 0.0) for r in rep.per_point)


def test_commutation_scalar_multiple_any_family():
    sc = generate(GeneratorSpec(seed=77, n=2, d=2, m=3, flavor="generic"))
    two = diag_control(2, 2, 2.0, 2.0, 2.0, 2.0)
    pair = ControlPair(two, two)
    assert pair.report_on(sc.family).passed


def test_commutation_generated_commuting_seed23():
    sc = generate(GeneratorSpec(seed=23, n=2, d=2, m=4, flavor="commuting"))
    rep = sc.pair.report_on(sc.family)
    assert rep.passed
    worst = max([rep.cc_commutator] + [r for row in rep.per_point for r in row])
    assert worst <= 1e-10


def test_commutation_failure_is_reported_not_raised():
    fam = GFrameFamily(1, 2, (MeasurePoint(1.0, ModuleOperator(
        1, 2, 2, np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.complex128))),))
    skew = diag_control(1, 2, 1.0, 5.0)
    pair = ControlPair(skew, skew)
    assert not pair.report_on(fam).passed


def random_control(seed, n, d):
    """Dense positive invertible control: commutes with no generic gram."""
    a = complex_normal(stream(seed, 0), (d * n, d * n))
    action = a @ a.conj().T + np.eye(d * n)
    return make_positive_invertible(ModuleOperator(n, d, d, action))


def reference_rel_commutator(a, b):
    """The certificate's relative commutator with every norm taken afresh:
    three spectral norms per commutator."""
    num = float(np.linalg.norm(a @ b - b @ a, 2))
    scale = max(1.0, float(np.linalg.norm(a, 2)) * float(np.linalg.norm(b, 2)))
    return num / scale


def reference_certificate(family, c, cp):
    ca, cpa = c.base.action, cp.base.action
    rows = []
    for p in family.points:
        gram = p.lam.action @ p.lam.action.conj().T
        rows.append((reference_rel_commutator(ca, gram),
                     reference_rel_commutator(cpa, gram)))
    return reference_rel_commutator(ca, cpa), tuple(rows)


@pytest.mark.parametrize("shape", [(2, 2, 4), (8, 4, 16), (1, 1, 1)])
@pytest.mark.parametrize("flavor", ["generic", "commuting", "parseval",
                                    "bessel_only"])
def test_commutation_matches_reference_loop_bit_for_bit(flavor, shape):
    n, d, m = shape
    skew = random_control(182, n, d)
    eye = identity_control(n, d)
    for spectrum in ((0.5, 2.0), (1.0, 1.0), (1e-6, 1e6)):
        sc, twin = generate_pair(GeneratorSpec(seed=181, n=n, d=d, m=m,
                                               spectrum_range=spectrum,
                                               flavor=flavor))
        c, cp = sc.pair.c, sc.pair.cp
        for fam, x, y in ((sc.family, c, cp), (twin, c, cp),
                          (sc.family, c, c), (twin, skew, cp),
                          (sc.family, eye, eye), (twin, eye, skew),
                          (twin, skew, skew)):
            rep = validate_commutation(fam, x, y)
            cc, rows = reference_certificate(fam, x, y)
            assert rep.cc_commutator == cc
            assert rep.per_point == rows


@pytest.mark.parametrize("shape", [(2, 2, 4), (8, 4, 16), (1, 1, 1)])
@pytest.mark.parametrize("flavor", ["generic", "commuting", "parseval",
                                    "bessel_only"])
def test_same_control_certificate_is_a_subset_of_the_pair(flavor, shape):
    # (C, C) measures each [C, gram_w] exactly as (C, C') does, so a pair
    # that passed on a family passes as (C, C) there too
    n, d, m = shape
    skew = random_control(182, n, d)
    eye = identity_control(n, d)
    sc, twin = generate_pair(GeneratorSpec(seed=181, n=n, d=d, m=m,
                                           flavor=flavor))
    c, cp = sc.pair.c, sc.pair.cp
    for fam, x, y in ((sc.family, c, cp), (twin, c, cp), (twin, skew, cp),
                      (sc.family, eye, eye), (twin, eye, skew),
                      (twin, skew, eye)):
        rows = validate_commutation(fam, x, y).per_point
        assert (validate_commutation(fam, x, x).per_point
                == tuple((r, r) for r, _ in rows))
        assert decide_commutation(fam, x, x) or not decide_commutation(fam, x, y)


def scaled_control(c, s):
    return make_positive_invertible(ModuleOperator(
        c.base.algebra_dim, c.base.domain_rank, c.base.domain_rank,
        s * c.base.action))


def certificate_outcome(certify, *args):
    """Return value of ``certify(*args)``, or the type of what it raised."""
    try:
        return certify(*args)
    except np.linalg.LinAlgError as exc:  # an overflowed commutator
        return type(exc)


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 2, 4), (3, 2, 3), (8, 4, 16)])
@pytest.mark.parametrize("flavor", ["generic", "commuting", "parseval",
                                    "bessel_only"])
def test_decision_agrees_with_the_exact_certificate(flavor, shape):
    # tolerances a relative 1e-6 above the worst commutator pass dense skew
    # controls whose Frobenius norms lie above the bound's threshold, so
    # only the spectral-norm fallback decides them
    n, d, m = shape
    skew = random_control(188, n, d)
    eye = identity_control(n, d)
    verdicts = []
    for spectrum in ((0.5, 2.0), (1.0, 1.0), (1e-6, 1e6), (1.0, 1e150)):
        sc, twin = generate_pair(GeneratorSpec(seed=189, n=n, d=d, m=m,
                                               spectrum_range=spectrum,
                                               flavor=flavor))
        c, cp = sc.pair.c, sc.pair.cp
        triples = [(sc.family, c, cp), (twin, c, cp), (sc.family, c, c),
                   (twin, skew, cp), (sc.family, skew, skew),
                   (sc.family, eye, eye), (twin, eye, skew)]
        triples += [(fam, scaled_control(x, s), scaled_control(y, s))
                    for s in (1e100, 1e-100)
                    for fam, x, y in ((sc.family, c, cp), (twin, skew, cp))]
        for fam, x, y in triples:
            with np.errstate(over="ignore", invalid="ignore"):
                rep = certificate_outcome(validate_commutation, fam, x, y)
            tols = [1e-9, 1e-18]
            if isinstance(rep, CommutationReport):
                entries = [rep.cc_commutator] + [r for row in rep.per_point
                                                 for r in row]
                worst = max(entries)
                tols += [worst * (1 + f) for f in (-1e-6, -1e-15, 1e-15, 1e-6)]
            for tol in tols:
                with np.errstate(over="ignore", invalid="ignore"):
                    got = certificate_outcome(decide_commutation, fam, x, y, tol)
                # the report's entries do not depend on tol; its verdict is
                # every entry at most tol
                want = (all(e <= tol for e in entries)
                        if isinstance(rep, CommutationReport) else rep)
                verdicts.append((got, want))
    assert len(verdicts) >= 4 * 11 * 2
    assert [v for v in verdicts if v[0] != v[1]] == []
    if n * d > 1:
        assert {v[0] for v in verdicts} >= {True, False}


def test_frobenius_bound_decides_nothing_it_cannot_see():
    # each commutator's spectral norm fails tol, but its Frobenius norm,
    # summed in doubles, reads at most half of tol: every square lost to
    # underflow, all squares but one lost, and a sum overflowed against an
    # infinite scale
    c = diag_control(1, 2, 1.0, 2.0)
    lost = np.full((2, 2), 1e-170, dtype=np.complex128)
    one_kept = np.full((12, 12), 1.5e-162, dtype=np.complex128)
    one_kept[0, 0] = 2.3e-162
    overflowed = np.full((4, 4), 1e308, dtype=np.complex128)
    for x, lo_b, tol in ((lost, 0.0, 1e-170), (one_kept, 0.0, 1e-161),
                         (overflowed, np.inf, 0.5)):
        assert not spectral_norm(x) / max(1.0, c.norm * lo_b) <= tol
        assert not _frobenius_passes(c, x, lo_b, tol)
    assert _frobenius_passes(c, np.zeros((2, 2), dtype=np.complex128), 0.0, 0.0)


@pytest.mark.xfail(strict=True, reason="the max(1, .) floor makes the "
                   "certificate absolute once norm(k) * norm(gram) < 1")
def test_certificate_ignores_family_scale():
    # C and C' = C^2 commute to roundoff, but not with the gram terms of a
    # generic family, so the pair fails on it.  With every point action
    # times 1e-6, each relative commutator falls under the floor and the
    # pair passes, though the controlled operator then differs from its
    # definition sum by 2.3e-2 relative.
    fam = generate(GeneratorSpec(seed=3, n=2, d=2, m=4, flavor="generic")).family
    small = GFrameFamily(2, 2, tuple(
        MeasurePoint(p.weight, ModuleOperator(2, 2, p.codomain_rank,
                                              1e-6 * p.lam.action))
        for p in fam.points))
    a = complex_normal(stream(11, 0), (4, 4))
    m = a @ a.conj().T + np.eye(4)
    m *= 2 / spectral_norm(m)
    c = make_positive_invertible(ModuleOperator(2, 2, 2, m))
    cp = make_positive_invertible(ModuleOperator(2, 2, 2, m @ m))
    assert not decide_commutation(fam, c, cp)
    assert not decide_commutation(small, c, cp)


def test_identity_controls_take_no_norm(calls):
    sc = generate(GeneratorSpec(seed=183, n=3, d=2, m=5, flavor="generic"))
    eye = identity_control(3, 2)
    del calls["norm2"][:]
    for c, cp in ((eye, eye), (eye, identity_control(3, 2))):
        rep = validate_commutation(sc.family, c, cp)
        assert rep.passed
        assert rep.cc_commutator == 0.0
        assert rep.per_point == ((0.0, 0.0),) * 5
    assert calls["norm2"] == []


def test_same_control_pair_takes_each_commutator_once(calls):
    # (C, C): [C, C] is zero, and each point takes one commutator norm and
    # one gram norm; the certified control already carries its norm
    sc = generate(GeneratorSpec(seed=184, n=2, d=2, m=4, flavor="generic"))
    skew = random_control(185, 2, 2)
    del calls["norm2"][:]
    rep = validate_commutation(sc.family, skew, skew)
    assert not rep.passed
    assert rep.cc_commutator == 0.0
    assert all(r == s and r > 0.0 for r, s in rep.per_point)
    assert len(calls["norm2"]) == 2 * 4


def test_decision_stops_at_the_first_failing_commutator(calls):
    # the dense skew pair fails on the first point: one gram norm and one
    # commutator norm, where the report takes all eight
    sc = generate(GeneratorSpec(seed=184, n=2, d=2, m=4, flavor="generic"))
    skew = random_control(185, 2, 2)
    del calls["norm2"][:]
    assert not decide_commutation(sc.family, skew, skew)
    assert len(calls["norm2"]) == 2
    del calls["norm2"][:]
    assert not validate_commutation(sc.family, skew, skew).passed
    assert len(calls["norm2"]) == 2 * 4


def test_explicit_identity_control_takes_no_norm(calls):
    # an identity matrix certified like any other control is still the identity
    sc = generate(GeneratorSpec(seed=187, n=2, d=2, m=4, flavor="commuting"))
    eye = make_positive_invertible(ModuleOperator.identity(2, 2))
    assert eye.is_identity and not sc.pair.cp.is_identity
    del calls["norm2"][:]
    rep = validate_commutation(sc.family, eye, sc.pair.cp)
    assert rep.cc_commutator == 0.0
    assert all(r == 0.0 for r, _ in rep.per_point)
    # one gram norm and one commutator norm per point, all against C'
    assert len(calls["norm2"]) == 2 * 4


def test_control_norms_are_taken_once_with_op_norm_bits(calls):
    skew = random_control(186, 2, 3)
    eye = identity_control(2, 3)
    del calls["op_norm"][:]
    for _ in range(2):
        for c in (skew, eye):
            assert c.norm == float(np.linalg.norm(c.base.action, 2))
            assert c.inverse_norm == float(np.linalg.norm(c.inverse.action, 2))
    # make_positive_invertible gave skew its norm; the other three once each
    assert calls["op_norm"] == [skew.inverse, eye.base, eye.inverse]


# ------------------------------------------------- certify once


@pytest.mark.parametrize("flavor", ["generic", "commuting", "parseval",
                                    "bessel_only"])
def test_suite_certifies_each_control_pair_and_family_once(certificate_calls,
                                                           flavor):
    # (family, C, C'), then (twin, C, C'); the same-control pair (C, C)
    # takes its verdict on the family from (C, C')
    run_suite([GeneratorSpec(seed=191, n=2, d=2, m=4, flavor=flavor)])
    family, twin = certificate_calls
    assert twin is not family


def test_same_control_pair_takes_only_passed_verdicts(certificate_calls):
    sc, twin = generate_pair(GeneratorSpec(seed=195, n=2, d=2, m=4,
                                           flavor="commuting"))
    pair = sc.pair
    rng = stream(196, 0)
    other = GFrameFamily(2, 2, tuple(
        MeasurePoint(p.weight, ModuleOperator(
            2, 2, p.codomain_rank, complex_normal(rng, (4, 2 * p.codomain_rank))))
        for p in sc.family.points))
    assert pair.passed_on(sc.family) and not pair.passed_on(other)
    cc = _same_control(pair)
    assert (cc.c, cc.cp, cc.tol) == (pair.c, pair.c, pair.tol)
    del certificate_calls[:]
    assert cc.passed_on(sc.family)
    assert certificate_calls == []
    # the verdict it took is the one its own certificate gives
    assert decide_commutation(sc.family, pair.c, pair.c, pair.tol)
    # a family the pair failed on, or never saw, takes its own certificate
    del certificate_calls[:]
    assert not cc.passed_on(other)
    assert cc.passed_on(twin)
    assert certificate_calls == [other, twin]


def test_pair_certifies_each_family_on_first_use(certificate_calls):
    sc, twin = generate_pair(GeneratorSpec(seed=192, n=2, d=2, m=4,
                                           flavor="commuting"))
    assert certificate_calls == []
    rep = sc.pair.report_on(twin)
    assert sc.pair.report_on(twin) is rep
    cross_operator(sc.family, twin, sc.pair)
    surjectivity_transfer(sc.family, twin, sc.pair)
    assert certificate_calls == [twin, sc.family]


def test_unseen_noncommuting_family_is_rejected():
    sc = generate(GeneratorSpec(seed=193, n=2, d=2, m=4, flavor="commuting"))
    rng = stream(194, 0)
    other = GFrameFamily(2, 2, tuple(
        MeasurePoint(p.weight, ModuleOperator(
            2, 2, p.codomain_rank, complex_normal(rng, (4, 2 * p.codomain_rank))))
        for p in sc.family.points))
    assert not validate_commutation(other, sc.pair.c, sc.pair.cp).passed
    for call in (cross_operator, cross_adjoint_resolve, surjectivity_transfer):
        with pytest.raises(CommutationViolated, match=re.escape(
                "certificate failed on the second family (worst relative "
                "commutator")):
            call(sc.family, other, sc.pair)
        with pytest.raises(CommutationViolated, match=re.escape(
                "certificate failed on the first family (worst relative "
                "commutator")):
            call(other, sc.family, sc.pair)


def test_replaced_pair_keeps_no_stored_report(certificate_calls):
    sc = generate(GeneratorSpec(seed=197, n=2, d=2, m=4, flavor="commuting"))
    original = sc.pair.report_on(sc.family)
    moved = dataclasses.replace(sc.pair, cp=random_control(198, 2, 2))
    del certificate_calls[:]
    rep = moved.report_on(sc.family)
    assert certificate_calls == [sc.family]
    assert rep is not original
    assert not rep.passed
    assert moved.report_on(sc.family) is rep
    assert len(certificate_calls) == 1


def test_control_pair_checks_itself():
    # a control on another space, and a tolerance no commutator can meet
    sc = generate(GeneratorSpec(seed=204, n=2, d=2, m=4, flavor="commuting"))
    with pytest.raises(ValueError, match="same space"):
        dataclasses.replace(sc.pair, cp=identity_control(2, 3))
    for tol in (float("nan"), -1.0):
        with pytest.raises(ValueError, match="tol"):
            ControlPair(sc.pair.c, sc.pair.cp, tol)
    # the tolerance defaults to the library's
    assert ControlPair(sc.pair.c, sc.pair.cp).tol == DEFAULT_TOL


def scaled_control(c, factor):
    b = c.base
    return make_positive_invertible(ModuleOperator(
        b.algebra_dim, b.domain_rank, b.domain_rank, factor * b.action))


def test_control_pair_rejects_an_overflowing_product():
    # each control is certified on its own, but their product overflows, so
    # every controlled operation would fail later in an SVD
    sc = generate(GeneratorSpec(seed=189, n=2, d=2, m=4,
                                spectrum_range=(1, 1e150), flavor="commuting"))
    c, cp = (scaled_control(k, 1e100) for k in (sc.pair.c, sc.pair.cp))
    with pytest.raises(ValueError, match="norms multiply to inf"):
        ControlledScenario(sc.family, ControlPair(c, cp))
    with pytest.raises(ValueError, match="norms multiply to inf"):
        ControlPair(c, c)
    # the ceiling is on the product, not on each control
    ControlPair(diag_control(1, 1, 1e150), diag_control(1, 1, 9e149))
    with pytest.raises(ValueError, match=re.escape("multiply to 1.100e+300")):
        ControlPair(diag_control(1, 1, 1e150), diag_control(1, 1, 1.1e150))


def test_replaced_control_gets_its_own_product_root():
    # the root of the old pair is taken and kept before the replace; the new
    # pair must factor and invert its own controlled operator
    sc = generate(GeneratorSpec(seed=11, n=2, d=2, m=4, flavor="commuting"))
    synthesis_operator(sc)
    cp = sc.pair.cp.base
    moved = dataclasses.replace(sc.pair, cp=make_positive_invertible(
        ModuleOperator(2, 2, 2, 2 * cp.action)))
    scen = ControlledScenario(sc.family, moved)
    t = synthesis_operator(scen).action
    s = controlled_frame_operator(scen).action
    assert (np.linalg.norm(t.conj().T @ t - s, 2)
            <= 1e-12 * np.linalg.norm(s, 2))
    x = random_vec(stream(212, 0), 2, 2)
    res = reconstruct(scen, x)
    assert res.error / max(1.0, vec_norm(x)) <= 1e-8 * res.condition_number


def noncommuting_family_like(family, seed):
    """Random dense actions on ``family``'s weighted points: no dense control
    commutes with their gram terms."""
    rng = stream(seed, 0)
    n, d = family.algebra_dim, family.module_rank
    return GFrameFamily(n, d, tuple(
        MeasurePoint(p.weight, ModuleOperator(
            n, d, p.codomain_rank, complex_normal(rng, (d * n, n * p.codomain_rank))))
        for p in family.points))


SCENARIO_OPERATIONS = {
    "controlled_frame_operator": controlled_frame_operator,
    "synthesis_operator": synthesis_operator,
    "synthesis": lambda sc: synthesis(sc, [ModuleVector.zero(2, p.codomain_rank)
                                           for p in sc.family.points]),
    "analysis": lambda sc: analysis(sc, random_vec(stream(200, 0), 2, 2)),
    "reconstruct": lambda sc: reconstruct(sc, random_vec(stream(201, 0), 2, 2)),
}


@pytest.mark.parametrize("name", sorted(SCENARIO_OPERATIONS))
def test_pair_on_an_uncertified_family_is_rejected(name):
    # the pair passed on its own family; a scenario is certified on its own
    sc = generate(GeneratorSpec(seed=199, n=2, d=2, m=4, flavor="commuting"))
    other = noncommuting_family_like(sc.family, 202)
    assert sc.pair.report_on(sc.family).passed
    assert not validate_commutation(other, sc.pair.c, sc.pair.cp).passed
    with pytest.raises(CommutationViolated, match="certificate failed"):
        SCENARIO_OPERATIONS[name](ControlledScenario(other, sc.pair))
    SCENARIO_OPERATIONS[name](sc)


def test_twin_scenario_is_certified_once(certificate_calls):
    sc, twin = generate_pair(GeneratorSpec(seed=203, n=2, d=2, m=4,
                                           flavor="commuting"))
    scen_twin = ControlledScenario(twin, sc.pair)
    controlled_frame_operator(scen_twin)
    assert certificate_calls == [twin]
    synthesis_operator(scen_twin)
    cross_operator(sc.family, twin, sc.pair)
    surjectivity_transfer(sc.family, twin, sc.pair)
    assert certificate_calls == [twin, sc.family]


# ------------------------------------------------- controlled operator


def test_frame_operator_is_kept_per_family():
    sc = generate(GeneratorSpec(seed=205, n=2, d=2, m=4, flavor="commuting"))
    s = frame_operator(sc.family)
    assert frame_operator(sc.family) is s
    with pytest.raises(ValueError, match="read-only"):
        s.action[0, 0] = 0
    # a family built by replace keeps nothing of the original's
    fewer = dataclasses.replace(sc.family, points=sc.family.points[1:])
    l = stacked(fewer)
    np.testing.assert_allclose(frame_operator(fewer).action, l @ l.conj().T,
                               atol=1e-13)
    assert frame_operator(dataclasses.replace(sc.family)) is not s
    # a failing pair raises on every call, however much is kept
    bad = ControlledScenario(noncommuting_family_like(sc.family, 206), sc.pair)
    frame_operator(bad.family)
    for _ in range(2):
        with pytest.raises(CommutationViolated, match="certificate failed"):
            controlled_frame_operator(bad)


def test_controlled_operator_identity_reduction():
    sc = generate(GeneratorSpec(seed=19, n=2, d=2, m=3, flavor="generic"))
    s_plain = frame_operator(sc.family)
    s_cc = controlled_frame_operator(sc)
    np.testing.assert_allclose(s_cc.action, s_plain.action, atol=1e-13)


def test_controlled_operator_scalar_product():
    s = controlled_frame_operator(scalar_scenario())
    np.testing.assert_allclose(s.action, [[6.0]], atol=1e-14)


def test_controlled_operator_matches_summation_oracle():
    sc = generate(GeneratorSpec(seed=29, n=2, d=3, m=5, flavor="commuting"))
    ca = sc.pair.c.base.action
    cpa = sc.pair.cp.base.action
    acc = np.zeros_like(ca)
    for p in sc.family.points:
        gram = p.lam.action @ p.lam.action.conj().T
        acc += p.weight * (ca @ gram @ cpa)
    got = controlled_frame_operator(sc).action
    assert np.linalg.norm(got - acc) <= 1e-11 * max(1.0, np.linalg.norm(acc))


def test_controlled_operator_congruence_form():
    # equals P S P for P the square root of the control product
    sc = generate(GeneratorSpec(seed=31, n=3, d=2, m=4, flavor="commuting"))
    p = sc.pair.product_sqrt.action
    s = frame_operator(sc.family).action
    target = p @ s @ p
    got = controlled_frame_operator(sc).action
    assert np.linalg.norm(got - target) <= 1e-9 * max(1.0, np.linalg.norm(target))


def test_controlled_operator_hermitian():
    sc = generate(GeneratorSpec(seed=37, n=2, d=2, m=4, flavor="commuting"))
    a = controlled_frame_operator(sc).action
    assert np.linalg.norm(a - a.conj().T) <= 1e-9 * np.linalg.norm(a)


def test_controlled_classify_parseval_identity():
    sc = generate(GeneratorSpec(seed=41, n=2, d=2, m=4, flavor="parseval"))
    v = controlled_classify(sc)
    assert v.kind == FRAME
    assert v.bounds.lower == pytest.approx(1.0, abs=1e-9)
    assert v.bounds.upper == pytest.approx(1.0, abs=1e-9)


def test_controlled_classify_scalar_example():
    v = controlled_classify(scalar_scenario())
    assert v.kind == FRAME
    assert v.bounds.lower == pytest.approx(6.0, abs=1e-12)
    assert v.bounds.upper == pytest.approx(6.0, abs=1e-12)


def test_controlled_classify_sandwich_agreement():
    sc = generate(GeneratorSpec(seed=43, n=2, d=2, m=4, flavor="commuting"))
    v = controlled_classify(sc)
    assert v.kind == FRAME
    s_cc = controlled_frame_operator(sc)
    rng = stream(44, 0)
    for _ in range(200):
        x = random_vec(rng, 2, 2)
        mid = inner(x, op_apply(s_cc, x))
        gram = inner(x, x)
        assert loewner_leq(v.bounds.lower * gram, mid, tol=1e-9)
        assert loewner_leq(mid, v.bounds.upper * gram, tol=1e-9)


# ------------------------------------------------- synthesis / analysis


def test_synthesis_identity_point_round_trip():
    sc = identity_point_scenario()
    x = random_vec(stream(3, 0), 2, 2)
    out = synthesis(sc, [x])
    np.testing.assert_allclose(out.flat, x.flat, atol=1e-14)


def test_synthesis_zero_coefficients():
    sc = generate(GeneratorSpec(seed=47, n=2, d=2, m=3, flavor="commuting"))
    zeros = [ModuleVector.zero(2, p.codomain_rank) for p in sc.family.points]
    assert vec_norm(synthesis(sc, zeros)) == 0.0


def test_analysis_identity_point():
    sc = identity_point_scenario()
    x = random_vec(stream(5, 0), 2, 2)
    coeffs = analysis(sc, x)
    assert len(coeffs) == 1
    np.testing.assert_allclose(coeffs[0].flat, x.flat, atol=1e-14)


def test_analysis_zero_vector():
    sc = generate(GeneratorSpec(seed=53, n=2, d=2, m=3, flavor="commuting"))
    coeffs = analysis(sc, ModuleVector.zero(2, 2))
    assert all(vec_norm(c) == 0.0 for c in coeffs)


def test_synthesis_adjoint_relation():
    # <synthesis(y), x> = sum_w mu_w <y_w, Lam_w P x>
    sc = generate(GeneratorSpec(seed=59, n=2, d=2, m=4, flavor="commuting"))
    rng = stream(60, 0)
    ys = [random_vec(rng, 2, p.codomain_rank) for p in sc.family.points]
    x = random_vec(rng, 2, 2)
    lhs = inner(synthesis(sc, ys), x)
    px = ModuleVector(2, 2, x.flat @ sc.pair.product_sqrt.action)
    rhs = AlgebraElement.zero(2)
    for p, y in zip(sc.family.points, ys):
        rhs = rhs + p.weight * inner(y, op_apply(p.lam, px))
    assert alg_norm(lhs - rhs) <= 1e-11 * max(1.0, alg_norm(rhs))


def test_factorization_synthesis_after_analysis():
    for seed in (61, 62, 63):
        sc = generate(GeneratorSpec(seed=seed, n=2, d=3, m=5, flavor="commuting"))
        s_cc = controlled_frame_operator(sc)
        rng = stream(seed, 99)
        for _ in range(20):
            x = random_vec(rng, 2, 3)
            via_maps = synthesis(sc, analysis(sc, x))
            via_op = op_apply(s_cc, x)
            scale = max(1.0, vec_norm(via_op))
            assert vec_norm(via_maps - via_op) <= 1e-10 * scale


def test_stacked_synthesis_gram_is_controlled_operator():
    sc = generate(GeneratorSpec(seed=67, n=3, d=2, m=4, flavor="commuting"))
    k = synthesis_operator(sc)
    gram = k.action.conj().T @ k.action
    s_cc = controlled_frame_operator(sc).action
    assert np.linalg.norm(gram - s_cc) <= 1e-10 * np.linalg.norm(s_cc)


def test_synthesis_norm_parseval_tight():
    sc = generate(GeneratorSpec(seed=71, n=2, d=2, m=5, flavor="parseval"))
    k = synthesis_operator(sc)
    assert op_norm(k) == pytest.approx(1.0, abs=1e-9)
    assert synthesis_norm_check(sc)


def test_synthesis_norm_scalar_rank_one():
    sc = scalar_scenario()
    k = synthesis_operator(sc)
    assert op_norm(k) == pytest.approx(np.sqrt(6.0), abs=1e-12)
    assert synthesis_norm_check(sc)


def test_synthesis_norm_batch():
    for i in range(20):
        flavor = "commuting" if i % 2 else "generic"
        sc = generate(GeneratorSpec(seed=200 + i, n=2, d=2, m=4, flavor=flavor))
        assert synthesis_norm_check(sc)


# --------------------------------------------------------- cross operator


def test_cross_self_identity_controls_reduces_to_frame_operator():
    sc = generate(GeneratorSpec(seed=73, n=2, d=2, m=3, flavor="generic"))
    cross = cross_operator(sc.family, sc.family, sc.pair)
    np.testing.assert_allclose(cross.action, frame_operator(sc.family).action,
                               atol=1e-12)


def test_cross_self_equals_controlled_operator():
    sc = generate(GeneratorSpec(seed=79, n=2, d=2, m=4, flavor="commuting"))
    cross = cross_operator(sc.family, sc.family, sc.pair)
    np.testing.assert_allclose(cross.action, controlled_frame_operator(sc).action,
                               atol=1e-12)


def test_cross_norm_bound_on_generated_pairs():
    for seed in (83, 89, 97):
        sc, twin = generate_pair(GeneratorSpec(seed=seed, n=2, d=2, m=4,
                                               flavor="commuting"))
        e1 = controlled_classify(sc).witnesses["lambda_max"]
        scen_twin = ControlledScenario(
            twin, ControlPair(sc.pair.c, sc.pair.cp))
        e2 = controlled_classify(scen_twin).witnesses["lambda_max"]
        cross = cross_operator(sc.family, twin, sc.pair)
        bound = np.sqrt(e1 * e2)
        assert op_norm(cross) <= bound + 1e-8 * max(1.0, bound)


def test_cross_requires_same_measure():
    sc = generate(GeneratorSpec(seed=101, n=2, d=2, m=3, flavor="commuting"))
    other = generate(GeneratorSpec(seed=102, n=2, d=2, m=3, flavor="commuting"))
    with pytest.raises(MeasureMismatch):
        cross_operator(sc.family, other.family, sc.pair)


def test_cross_adjoint_is_conjugate_transpose():
    sc, twin = generate_pair(GeneratorSpec(seed=103, n=2, d=2, m=4,
                                           flavor="commuting"))
    cross = cross_operator(sc.family, twin, sc.pair)
    adj, _ = cross_adjoint_resolve(sc.family, twin, sc.pair)
    np.testing.assert_array_equal(adj.action, cross.action.conj().T)


def test_cross_adjoint_both_forms_on_shared_structure():
    sc, twin = generate_pair(GeneratorSpec(seed=107, n=2, d=3, m=5,
                                           flavor="commuting"))
    _, diag = cross_adjoint_resolve(sc.family, twin, sc.pair)
    assert diag.matches_statement and diag.matches_proof
    assert diag.statement_residual <= 1e-10
    assert diag.proof_residual <= 1e-10


def test_cross_adjoint_symmetric_pair_coincides():
    sc = generate(GeneratorSpec(seed=109, n=2, d=2, m=4, flavor="commuting"))
    sym = ControlPair(sc.pair.c, sc.pair.c)
    _, diag = cross_adjoint_resolve(sc.family, sc.family, sym)
    assert diag.matches_statement and diag.matches_proof


def test_cross_adjoint_unshared_eigenvectors_break_statement_form():
    """Controls commuting with both grams but not with the mixed product:
    only the swapped-control closed form survives.
    """
    lam = GFrameFamily(1, 2, (MeasurePoint(1.0, ModuleOperator(
        1, 2, 2, np.diag([1.0, 2.0]).astype(np.complex128))),))
    gam = GFrameFamily(1, 2, (MeasurePoint(1.0, ModuleOperator(
        1, 2, 2, np.array([[0.0, 1.0], [3.0, 0.0]], dtype=np.complex128))),))
    pair = ControlPair(diag_control(1, 2, 1.0, 2.0),
                       diag_control(1, 2, 3.0, 1.0))
    assert pair.report_on(lam).passed
    adj, diag = cross_adjoint_resolve(lam, gam, pair)
    cross = cross_operator(lam, gam, pair)
    np.testing.assert_array_equal(adj.action, cross.action.conj().T)
    assert diag.matches_proof
    assert not diag.matches_statement


# ------------------------------------------------------- bound transfers


def test_transfer_identity_control_is_noop():
    ide = identity_control(1, 1)
    b = bounds_cc_from_plain(1.5, 2.5, ide)
    assert (b.lower, b.upper) == pytest.approx((1.5, 2.5))
    b2 = bounds_plain_from_cc(1.5, 2.5, ide)
    assert (b2.lower, b2.upper) == pytest.approx((1.5, 2.5))


def test_transfer_scalar_tight_both_directions():
    fam = GFrameFamily(1, 1, (MeasurePoint(1.0, ModuleOperator(
        1, 1, 1, np.array([[1.0]], dtype=np.complex128))),))
    two = diag_control(1, 1, 2.0)
    plain = optimal_bounds(fam)
    cc = bounds_cc_from_plain(plain.lower, plain.upper, two)
    assert cc.lower == pytest.approx(4.0, abs=1e-12)
    assert cc.upper == pytest.approx(4.0, abs=1e-12)
    sc = ControlledScenario(fam, ControlPair(two, two))
    actual = controlled_classify(sc).bounds
    assert actual.lower == pytest.approx(cc.lower, abs=1e-12)
    back = bounds_plain_from_cc(actual.lower, actual.upper, two)
    assert back.lower == pytest.approx(plain.lower, abs=1e-12)
    assert back.upper == pytest.approx(plain.upper, abs=1e-12)


def test_transfer_bounds_are_valid_on_random_scenarios():
    for seed in (111, 113, 127):
        base = generate(GeneratorSpec(seed=seed, n=2, d=2, m=4, flavor="commuting"))
        sym = ControlledScenario(base.family,
                                 ControlPair(base.pair.c, base.pair.c))
        plain = optimal_bounds(base.family)
        cc = controlled_classify(sym).bounds
        # plain -> controlled direction contains the controlled spectrum
        fwd = bounds_cc_from_plain(plain.lower, plain.upper, base.pair.c)
        assert fwd.lower <= cc.lower + 1e-9
        assert cc.upper <= fwd.upper + 1e-9
        # controlled -> plain direction passes the plain sandwich
        bwd = bounds_plain_from_cc(cc.lower, cc.upper, base.pair.c)
        assert check_sandwich(base.family, bwd.lower, bwd.upper,
                              samples=100, seed=seed)


# -------------------------------------------------- surjectivity transfer


def test_surjectivity_parseval_self_cross():
    sc = generate(GeneratorSpec(seed=131, n=2, d=2, m=4, flavor="parseval"))
    result = surjectivity_transfer(sc.family, sc.family, sc.pair)
    assert result.surjective
    assert result.gamma_lower_bound == pytest.approx(1.0, abs=1e-9)


def test_surjectivity_rank_deficient_cross():
    lam = GFrameFamily(1, 2, (MeasurePoint(1.0, ModuleOperator.identity(1, 2)),))
    gam = GFrameFamily(1, 2, (MeasurePoint(1.0, ModuleOperator(
        1, 2, 2, np.diag([1.0, 0.0]).astype(np.complex128))),))
    pair = ControlPair(identity_control(1, 2), identity_control(1, 2))
    result = surjectivity_transfer(lam, gam, pair)
    assert not result.surjective
    assert result.gamma_lower_bound is None


def test_surjectivity_bound_certifies_twin():
    for seed in (137, 139):
        sc, twin = generate_pair(GeneratorSpec(seed=seed, n=2, d=2, m=4,
                                               flavor="commuting"))
        result = surjectivity_transfer(sc.family, twin, sc.pair)
        assert result.surjective
        scen_twin = ControlledScenario(
            twin, ControlPair(sc.pair.c, sc.pair.cp))
        floor = controlled_classify(scen_twin).witnesses["lambda_min"]
        assert result.gamma_lower_bound <= floor + 1e-8
        assert result.gamma_lower_bound > 0


def test_surjectivity_requires_frame_hypothesis():
    lam = GFrameFamily(1, 2, (MeasurePoint(1.0, ModuleOperator(
        1, 2, 2, np.diag([1.0, 0.0]).astype(np.complex128))),))
    pair = ControlPair(identity_control(1, 2), identity_control(1, 2))
    with pytest.raises(PreconditionViolated):
        surjectivity_transfer(lam, lam, pair)


# ----------------------------------------------------------- reconstruct


def test_reconstruct_parseval_exact():
    sc = generate(GeneratorSpec(seed=149, n=2, d=2, m=4, flavor="parseval"))
    x = random_vec(stream(150, 0), 2, 2)
    result = reconstruct(sc, x)
    assert result.error <= 1e-12


def test_reconstruct_zero_vector():
    sc = generate(GeneratorSpec(seed=151, n=2, d=2, m=4, flavor="commuting"))
    result = reconstruct(sc, ModuleVector.zero(2, 2))
    assert result.error == 0.0


def test_reconstruct_condition_scaled_batch():
    sc = generate(GeneratorSpec(seed=157, n=2, d=2, m=5, flavor="commuting"))
    v = controlled_classify(sc)
    cond = v.bounds.upper / v.bounds.lower
    rng = stream(158, 0)
    for _ in range(100):
        x = random_vec(rng, 2, 2)
        result = reconstruct(sc, x)
        assert result.error <= 1e-8 * max(1e-30, vec_norm(x)) * cond


def control_with_condition(c, log_cond, reverse):
    """A control on the eigenbasis of ``c`` with eigenvalues spread
    geometrically over ``[1, 10**log_cond]``, largest first if ``reverse``."""
    _, v = np.linalg.eigh(c.base.action)
    e = np.logspace(0.0, log_cond, v.shape[0])
    if reverse:
        e = e[::-1]
    b = c.base
    return make_positive_invertible(
        ModuleOperator(b.algebra_dim, b.domain_rank, b.domain_rank,
                       (v * e) @ v.conj().T))


# Reversed spectra make the product of two ill-conditioned controls close to
# a multiple of the identity, so the controlled operator stays well
# conditioned while each control does not.  The error must still follow
# the reported condition number, that of the controlled operator: built as
# ``R S R`` from the root of the product, it carries no term-by-term
# roundoff of order eps * cond(C).
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32), log_c=st.floats(0.0, 12.0),
       log_cp=st.floats(0.0, 12.0), reverse=st.booleans())
@example(seed=13, log_c=9.0, log_cp=9.0, reverse=True)
def test_reconstruct_error_within_condition_number(seed, log_c, log_cp, reverse):
    sc = generate(GeneratorSpec(seed=seed, n=2, d=2, m=4, flavor="commuting"))
    x = random_vec(stream(seed, 1), 2, 2)
    try:
        scen = ControlledScenario(sc.family, ControlPair(
            control_with_condition(sc.pair.c, log_c, False),
            control_with_condition(sc.pair.c, log_cp, reverse)))
        result = reconstruct(scen, x)
    except GFrameError:
        return
    rel = result.error / max(1.0, vec_norm(x))
    assert rel <= 1e-8 * result.condition_number


def test_reconstruct_rejects_non_frame():
    sc = generate(GeneratorSpec(seed=163, n=2, d=2, m=4, flavor="bessel_only"))
    with pytest.raises(NotAFrame):
        reconstruct(sc, random_vec(stream(164, 0), 2, 2))


def test_reconstruct_reports_condition_number():
    sc = generate(GeneratorSpec(seed=167, n=2, d=2, m=5, flavor="commuting"))
    v = controlled_classify(sc)
    result = reconstruct(sc, random_vec(stream(168, 0), 2, 2))
    assert result.condition_number == v.bounds.upper / v.bounds.lower


def test_reconstruct_builds_one_controlled_operator(calls):
    sc = generate(GeneratorSpec(seed=169, n=2, d=2, m=5, flavor="commuting"))
    reconstruct(sc, random_vec(stream(170, 0), 2, 2))
    assert calls["controlled_frame_operator"] == [sc]
    # the plain operator that the controlled one conjugates
    assert calls["frame_operator"] == [sc.family]


def reference_reconstruct(sc, x):
    """The round trip of ``reconstruct`` through one ``ModuleVector`` per
    point: ``xhat``'s flattened array, the error and the condition number."""
    s = controlled_frame_operator(sc)
    verdict = _verdict(s)
    if verdict.kind != FRAME:
        raise NotAFrame("not a frame")
    f = sc.family
    n, d = f.algebra_dim, f.module_rank
    p_act = sc.pair.product_sqrt.action
    xp = x.flat @ p_act
    coefficients = [ModuleVector(n, p.codomain_rank, xp @ p.lam.action)
                    for p in f.points]
    acc = np.zeros((n, d * n), dtype=np.complex128)
    for p, y in zip(f.points, coefficients):
        acc = acc + p.weight * (y.flat @ (p.lam.action.conj().T @ p_act))
    y = ModuleVector(n, d, acc)
    xhat = np.linalg.solve(s.action.T, y.flat.T).T
    return (xhat, vec_norm(x - ModuleVector(n, d, xhat)),
            verdict.bounds.upper / verdict.bounds.lower)


@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 2, 3), (8, 4, 16)])
@pytest.mark.parametrize("flavor", FLAVORS)
def test_reconstruct_round_trip_on_arrays_keeps_every_bit(flavor, shape, calls):
    n, d, m = shape
    sc = generate(GeneratorSpec(seed=171, n=n, d=d, m=m, flavor=flavor))
    x = random_vec(stream(172, 0), n, d)
    try:
        want = reference_reconstruct(sc, x)
    except NotAFrame:
        with pytest.raises(NotAFrame):
            reconstruct(sc, x)
        return
    before = len(calls["ModuleVector"])
    got = reconstruct(sc, x)
    assert got.xhat.flat.tobytes() == want[0].tobytes()
    assert (got.error, got.condition_number) == want[1:]
    # xhat and x - xhat, whatever the number of points
    assert len(calls["ModuleVector"]) - before == 2


# ----------------------------- two-family operations against the reference


def stacked(family):
    """The weighted synthesis matrix ``L``, built afresh."""
    return np.hstack([np.sqrt(p.weight) * p.lam.action for p in family.points])


def reference_cross(lam, gam, pair):
    """``c (L_lam L_gam^H) c'``, which is ``sum_w weight * c lam_w gam_w* c'``."""
    mixed = stacked(lam) @ stacked(gam).conj().T
    return pair.c.base.action @ mixed @ pair.cp.base.action


def reference_controlled(family, pair):
    """``R S R`` for ``S = L L^H`` and ``R`` the root of the controls'
    product; ``S`` itself for two identity controls."""
    l = stacked(family)
    s = l @ l.conj().T
    if pair.c.is_identity and pair.cp.is_identity:
        return s
    r = pair.product_sqrt.action
    return r @ s @ r


def as_operator(family, action):
    n, d = family.algebra_dim, family.module_rank
    return ModuleOperator(n, d, d, action)


def reference_adjoint(lam, gam, pair, tol):
    """The adjoint and its residuals against both closed forms, each
    around the mixed product ``L_gam L_lam^H``."""
    ca, cpa = pair.c.base.action, pair.cp.base.action
    adj = reference_cross(lam, gam, pair).conj().T
    mixed = stacked(gam) @ stacked(lam).conj().T
    stmt = ca @ mixed @ cpa
    proof = cpa @ mixed @ ca
    scale = max(1.0, float(np.linalg.norm(adj, 2)))
    r_stmt = float(np.linalg.norm(adj - stmt, 2)) / scale
    r_proof = float(np.linalg.norm(adj - proof, 2)) / scale
    return adj, (r_stmt, r_proof, r_stmt <= tol, r_proof <= tol)


def reference_transfer(lam, gam, pair, tol=SURJECTIVITY_TOL):
    """Surjectivity transfer step by step, every operator built afresh."""
    if _verdict(as_operator(lam, reference_controlled(lam, pair))).kind != FRAME:
        raise PreconditionViolated("first family is not a controlled frame")
    adj = reference_cross(lam, gam, pair).conj().T
    ok, _ = is_bounded_below(as_operator(lam, adj), tol)
    if not ok:
        return TransferResult(False, None)
    k = stacked(gam).conj().T @ pair.product_sqrt.action
    gram = k.conj().T @ k
    m = max(float(np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))[0]), 0.0)
    lo = _spectrum(as_operator(gam, reference_controlled(gam, pair)))[0]
    if lo < m - tol * max(1.0, m):
        raise ArithmeticError(
            f"derived bound {m:.6e} exceeds the spectral floor {lo:.6e}")
    return TransferResult(True, m)


def outcome(call, *args):
    """Result of ``call``, or the type and text of what it raised."""
    try:
        return call(*args)
    except (PreconditionViolated, ArithmeticError) as exc:
        return type(exc), str(exc)


@st.composite
def pair_specs(draw):
    flavor = draw(st.sampled_from(FLAVORS))
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    m = draw(st.integers(d if flavor == "parseval" else 1, 5))
    lo = draw(st.floats(1e-3, 1e3))
    hi = draw(st.one_of(st.just(lo), st.floats(lo, 1e3)))
    return GeneratorSpec(seed=draw(st.integers(0, 2**32)), n=n, d=d, m=m,
                         spectrum_range=(lo, hi), flavor=flavor)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pair_specs())
@example(GeneratorSpec(seed=204, n=1, d=1, m=1, spectrum_range=(2.0, 2.0),
                       flavor="generic"))
@example(GeneratorSpec(seed=205, n=1, d=1, m=1, spectrum_range=(2.0, 2.0),
                       flavor="commuting"))
@example(GeneratorSpec(seed=206, n=1, d=1, m=1, spectrum_range=(2.0, 2.0),
                       flavor="parseval"))
@example(GeneratorSpec(seed=207, n=1, d=1, m=1, spectrum_range=(2.0, 2.0),
                       flavor="bessel_only"))
def test_two_family_operations_match_reference(certificate_calls, spec):
    del certificate_calls[:]
    sc, twin = generate_pair(spec)
    lam, pair = sc.family, sc.pair
    scen_twin = ControlledScenario(twin, pair)
    assert (controlled_frame_operator(scen_twin).action
            == reference_controlled(twin, pair)).all()
    assert certificate_calls == [twin]
    assert (cross_operator(lam, twin, pair).action
            == reference_cross(lam, twin, pair)).all()
    adj, diag = cross_adjoint_resolve(lam, twin, pair)
    ref_adj, ref_diag = reference_adjoint(lam, twin, pair, 1e-10)
    assert (adj.action == ref_adj).all()
    assert (diag.statement_residual, diag.proof_residual,
            diag.matches_statement, diag.matches_proof) == ref_diag
    assert diag.adjoint_norm == np.linalg.norm(ref_adj, 2)
    assert (outcome(surjectivity_transfer, lam, twin, pair)
            == outcome(reference_transfer, lam, twin, pair))
    # the two-family calls reuse the certificate the twin scenario computed
    assert certificate_calls == [twin, lam]


# ------------------------------ product forms against the definition sums


def definition_sum(lam, gam, left, right):
    """``sum_w weight * left lam_w gam_w^H right``, point by point, and the
    sum of its terms' norms."""
    acc, terms = 0.0, 0.0
    for p, q in zip(lam.points, gam.points):
        acc = acc + p.weight * (left @ p.lam.action @ q.lam.action.conj().T @ right)
        terms += p.weight * op_norm(p.lam) * op_norm(q.lam)
    return acc, terms * spectral_norm(left) * spectral_norm(right)


# Largest gap between a product form and its definition sum, relative to the
# sum of the terms' norms; 1,500 seeded scratch cases of these specs peaked
# at 3.7e-15.
DEFINITION_GAP = 1e-13


@settings(max_examples=40, deadline=None)
@given(pair_specs())
@example(GeneratorSpec(seed=204, n=1, d=1, m=1, spectrum_range=(2.0, 2.0),
                       flavor="generic"))
@example(GeneratorSpec(seed=205, n=1, d=1, m=1, spectrum_range=(2.0, 2.0),
                       flavor="commuting"))
@example(GeneratorSpec(seed=206, n=1, d=1, m=1, spectrum_range=(2.0, 2.0),
                       flavor="parseval"))
@example(GeneratorSpec(seed=207, n=1, d=1, m=1, spectrum_range=(2.0, 2.0),
                       flavor="bessel_only"))
def test_product_forms_match_definition_sums(spec):
    sc, twin = generate_pair(spec)
    lam, pair = sc.family, sc.pair
    ca, cpa = pair.c.base.action, pair.cp.base.action
    eye = np.eye(ca.shape[0])

    def gap(got, want):
        ref, terms = want
        return float(np.linalg.norm(got - ref, 2)), terms

    checks = [gap(frame_operator(lam).action, definition_sum(lam, lam, eye, eye))]
    for fam in (lam, twin):
        checks.append(gap(controlled_frame_operator(ControlledScenario(fam, pair)).action,
                          definition_sum(fam, fam, ca, cpa)))
    checks.append(gap(cross_operator(lam, twin, pair).action,
                      definition_sum(lam, twin, ca, cpa)))
    # the adjoint's closed forms, through the residuals against each
    adj, diag = cross_adjoint_resolve(lam, twin, pair)
    scale = max(1.0, spectral_norm(adj.action))
    for residual, (left, right) in ((diag.statement_residual, (ca, cpa)),
                                    (diag.proof_residual, (cpa, ca))):
        ref, terms = definition_sum(twin, lam, left, right)
        checks.append((abs(residual - spectral_norm(adj.action - ref) / scale) * scale,
                       terms))
    for err, terms in checks:
        assert err <= DEFINITION_GAP * terms
