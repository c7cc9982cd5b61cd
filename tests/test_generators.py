"""Seeded scenario construction: flavor contracts and determinism."""

import numpy as np
import pytest

from gframes import (BESSEL_ONLY, FRAME, GeneratorSpec, InvalidSpec, classify,
                     controlled_classify, frame_operator, generate,
                     generate_pair, optimal_bounds, validate_commutation)
from gframes.generators import SPECTRUM_CEILING, SPECTRUM_FLOOR, _generate_batch
from gframes.verifier import default_batch, run_suite, suite_passed
from gframes.serialization import dumps, scenario_to_obj

SEEDS = range(1000, 1100)


@pytest.mark.parametrize("flavor", ["generic", "commuting", "parseval",
                                    "bessel_only"])
def test_generators_take_no_certificate(certificate_calls, flavor):
    # a scenario is certified when a controlled operation first needs it
    spec = GeneratorSpec(seed=1101, n=2, d=2, m=4, flavor=flavor)
    generate(spec)
    generate_pair(spec)
    assert certificate_calls == []


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        GeneratorSpec(seed=1, n=0, d=1, m=1)
    with pytest.raises(InvalidSpec):
        GeneratorSpec(seed=1, n=1, d=1, m=1, flavor="unknown")
    with pytest.raises(InvalidSpec):
        GeneratorSpec(seed=1, n=1, d=1, m=1, dw_range=(3, 1))
    with pytest.raises(InvalidSpec):
        GeneratorSpec(seed=1, n=1, d=1, m=1, spectrum_range=(-1.0, 2.0))
    with pytest.raises(InvalidSpec):
        GeneratorSpec(seed=-1, n=1, d=1, m=1)
    with pytest.raises(InvalidSpec):
        GeneratorSpec(seed=2**64, n=1, d=1, m=1)
    with pytest.raises(InvalidSpec):
        GeneratorSpec(seed=1, n=2, d=3, m=2, flavor="parseval")


@pytest.mark.parametrize("field", ["seed", "n", "d", "m"])
def test_spec_integer_fields_refuse_bools(field):
    fields = dict(seed=1, n=1, d=2, m=3)
    GeneratorSpec(**fields)
    for flag in (True, False):
        with pytest.raises(InvalidSpec, match=field):
            GeneratorSpec(**{**fields, field: flag})


@pytest.mark.parametrize("entry", [0, 1])
def test_spec_dw_range_refuses_non_integral_entries(entry):
    for bad in (1.9, 2.2, 2.5, True, "2", float("nan"), float("inf")):
        rng = [1, 2]
        rng[entry] = bad
        with pytest.raises(InvalidSpec, match="dw_range"):
            GeneratorSpec(seed=1, n=1, d=1, m=1, dw_range=tuple(rng))
    # an integral entry of another type is the same int
    rng = [1, 2]
    rng[entry] = float(rng[entry])
    spec = GeneratorSpec(seed=1, n=1, d=1, m=1, dw_range=tuple(rng))
    assert spec.dw_range == (1, 2)
    assert all(type(v) is int for v in spec.dw_range)


@pytest.mark.parametrize("entry", [0, 1])
def test_spec_spectrum_range_refuses_bools_and_strings(entry):
    for bad in (True, False, "2", "0.5", b"2"):
        rng = [0.5, 2.0]
        rng[entry] = bad
        with pytest.raises(InvalidSpec, match="spectrum_range"):
            GeneratorSpec(seed=1, n=1, d=1, m=1, spectrum_range=tuple(rng))
    # an int is a real, and becomes the same float
    spec = GeneratorSpec(seed=1, n=1, d=1, m=1, spectrum_range=(1, 2))
    assert spec.spectrum_range == (1.0, 2.0)
    assert all(type(v) is float for v in spec.spectrum_range)


@pytest.mark.parametrize("entry", [0, 1])
def test_spec_dw_range_refuses_numpy_bools(entry):
    for bad in (np.True_, np.False_):
        rng = [1, 2]
        rng[entry] = bad
        with pytest.raises(InvalidSpec, match="dw_range must be a pair of ints"):
            GeneratorSpec(seed=1, n=1, d=1, m=1, dw_range=tuple(rng))
    # a numpy integer is an int
    rng = [1, 2]
    rng[entry] = np.int64(rng[entry])
    spec = GeneratorSpec(seed=1, n=1, d=1, m=1, dw_range=tuple(rng))
    assert spec.dw_range == (1, 2)
    assert all(type(v) is int for v in spec.dw_range)


@pytest.mark.parametrize("entry", [0, 1])
def test_spec_spectrum_range_refuses_numpy_bools(entry):
    for bad in (np.True_, np.False_):
        rng = [0.5, 2.0]
        rng[entry] = bad
        with pytest.raises(InvalidSpec, match="spectrum_range must be a pair of reals"):
            GeneratorSpec(seed=1, n=1, d=1, m=1, spectrum_range=tuple(rng))
    # a numpy float is a real
    rng = [0.5, 2.0]
    rng[entry] = np.float64(rng[entry])
    spec = GeneratorSpec(seed=1, n=1, d=1, m=1, spectrum_range=tuple(rng))
    assert spec.spectrum_range == (0.5, 2.0)
    assert all(type(v) is float for v in spec.spectrum_range)


def test_spectrum_ceiling():
    assert SPECTRUM_CEILING ** 2 < 1e300
    for lo, hi in ((1.0, SPECTRUM_CEILING), (SPECTRUM_CEILING, SPECTRUM_CEILING),
                   (SPECTRUM_FLOOR, 1.0)):
        GeneratorSpec(seed=1, n=1, d=1, m=1, spectrum_range=(lo, hi))
    above = float(np.nextafter(SPECTRUM_CEILING, np.inf))
    for rng in ((1.0, above), (above, above), (1.0, 1e300)):
        with pytest.raises(InvalidSpec, match="spectrum_range upper end"):
            GeneratorSpec(seed=1, n=1, d=1, m=1, spectrum_range=rng)


def test_spectrum_floor_is_checked_after_the_ordering_and_the_ceiling():
    assert SPECTRUM_FLOOR == 1 / SPECTRUM_CEILING
    below = float(np.nextafter(SPECTRUM_FLOOR, 0.0))
    for rng in ((below, 1.0), (1e-200, 1e-200), (1e-155, 2e-155)):
        with pytest.raises(InvalidSpec, match="spectrum_range lower end must "
                                              "be at least 1e-150"):
            GeneratorSpec(seed=1, n=1, d=1, m=1, spectrum_range=rng)
    with pytest.raises(InvalidSpec, match="positive ordered interval"):
        GeneratorSpec(seed=1, n=1, d=1, m=1, spectrum_range=(1.0, 1e-200))
    with pytest.raises(InvalidSpec, match="upper end"):
        GeneratorSpec(seed=1, n=1, d=1, m=1, spectrum_range=(1e-200, 1e160))


@pytest.mark.parametrize("flavor", ["commuting", "bessel_only"])
def test_specs_at_either_spectrum_end_generate_and_verify(flavor):
    # at the ceiling the controls' SVD norms land a few ulps above 1e150, and
    # at the floor their inverses' norms do; neither may raise or warn
    for end in (SPECTRUM_CEILING, SPECTRUM_FLOOR):
        specs = [GeneratorSpec(seed=seed, n=n, d=d, m=m, flavor=flavor,
                               spectrum_range=(end, end))
                 for seed in range(20) for n, d, m in ((1, 1, 1), (2, 2, 4))]
        for spec in specs:
            generate(spec)
        run_suite(specs)


@pytest.mark.parametrize("flavor", ["generic", "commuting", "parseval",
                                    "bessel_only"])
def test_spectrum_floor_is_the_lowest_verifiable_end(flavor):
    below = float(np.nextafter(SPECTRUM_FLOOR, 0.0))
    with pytest.raises(InvalidSpec, match="lower end"):
        GeneratorSpec(seed=0, n=1, d=1, m=1, spectrum_range=(below, 1.0),
                      flavor=flavor)
    specs = [GeneratorSpec(seed=seed, n=n, d=d, m=m, flavor=flavor,
                           spectrum_range=(SPECTRUM_FLOOR, 1.0))
             for seed in range(20) for n, d, m in ((1, 1, 1), (2, 2, 4))]
    assert suite_passed(run_suite(specs))


@pytest.mark.xfail(strict=True, reason="the surjectivity floor is absolute "
                   "(roadmap item 3): sigma_min is held to tol * max(1, "
                   "sigma_max), which the tiny mixed operator cannot clear")
def test_controls_at_the_spectrum_floor_keep_the_surjectivity_transfer():
    spec = GeneratorSpec(seed=0, n=2, d=2, m=4, flavor="commuting",
                         spectrum_range=(SPECTRUM_FLOOR, 2 * SPECTRUM_FLOOR))
    (surj,) = [r for r in run_suite([spec]) if r.check_id == "surjectivity_transfer"]
    assert not surj.failures


def test_generic_flavor_contract():
    for seed in SEEDS:
        sc = generate(GeneratorSpec(seed=seed, n=2, d=2, m=3, flavor="generic"))
        dn = 2 * 2
        np.testing.assert_array_equal(sc.pair.c.base.action, np.eye(dn))
        np.testing.assert_array_equal(sc.pair.cp.base.action, np.eye(dn))
        assert classify(sc.family).kind == FRAME


def test_commuting_flavor_contract():
    for seed in SEEDS:
        sc = generate(GeneratorSpec(seed=seed, n=2, d=2, m=3, flavor="commuting"))
        rep = validate_commutation(sc.family, sc.pair.c, sc.pair.cp, tol=1e-10)
        assert rep.passed


def test_commuting_controls_respect_spectrum_range():
    lo, hi = 0.25, 3.0
    for seed in range(1000, 1020):
        sc = generate(GeneratorSpec(seed=seed, n=2, d=2, m=3,
                                    flavor="commuting",
                                    spectrum_range=(lo, hi)))
        for ctrl in (sc.pair.c, sc.pair.cp):
            eigs = np.linalg.eigvalsh(ctrl.base.action)
            assert eigs[0] >= lo - 1e-12
            assert eigs[-1] <= hi + 1e-12


def test_parseval_flavor_contract():
    for seed in SEEDS:
        sc = generate(GeneratorSpec(seed=seed, n=2, d=2, m=3, flavor="parseval"))
        b = optimal_bounds(sc.family)
        assert abs(b.lower - 1.0) <= 1e-9
        assert abs(b.upper - 1.0) <= 1e-9
        np.testing.assert_array_equal(sc.pair.c.base.action, np.eye(4))


def test_parseval_frame_operator_is_identity():
    sc = generate(GeneratorSpec(seed=8, n=3, d=2, m=4, flavor="parseval"))
    s = frame_operator(sc.family).action
    assert np.linalg.norm(s - np.eye(6)) <= 1e-10


def test_bessel_only_flavor_contract():
    for seed in SEEDS:
        sc = generate(GeneratorSpec(seed=seed, n=2, d=2, m=3,
                                    flavor="bessel_only"))
        assert classify(sc.family).kind == BESSEL_ONLY


def test_bessel_only_has_common_null_direction():
    sc = generate(GeneratorSpec(seed=12, n=2, d=3, m=4, flavor="bessel_only"))
    s = frame_operator(sc.family).action
    evals = np.linalg.eigvalsh(0.5 * (s + s.conj().T))
    assert evals[0] <= 1e-12 * max(1.0, evals[-1])


def test_determinism_byte_identical():
    spec = GeneratorSpec(seed=99, n=2, d=2, m=4, flavor="commuting")
    a = dumps(scenario_to_obj(generate(spec)))
    b = dumps(scenario_to_obj(generate(spec)))
    assert a == b


def test_determinism_across_flavors():
    for flavor in ("generic", "commuting", "parseval", "bessel_only"):
        spec = GeneratorSpec(seed=321, n=2, d=2, m=3, flavor=flavor)
        assert (dumps(scenario_to_obj(generate(spec)))
                == dumps(scenario_to_obj(generate(spec))))


def test_seed_changes_output():
    s1 = generate(GeneratorSpec(seed=1, n=2, d=2, m=3, flavor="generic"))
    s2 = generate(GeneratorSpec(seed=2, n=2, d=2, m=3, flavor="generic"))
    assert not np.array_equal(s1.family.points[0].lam.action,
                              s2.family.points[0].lam.action)


def test_dw_range_respected():
    spec = GeneratorSpec(seed=5, n=2, d=2, m=10, dw_range=(2, 4))
    sc = generate(spec)
    dws = [p.codomain_rank for p in sc.family.points]
    assert all(2 <= dw <= 4 for dw in dws)
    assert len(dws) == 10


def test_pair_shares_measure_and_structure():
    sc, twin = generate_pair(GeneratorSpec(seed=201, n=2, d=2, m=4,
                                           flavor="commuting"))
    fam = sc.family
    assert twin.size == fam.size
    for p, q in zip(fam.points, twin.points):
        assert p.weight == q.weight
        assert p.codomain_rank == q.codomain_rank
        assert not np.array_equal(p.lam.action, q.lam.action)


def test_pair_twin_satisfies_commutation():
    for seed in range(300, 320):
        sc, twin = generate_pair(GeneratorSpec(seed=seed, n=2, d=2, m=4,
                                               flavor="commuting"))
        rep = validate_commutation(twin, sc.pair.c, sc.pair.cp, tol=1e-10)
        assert rep.passed


def test_pair_twin_is_frame_for_covering_specs():
    for seed in range(400, 420):
        sc, twin = generate_pair(GeneratorSpec(seed=seed, n=2, d=2, m=4,
                                               flavor="commuting"))
        assert classify(twin).kind == FRAME


def test_pair_primary_matches_single_generate():
    spec = GeneratorSpec(seed=777, n=2, d=2, m=3, flavor="commuting")
    sc_single = generate(spec)
    sc_pair, _ = generate_pair(spec)
    for p, q in zip(sc_single.family.points, sc_pair.family.points):
        np.testing.assert_array_equal(p.lam.action, q.lam.action)


def test_generated_commuting_controlled_verdict_matches_plain():
    for seed in range(500, 520):
        sc = generate(GeneratorSpec(seed=seed, n=2, d=2, m=4, flavor="commuting"))
        assert (classify(sc.family).kind == FRAME) == (
            controlled_classify(sc).kind == FRAME)


def _scenario_bytes(sc):
    return (_family_bytes(sc.family) + sc.pair.c.base.action.tobytes()
            + sc.pair.cp.base.action.tobytes() + sc.pair.c.inverse.action.tobytes()
            + sc.pair.cp.inverse.action.tobytes())


def _family_bytes(family):
    return b"".join(np.float64(p.weight).tobytes() + p.lam.action.tobytes()
                    for p in family.points)


def test_batch_path_is_generate_pair_bit_for_bit():
    batch = default_batch() + [
        GeneratorSpec(seed=1300 + i, n=8, d=d, m=m, dw_range=(1, 3), flavor=fl)
        for i, (fl, (d, m)) in enumerate(
            (fl, dm) for fl in ("generic", "commuting", "parseval", "bessel_only")
            for dm in ((2, 3), (4, 6)))]
    got = [(_scenario_bytes(sc), _family_bytes(twin))
           for sc, twin in _generate_batch(batch, twins=True)]
    assert len(got) == len(batch)
    for spec, pair in zip(batch, got):
        sc, twin = generate_pair(spec)
        assert pair == (_scenario_bytes(sc), _family_bytes(twin)), spec
        assert _scenario_bytes(generate(spec)) == pair[0], spec


def test_default_batch_takes_one_qr_per_size(calls):
    run_suite(default_batch())
    sizes = [z.shape[-1] for z in calls["qr"]]
    assert sorted(sizes) == sorted(set(sizes))
    assert len(sizes) == 7


def test_generate_builds_no_twin(calls):
    generate(GeneratorSpec(seed=1102, n=2, d=2, m=4, flavor="parseval"))
    assert len(calls["frame_operator"]) == 1
    calls["frame_operator"].clear()
    generate_pair(GeneratorSpec(seed=1102, n=2, d=2, m=4, flavor="parseval"))
    assert len(calls["frame_operator"]) == 2
