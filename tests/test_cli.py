"""Command line behavior: exit codes, schemas, reports, determinism."""

import gc
import json
import os
import re
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from gframes import (ControlledScenario, ControlPair, GeneratorSpec,
                     GFrameFamily, MeasurePoint, ModuleOperator, ModuleVector,
                     SchemaError, controlled_classify, controlled_frame_operator,
                     generate, make_positive_invertible, vec_norm)
from gframes import cli
from gframes import serialization as ser
from gframes.algebra import _hermitian_part
from gframes.cli import main
from gframes.errors import GFrameError
from gframes.rng import complex_normal, stream
from conftest import file_form, pair_list
from test_report_bytes import HANDWRITTEN

COMMUTING_SPEC = '{"seed": 42, "n": 2, "d": 2, "m": 4, "flavor": "commuting"}'
PARSEVAL_SPEC = '{"seed": 6, "n": 2, "d": 2, "m": 4, "flavor": "parseval"}'
BESSEL_SPEC = '{"seed": 3, "n": 1, "d": 2, "m": 4, "flavor": "bessel_only"}'


@pytest.fixture
def scen(tmp_path):
    path = tmp_path / "scen.json"
    assert main(["generate", "--spec", COMMUTING_SPEC, "--out", str(path)]) == 0
    return path


@pytest.fixture
def parseval_scen(tmp_path):
    path = tmp_path / "parseval.json"
    assert main(["generate", "--spec", PARSEVAL_SPEC, "--out", str(path)]) == 0
    return path


def read(path):
    return json.loads(path.read_text())


# ----------------------------------------------------------------- analyze


def test_analyze_frame_exit_zero(scen, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["analyze", str(scen), "--out", str(out)]) == 0
    report = read(out)
    assert report["verdict"] == "frame"
    assert report["bounds"][0] > 0
    assert report["commutation"]["passed"] is True
    assert report["condition_numbers"]["C"] >= 1.0


def test_analyze_parseval_unit_bounds(parseval_scen, tmp_path):
    out = tmp_path / "report.json"
    assert main(["analyze", str(parseval_scen), "--out", str(out)]) == 0
    report = read(out)
    lo, hi = report["bounds"]
    assert abs(lo - 1.0) <= 1e-9 and abs(hi - 1.0) <= 1e-9
    assert report["controlled_bounds"] == report["bounds"]


def test_analyze_bessel_only_exit_two(tmp_path):
    path = tmp_path / "bessel.json"
    assert main(["generate", "--spec", BESSEL_SPEC, "--out", str(path)]) == 0
    assert main(["analyze", str(path)]) == 2


def test_analyze_bounds_match_library_oracle(tmp_path):
    spec_text = '{"seed": 23, "n": 2, "d": 2, "m": 4, "flavor": "commuting"}'
    path = tmp_path / "s.json"
    out = tmp_path / "r.json"
    assert main(["generate", "--spec", spec_text, "--out", str(path)]) == 0
    assert main(["analyze", str(path), "--out", str(out)]) == 0
    from gframes import optimal_bounds
    sc = generate(GeneratorSpec(seed=23, n=2, d=2, m=4, flavor="commuting"))
    b = optimal_bounds(sc.family)
    lo, hi = read(out)["bounds"]
    assert lo == b.lower and hi == b.upper


def test_analyze_reports_the_pair_certificate(scen, tmp_path,
                                              certificate_calls):
    out = tmp_path / "report.json"
    assert main(["analyze", str(scen), "--out", str(out)]) == 0
    assert len(certificate_calls) == 1
    sc = ser.scenario_from_obj(read(scen))
    rep = read(out)["commutation"]
    cert = sc.pair.report_on(sc.family)
    assert rep["cc_commutator"] == cert.cc_commutator
    assert rep["per_point"] == [list(r) for r in cert.per_point]


def test_reconstruct_takes_the_verdict_and_no_numbers(scen, tmp_path, calls):
    assert main(["reconstruct", str(scen), "--random", "1",
                 "--out", str(tmp_path / "r.json")]) == 0
    assert len(calls["decide_commutation"]) == 1
    assert calls["validate_commutation"] == []


def test_generate_takes_no_certificate(tmp_path, certificate_calls):
    assert main(["generate", "--spec", COMMUTING_SPEC,
                 "--out", str(tmp_path / "s.json")]) == 0
    assert certificate_calls == []


def test_analyze_builds_the_plain_frame_operator_once(scen, tmp_path, calls):
    out = tmp_path / "report.json"
    assert main(["analyze", str(scen), "--out", str(out)]) == 0
    # builds, not calls: the operator is kept on the family
    assert len({id(f) for f in calls["frame_operator"]}) == 1
    sc = ser.scenario_from_obj(read(scen))
    assert read(out)["controlled_witnesses"] == \
        controlled_classify(sc, tol=1e-9).witnesses


def test_analyze_takes_each_spectrum_once(tmp_path, calls):
    # classify takes S's spectrum, which the family keeps, so
    # controlled_classify takes Sc's alone; a held scenario has S's already
    path = tmp_path / "s.json"
    assert main(["generate", "--spec", '{"seed": 5, "n": 2, "d": 2, "m": 4, '
                 '"flavor": "commuting"}', "--out", str(path)]) == 0
    s = _hermitian_part(ser.scenario_from_obj(read(path)).family._frame_operator.action)

    def decompositions_of_s():
        return sum(np.array_equal(a, s) for stack in calls["eigvalsh"] for a in stack)

    assert main(["analyze", str(path)]) == 0
    assert [a.shape for a in calls["eigvalsh"]] == [(1, 4, 4), (1, 4, 4)]
    assert decompositions_of_s() == 1
    held = cli._held[2]
    del calls["eigvalsh"][:]
    assert main(["analyze", str(path)]) == 0
    assert cli._held[2] is held
    assert decompositions_of_s() == 0


@pytest.mark.parametrize("source", ["fresh read", "written"])
def test_analyze_and_reconstructs_take_one_controlled_spectrum(source, tmp_path, calls,
                                                               monkeypatch):
    # the scenario keeps the controlled operator and its extreme
    # eigenvalues, so the reconstructs after analyze decompose nothing
    path = tmp_path / "s.json"
    assert main(["generate", "--spec", '{"seed": 5, "n": 2, "d": 2, "m": 4, '
                 '"flavor": "commuting"}', "--out", str(path)]) == 0
    if source == "fresh read":
        monkeypatch.setattr(cli, "_held", None)
    sc = ser.scenario_from_obj(read(path))
    controlled = _hermitian_part(controlled_frame_operator(sc).action)
    del calls["eigvalsh"][:]
    assert main(["analyze", str(path)]) == 0
    for _ in range(2):
        assert main(["reconstruct", str(path), "--random", "3"]) == 0
    assert [a.shape for a in calls["eigvalsh"]] == [(1, 4, 4), (1, 4, 4)]
    assert sum(np.array_equal(a, controlled)
               for stack in calls["eigvalsh"] for a in stack) == 1


def test_analyze_takes_no_controlled_spectrum_without_certificate(tmp_path, calls):
    path = scenario_file("noncommuting", tmp_path)
    out = tmp_path / "report.json"
    assert main(["analyze", str(path), "--out", str(out)]) == 0
    assert read(out)["commutation"]["passed"] is False
    assert [a.shape for a in calls["eigvalsh"]] == [(1, 4, 4)]


def weights_times_1e12():
    """Generic (2, 2, 4) seed 3 with every weight times 1e-12."""
    obj = file_form(ser.scenario_to_obj(generate(GeneratorSpec(
        seed=3, n=2, d=2, m=4, flavor="generic"))))
    for point in obj["points"]:
        point["weight"] *= 1e-12
    return obj


def spectral_ratio_5e9():
    """Two unit-weight points whose frame operator is diag(1, 5e-9)."""
    return {"version": 1, "n": 1, "d": 2,
            "points": [{"weight": 1.0, "dw": 1, "lambda": [[1.0, 0.0], [0.0, 0.0]]},
                       {"weight": 1.0, "dw": 1,
                        "lambda": [[0.0, 0.0], [float(np.sqrt(5e-9)), 0.0]]}],
            "C": "identity", "Cprime": "identity"}


@pytest.mark.parametrize("build", [weights_times_1e12, spectral_ratio_5e9])
def test_analyze_verdict_ignores_weight_scale(build, tmp_path, capsys):
    # both files are frames that reconstruct to roundoff, so analyze's
    # verdict, relative to lambda_max, must say frame too: analyze and
    # reconstruct share one frame threshold
    path = tmp_path / "family.json"
    path.write_text(json.dumps(build()))
    assert main(["reconstruct", str(path), "--random", "1"]) == 0
    assert main(["analyze", str(path)]) == 0
    assert "verdict: frame" in capsys.readouterr().err


def scaled(obj, factor):
    """Every number in ``obj`` times ``factor``."""
    if isinstance(obj, list):
        return [scaled(x, factor) for x in obj]
    return obj * factor


def test_analyze_frame_below_the_spectrum_floor_reconstructs(tmp_path, capsys):
    # roadmap item 5's invariant: a file analyze calls a frame reconstructs
    spec = {"seed": 0, "n": 2, "d": 2, "m": 4, "flavor": "commuting",
            "spectrum_range": [1e-150, 2e-150]}
    path = tmp_path / "scen.json"
    assert main(["generate", "--spec", json.dumps(spec), "--out", str(path)]) == 0
    obj = read(path)
    for key in ("C", "Cprime"):
        obj[key] = scaled(obj[key], 1e-5)
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["analyze", str(path)]) == 0
    assert "verdict: frame" in capsys.readouterr().err
    assert main(["reconstruct", str(path), "--random", "3"]) == 0


def test_analyze_schema_error_names_path(scen, tmp_path, capsys):
    obj = read(scen)
    obj["points"][0]["weight"] = -1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["analyze", str(bad)]) == 1
    assert "points[0].weight" in capsys.readouterr().err


def test_analyze_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_analyze_invalid_json(tmp_path, capsys):
    p = tmp_path / "mangled.json"
    p.write_text("{not json")
    assert main(["analyze", str(p)]) == 1


HUGE_INT = 10**400  # a JSON integer beyond the largest double


def reconstruct_stderr(obj, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["reconstruct", str(bad), "--random", "1"]) == 1
    return capsys.readouterr().err


def test_reconstruct_huge_matrix_entry_is_a_schema_error(scen, tmp_path, capsys):
    obj = read(scen)
    obj["points"][1]["lambda"][2] = [0.5, HUGE_INT]
    assert reconstruct_stderr(obj, tmp_path, capsys) == (
        "gframes: schema error: points[1].lambda[2]: must be finite\n")


def test_reconstruct_huge_weight_is_a_schema_error(scen, tmp_path, capsys):
    obj = read(scen)
    obj["points"][0]["weight"] = HUGE_INT
    assert reconstruct_stderr(obj, tmp_path, capsys) == (
        "gframes: schema error: points[0].weight: must be finite\n")


@pytest.mark.parametrize("command", [["analyze"], ["reconstruct", "--random", "1"]])
def test_overflowing_scenario_file_fails_cleanly(command, tmp_path, capsys, recwarn):
    # finite entries whose products overflow double precision
    spec = '{"seed": 3, "n": 2, "d": 2, "m": 4, "flavor": "commuting"}'
    path = tmp_path / "overflow.json"
    assert main(["generate", "--spec", spec, "--out", str(path)]) == 0
    obj = read(path)
    obj["points"][0]["lambda"] = [[v * 1e160 for v in row]
                                  for row in obj["points"][0]["lambda"]]
    path.write_text(json.dumps(obj))
    assert main([command[0], str(path), *command[1:]]) == 1
    assert capsys.readouterr().err == (
        f"gframes: error: values in {path} overflow double precision\n")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_analyze_rejects_controls_whose_product_overflows(tmp_path, capsys):
    spec = json.dumps({"seed": 189, "n": 2, "d": 2, "m": 4,
                       "spectrum_range": [1, 1e150], "flavor": "commuting"})
    path = tmp_path / "big_controls.json"
    assert main(["generate", "--spec", spec, "--out", str(path)]) == 0
    obj = read(path)
    for key in ("C", "Cprime"):
        obj[key] = [[v * 1e100 for v in row] for row in obj[key]]
    path.write_text(json.dumps(obj))
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err == (
        "gframes: error: the controls' norms multiply to inf, above 1e300: "
        "their product overflows\n")


def test_generate_huge_spectrum_bound_is_a_schema_error(tmp_path, capsys):
    spec = json.dumps({"seed": 1, "n": 1, "d": 1, "m": 1,
                       "spectrum_range": [1, HUGE_INT]})
    out = tmp_path / "o.json"
    assert main(["generate", "--spec", spec, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "gframes: schema error: spec.spectrum_range[1]: must be finite\n")
    assert not out.exists()


LONG_INT = "1" + "0" * 5000  # beyond the interpreter's int parsing limit


def test_long_integer_in_spec_file_is_a_schema_error(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text('{"seed": 1, "n": 1, "d": 1, "m": 1, '
                    '"spectrum_range": [1, %s]}' % LONG_INT)
    assert main(["generate", "--spec", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"gframes: schema error: {path}: integer longer than "
        f"{sys.get_int_max_str_digits()} digits\n")


def test_long_integer_in_inline_spec_is_a_schema_error(capsys):
    spec = ('{"seed": 1, "n": 1, "d": 1, "m": 1, '
            '"spectrum_range": [1, %s]}' % LONG_INT)
    assert main(["generate", "--spec", spec]) == 1
    assert capsys.readouterr().err == (
        f"gframes: schema error: --spec: integer longer than "
        f"{sys.get_int_max_str_digits()} digits\n")


def test_invalid_json_messages(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text('{"seed": 1,')
    assert main(["generate", "--spec", str(path)]) == 1
    assert main(["generate", "--spec", '{"seed": 1,']) == 1
    assert capsys.readouterr().err == (
        f"gframes: schema error: {path}: invalid JSON (Expecting property "
        f"name enclosed in double quotes at line 1)\n"
        f"gframes: schema error: --spec: invalid JSON (Expecting property "
        f"name enclosed in double quotes)\n")


# ---------------------------------------------------------------- generate


def test_generate_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["generate", "--spec", COMMUTING_SPEC, "--out", str(a)]) == 0
    assert main(["generate", "--spec", COMMUTING_SPEC, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_round_trip_bytes(scen):
    text = scen.read_text()
    rebuilt = ser.scenario_from_obj(json.loads(text))
    assert ser.dumps(ser.scenario_to_obj(rebuilt)) == text


def test_generate_spec_from_file(tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(COMMUTING_SPEC)
    out = tmp_path / "o.json"
    assert main(["generate", "--spec", str(spec_file), "--out", str(out)]) == 0
    assert read(out)["n"] == 2


def test_generate_invalid_flavor_exit_one(capsys):
    bad = '{"seed": 1, "n": 1, "d": 1, "m": 1, "flavor": "exotic"}'
    assert main(["generate", "--spec", bad]) == 1
    assert "flavor" in capsys.readouterr().err


def test_generate_writes_stdout_without_out(capsys):
    assert main(["generate", "--spec", '{"seed": 1, "n": 1, "d": 1, "m": 1}']) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["version"] == 1


# ------------------------------------------------------------------ verify


def write_batch(tmp_path, specs):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(specs))
    return path


SMALL_BATCH = [
    {"seed": 100, "n": 1, "d": 1, "m": 2, "flavor": "generic"},
    {"seed": 101, "n": 2, "d": 2, "m": 4, "flavor": "commuting"},
    {"seed": 102, "n": 2, "d": 2, "m": 4, "flavor": "parseval"},
    {"seed": 103, "n": 2, "d": 2, "m": 4, "flavor": "bessel_only"},
]


def test_verify_small_batch_passes(tmp_path, capsys):
    batch = write_batch(tmp_path, SMALL_BATCH)
    out = tmp_path / "report.json"
    assert main(["verify", "--batch", str(batch), "--out", str(out)]) == 0
    report = read(out)
    assert set(report) == {"version", "tolerances", "results"}
    ids = [r["check_id"] for r in report["results"]]
    assert ids == sorted(ids)
    err = capsys.readouterr().err
    assert "op_energy_bound" in err


def test_verify_two_runs_byte_identical(tmp_path):
    batch = write_batch(tmp_path, SMALL_BATCH)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--batch", str(batch), "--out", str(a)]) == 0
    assert main(["verify", "--batch", str(batch), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_tiny_tol_exit_three_with_seeds(tmp_path):
    batch = write_batch(tmp_path, SMALL_BATCH)
    out = tmp_path / "report.json"
    assert main(["verify", "--batch", str(batch), "--tol", "1e-18",
                 "--out", str(out)]) == 3
    report = read(out)
    failing = [r for r in report["results"] if r["status"] == "fail"]
    assert failing
    seeds = {s["seed"] for s in SMALL_BATCH}
    for r in failing:
        for f in r["failures"]:
            assert f["seed"] in seeds


def test_verify_empty_batch_exit_one(tmp_path, capsys):
    batch = write_batch(tmp_path, [])
    assert main(["verify", "--batch", str(batch)]) == 1
    assert "batch" in capsys.readouterr().err
    # refused before the --out file is opened: it keeps its bytes
    out = tmp_path / "report.json"
    out.write_bytes(b"kept\n")
    assert main(["verify", "--batch", str(batch), "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "gframes: error: batch must contain at least one spec\n"
    assert out.read_bytes() == b"kept\n"


def test_verify_batch_schema_error(tmp_path, capsys):
    batch = write_batch(tmp_path, [{"seed": 1, "n": 1, "d": 1}])
    assert main(["verify", "--batch", str(batch)]) == 1


FLAVORS = ("generic", "commuting", "parseval", "bessel_only")


@pytest.mark.parametrize("flavor", FLAVORS)
def test_verify_spectrum_at_the_ceiling(flavor, tmp_path):
    batch = write_batch(tmp_path, [{"seed": 7, "n": 8, "d": 4, "m": 16,
                                    "flavor": flavor,
                                    "spectrum_range": [1, 1e150]}])
    assert main(["verify", "--batch", str(batch),
                 "--out", str(tmp_path / "report.json")]) == 0


@pytest.mark.parametrize("hi", ["1e153", "1e160"])
@pytest.mark.parametrize("flavor", FLAVORS)
def test_verify_spectrum_above_the_ceiling_is_a_spec_error(flavor, hi, tmp_path,
                                                           capsys, recwarn):
    batch = tmp_path / "batch.json"
    batch.write_text('[{"seed": 7, "n": 8, "d": 4, "m": 16, "flavor": "%s", '
                     '"spectrum_range": [1, %s]}]' % (flavor, hi))
    assert main(["verify", "--batch", str(batch)]) == 1
    assert capsys.readouterr().err == (
        f"gframes: error: spectrum_range upper end must be at most 1e+150, "
        f"got (1.0, {float(hi)!r})\n")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", ["generate", "verify"])
def test_spectrum_below_the_floor_is_a_spec_error(command, tmp_path, capsys,
                                                  recwarn):
    spec = {"seed": 0, "n": 2, "d": 2, "m": 4, "flavor": "commuting",
            "spectrum_range": [1e-155, 2e-155]}
    out = tmp_path / "out.json"
    out.write_bytes(b"kept")
    args = (["generate", "--spec", json.dumps(spec)] if command == "generate"
            else ["verify", "--batch", str(write_batch(tmp_path, [spec]))])
    assert main(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "gframes: error: spectrum_range lower end must be at least 1e-150, "
        "got (1e-155, 2e-155)\n")
    assert out.read_bytes() == b"kept"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_verify_rejects_batch_plus_default(tmp_path):
    batch = write_batch(tmp_path, SMALL_BATCH)
    assert main(["verify", "--batch", str(batch), "--default"]) == 1


# ------------------------------------------------------------- reconstruct


def test_reconstruct_random_seed(scen, tmp_path):
    out = tmp_path / "rec.json"
    assert main(["reconstruct", str(scen), "--random", "5",
                 "--out", str(out)]) == 0
    report = read(out)
    assert report["passed"] is True
    assert report["error"] >= 0.0
    assert report["relative_error"] <= 1e-8 * report["condition_number"]


def test_reconstruct_parseval_tiny_error(parseval_scen, tmp_path):
    out = tmp_path / "rec.json"
    assert main(["reconstruct", str(parseval_scen), "--random", "8",
                 "--out", str(out)]) == 0
    assert read(out)["error"] <= 1e-12


def test_reconstruct_explicit_vector(scen, tmp_path):
    x = ModuleVector(2, 2, complex_normal(stream(77, 0), (2, 4)))
    vec_path = tmp_path / "x.json"
    vec_path.write_text(ser.dumps(ser.vector_to_obj(x)))
    out = tmp_path / "rec.json"
    assert main(["reconstruct", str(scen), "--vector", str(vec_path),
                 "--out", str(out)]) == 0
    assert read(out)["passed"] is True


def test_reconstruct_relative_error_ignores_vector_scale(scen, tmp_path):
    # one vector at scales 1, 1e-6 and 1e-12: each report's relative error
    # is its error over the vector's own norm, so the three read alike and
    # give one verdict
    x = complex_normal(stream(77, 0), (2, 4))
    reports = []
    for s in (1.0, 1e-6, 1e-12):
        xs = ModuleVector(2, 2, s * x)
        vec_path, out = tmp_path / f"x_{s}.json", tmp_path / f"rec_{s}.json"
        vec_path.write_text(ser.dumps(ser.vector_to_obj(xs)))
        main(["reconstruct", str(scen), "--vector", str(vec_path), "--out", str(out)])
        r = read(out)
        assert r["relative_error"] == pytest.approx(r["error"] / vec_norm(xs),
                                                   rel=1e-12, abs=0)
        reports.append(r)
    rels = [r["relative_error"] for r in reports]
    # each run rounds its own bits, so the errors agree to roundoff only
    assert max(rels) <= 10 * min(rels)
    assert len({r["passed"] for r in reports}) == 1


def test_reconstruct_vector_shape_mismatch(scen, tmp_path, capsys):
    x = ModuleVector(1, 2, complex_normal(stream(78, 0), (1, 2)))
    vec_path = tmp_path / "x.json"
    vec_path.write_text(ser.dumps(ser.vector_to_obj(x)))
    assert main(["reconstruct", str(scen), "--vector", str(vec_path)]) == 1


def test_reconstruct_bessel_only_exit_two(tmp_path, capsys):
    path = tmp_path / "bessel.json"
    assert main(["generate", "--spec", BESSEL_SPEC, "--out", str(path)]) == 0
    assert main(["reconstruct", str(path), "--random", "1"]) == 2
    assert "not a frame" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 2**64, 2**65 - 1])
def test_reconstruct_refuses_a_seed_outside_64_bits(seed, tmp_path, capsys):
    # refused before the scenario is read, so a missing file is not named
    missing = tmp_path / "nope.json"
    assert main(["reconstruct", str(missing), "--random", str(seed)]) == 1
    assert capsys.readouterr().err == (
        f"gframes: error: --random must be a 64-bit nonnegative integer, "
        f"got {seed}\n")


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_reconstruct_takes_a_seed_at_either_end_of_64_bits(seed, scen, capsys):
    assert main(["reconstruct", str(scen), "--random", str(seed)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


# ----------------------------------------------------------- env and usage


def test_env_tol_applies(tmp_path, monkeypatch):
    batch = write_batch(tmp_path, SMALL_BATCH)
    monkeypatch.setenv("GFRAME_TOL", "1e-18")
    assert main(["verify", "--batch", str(batch)]) == 3


def test_flag_overrides_env(tmp_path, monkeypatch):
    batch = write_batch(tmp_path, SMALL_BATCH)
    monkeypatch.setenv("GFRAME_TOL", "1e-18")
    assert main(["verify", "--batch", str(batch), "--tol", "1e-9"]) == 0


def test_env_tol_invalid(scen, monkeypatch, capsys):
    monkeypatch.setenv("GFRAME_TOL", "abc")
    assert main(["analyze", str(scen)]) == 1
    assert "GFRAME_TOL" in capsys.readouterr().err


BAD_TOLS = {"inf": (["--tol", "inf"], None), "nan": (["--tol", "nan"], None),
            "one": (["--tol", "1"], None), "env_1e300": ([], "1e300")}


@pytest.mark.parametrize("command", ["verify", "analyze", "reconstruct"])
@pytest.mark.parametrize("case", sorted(BAD_TOLS))
def test_bad_tolerance_rejected_up_front(command, case, scen, tmp_path,
                                         monkeypatch, capsys):
    flag, env = BAD_TOLS[case]
    monkeypatch.delenv("GFRAME_TOL", raising=False)
    if env is not None:
        monkeypatch.setenv("GFRAME_TOL", env)
    args = {"verify": ["verify", "--batch", str(write_batch(tmp_path, SMALL_BATCH))],
            "analyze": ["analyze", str(scen)],
            "reconstruct": ["reconstruct", str(scen), "--random", "1"]}[command]
    out = tmp_path / "report.json"
    capsys.readouterr()
    assert main(args + flag + ["--out", str(out)]) == 1
    assert ("GFRAME_TOL" if env else "--tol") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["verify"],
                                     ["generate", "--spec", COMMUTING_SPEC]],
                         ids=["verify", "generate"])
def test_threads_option_is_gone(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--threads", "2"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


WRITE_COMMANDS = {
    "analyze": lambda scen, batch: ["analyze", str(scen)],
    "verify": lambda scen, batch: ["verify", "--batch", str(batch)],
    "generate": lambda scen, batch: ["generate", "--spec", COMMUTING_SPEC],
    "reconstruct": lambda scen, batch: ["reconstruct", str(scen), "--random", "3"],
}


@pytest.mark.parametrize("command", sorted(WRITE_COMMANDS))
def test_unwritable_out_is_an_error_not_a_traceback(command, scen, tmp_path,
                                                    capsys):
    batch = write_batch(tmp_path, SMALL_BATCH[:1])
    out = tmp_path / "missing" / "report.json"
    args = WRITE_COMMANDS[command](scen, batch) + ["--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr().err.endswith(
        f"gframes: error: cannot write {out}: No such file or directory\n")
    assert not out.parent.exists()


def test_verify_out_keeps_its_bytes_when_the_suite_raises(tmp_path, capsys,
                                                          monkeypatch):
    def broken(*args, **kwargs):
        raise GFrameError("suite failed")
    monkeypatch.setattr(cli, "run_suite", broken)
    out = tmp_path / "r.json"
    out.write_bytes(b"kept\n")
    assert main(["verify", "--default", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "gframes: error: suite failed\n"
    assert out.read_bytes() == b"kept\n"


def test_verify_out_made_for_a_suite_that_raises_is_removed(tmp_path, capsys,
                                                            monkeypatch):
    def broken(*args, **kwargs):
        raise GFrameError("suite failed")
    monkeypatch.setattr(cli, "run_suite", broken)
    out = tmp_path / "new.json"
    assert main(["verify", "--default", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "gframes: error: suite failed\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("source", [["--default"], None], ids=["default", "batch"])
def test_verify_unwritable_out_fails_before_the_suite(source, tmp_path, capsys,
                                                      monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("run_suite called")
    monkeypatch.setattr(cli, "run_suite", never)
    if source is None:
        source = ["--batch", str(write_batch(tmp_path, SMALL_BATCH[:1]))]
    out = tmp_path / "missing" / "report.json"
    assert main(["verify"] + source + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"gframes: error: cannot write {out}: No such file or directory\n"


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_command_exit_one():
    with pytest.raises(SystemExit) as exc:
        main(["summon"])
    assert exc.value.code == 1


def test_main_builds_one_parser_and_survives_a_usage_error(tmp_path, capsys):
    cli._build_parser.cache_clear()
    out = tmp_path / "scen.json"
    assert main(["generate", "--spec", COMMUTING_SPEC, "--out", str(out)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--spec", COMMUTING_SPEC, "--bogus"])
    assert exc.value.code == 1
    capsys.readouterr()
    # no option of an earlier call carries over: this one writes to stdout
    assert main(["generate", "--spec", COMMUTING_SPEC]) == 0
    assert capsys.readouterr().out == out.read_text()
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_analyze_report_is_canonical_json(scen, tmp_path):
    out = tmp_path / "report.json"
    assert main(["analyze", str(scen), "--out", str(out)]) == 0
    text = out.read_text()
    obj = json.loads(text)
    assert text == ser.dumps(obj)


# ------------------------------------------------------ cyclic collector


def test_document_commands_start_no_collection(tmp_path, capsys):
    # an (8, 4, 16) file holds some 10,000 pair lists, which set off 13
    # collections per command, one of the middle generation, with the
    # collector on
    spec = '{"seed": 11, "n": 8, "d": 4, "m": 16, "flavor": "commuting"}'
    scen = tmp_path / "scen.json"
    assert main(["generate", "--spec", spec, "--out", str(scen)]) == 0
    commands = {
        "generate": ["generate", "--spec", spec, "--out", str(tmp_path / "again.json")],
        "analyze": ["analyze", str(scen), "--out", str(tmp_path / "report.json")],
        "reconstruct": ["reconstruct", str(scen), "--random", "3",
                        "--out", str(tmp_path / "round.json")],
    }
    started = {name: [] for name in commands}
    for name, argv in commands.items():
        def count(phase, info, starts=started[name]):
            if phase == "start":
                starts.append(info["generation"])
        gc.collect()
        gc.callbacks.append(count)
        try:
            assert main(argv) == 0
        finally:
            gc.callbacks.remove(count)
    assert started == {name: [] for name in commands}


def raise_runtime_error(args):
    assert not gc.isenabled()
    raise RuntimeError("handler failed")


def collector_case(case, tmp_path, monkeypatch):
    """The arguments and exit code of one way for ``main`` to end; None for
    an exception that propagates."""
    scen = tmp_path / "scen.json"
    if case in ("success", "schema_error", "overflow", "runtime_error"):
        assert main(["generate", "--spec", COMMUTING_SPEC, "--out", str(scen)]) == 0
    if case == "success":
        return ["analyze", str(scen)], 0
    if case == "schema_error":
        obj = read(scen)
        obj["points"][0]["weight"] = -1
        scen.write_text(json.dumps(obj))
        return ["analyze", str(scen)], 1
    if case == "gframe_error":
        return ["analyze", str(tmp_path / "missing.json")], 1
    if case == "overflow":
        obj = read(scen)
        obj["points"][0]["lambda"] = [[v * 1e160 for v in row]
                                      for row in obj["points"][0]["lambda"]]
        scen.write_text(json.dumps(obj))
        return ["reconstruct", str(scen), "--random", "1"], 1
    if case == "not_a_frame":
        assert main(["generate", "--spec", BESSEL_SPEC, "--out", str(scen)]) == 0
        return ["analyze", str(scen)], 2
    monkeypatch.setattr(cli, "cmd_analyze", raise_runtime_error)
    return ["analyze", str(scen)], None


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case", ["success", "schema_error", "gframe_error",
                                  "overflow", "not_a_frame", "runtime_error"])
def test_main_restores_the_collector_state(case, enabled, tmp_path, capsys,
                                           monkeypatch):
    argv, code = collector_case(case, tmp_path, monkeypatch)
    if not enabled:
        gc.disable()
    try:
        if code is None:
            with pytest.raises(RuntimeError, match="handler failed"):
                main(argv)
        else:
            assert main(argv) == code
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_commands_create_no_reference_cycle(tmp_path, capsys):
    # what makes pausing the collector in main safe: no command leaves
    # garbage that only the cyclic collector could free
    specs = {fl: json.dumps({"seed": 120 + i, "n": 3, "d": 2, "m": 3, "flavor": fl})
             for i, fl in enumerate(FLAVORS)}
    batch = write_batch(tmp_path, SMALL_BATCH[:2])
    obj = file_form(ser.scenario_to_obj(generate(GeneratorSpec(
        seed=119, n=3, d=2, m=3, flavor="commuting"))))
    obj["points"][0]["weight"] = -1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    commands = [("verify --default", ["verify", "--default"]),
                ("verify --batch", ["verify", "--batch", str(batch)])]
    for fl, spec in specs.items():
        path = str(tmp_path / f"{fl}.json")
        commands += [(f"generate {fl}", ["generate", "--spec", spec, "--out", path]),
                     (f"analyze {fl} held from generate", ["analyze", path]),
                     (f"analyze {fl}", ["analyze", path, "--tol", "1e-12"]),
                     (f"reconstruct {fl}", ["reconstruct", path, "--random", "3"]),
                     (f"reconstruct {fl} held", ["reconstruct", path, "--random", "3"])]
    commands.append(("analyze schema error", ["analyze", str(bad)]))
    gc.collect()
    gc.disable()
    try:
        for name, argv in commands:
            assert main(argv) in (0, 1, 2, 3), name
            assert gc.collect() == 0, name
    finally:
        gc.enable()


# --------------------------------------------------------- held scenario


def scenario_file(case, tmp_path) -> Path:
    """A scenario file: a generated (3, 2, 3) file of a flavor, the
    hand-written file, or a generic file whose control commutes with no
    gram term, so that its certificate fails."""
    path = tmp_path / f"{case}.json"
    if case == "handwritten":
        path.write_text(json.dumps(HANDWRITTEN))
    elif case == "noncommuting":
        obj = ser.scenario_to_obj(generate(GeneratorSpec(seed=3, n=2, d=2, m=4,
                                                         flavor="generic")))
        a = complex_normal(stream(11, 0), (4, 4))
        obj["C"] = pair_list(a @ a.conj().T + np.eye(4))
        path.write_text(ser.dumps(obj))
    else:
        spec = json.dumps({"seed": 130 + FLAVORS.index(case), "n": 3, "d": 2,
                           "m": 3, "flavor": case})
        assert main(["generate", "--spec", spec, "--out", str(path)]) == 0
    return path


HELD_COMMANDS = (["analyze"], ["reconstruct", "--random", "3"],
                 ["reconstruct", "--random", "3"], ["analyze", "--tol", "1e-18"],
                 ["reconstruct", "--random", "5"])


def run_captured(argv, capsys):
    capsys.readouterr()
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("case", FLAVORS + ("handwritten", "noncommuting"))
def test_held_scenario_gives_the_bytes_of_a_fresh_read(case, tmp_path, capsys,
                                                       monkeypatch):
    path = scenario_file(case, tmp_path)
    argvs = [[argv[0], str(path), *argv[1:]] for argv in HELD_COMMANDS]
    runs, scenarios = [], []
    for argv in argvs:
        runs.append(run_captured(argv, capsys))
        scenarios.append(cli._held[2])
    # the reconstructs after the first analyze take its scenario
    assert scenarios[1] is scenarios[0] and scenarios[2] is scenarios[0]
    for argv, run in zip(argvs, runs):
        monkeypatch.setattr(cli, "_held", None)
        assert run_captured(argv, capsys) == run, argv
    codes = [code for code, _, _ in runs]
    if case == "bessel_only":
        # its lower spectral edge is small, not zero: a frame at tol 1e-18
        assert codes == [2, 2, 2, 0, 2]
    if case == "noncommuting":
        assert codes == [0, 1, 1, 0, 1]
        assert runs[2][2].startswith("gframes: error: commutation certificate "
                                     "failed (worst relative commutator ")


def one_digit_changed(text: str) -> str:
    """``text`` with the first digit of its first weight changed, at the
    same length."""
    at = text.index('"weight": ') + len('"weight": ')
    digit = text[at]
    assert digit.isdigit()
    return text[:at] + str((int(digit) + 1) % 9 + 1) + text[at + 1:]


def test_held_scenario_follows_the_file_bytes_not_its_size_or_time(tmp_path, capsys,
                                                                   monkeypatch):
    path = scenario_file("commuting", tmp_path)
    assert main(["analyze", str(path)]) == 0
    before = capsys.readouterr().out
    stat = path.stat()
    text = one_digit_changed(path.read_text())
    path.write_text(text)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size
    assert path.stat().st_mtime_ns == stat.st_mtime_ns
    assert main(["analyze", str(path)]) == 0
    after = capsys.readouterr().out
    assert after != before
    monkeypatch.setattr(cli, "_held", None)
    assert main(["analyze", str(path)]) == 0
    assert capsys.readouterr().out == after


def test_held_scenario_is_not_read_over_a_schema_error(tmp_path, capsys):
    path = scenario_file("commuting", tmp_path)
    assert main(["analyze", str(path)]) == 0
    obj = read(path)
    obj["points"][0]["weight"] = -1
    path.write_text(json.dumps(obj))
    for argv in (["analyze", str(path)], ["reconstruct", str(path), "--random", "3"]):
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(
            "gframes: schema error: points[0].weight")
        assert cli._held is None


def test_held_scenario_is_built_again_at_another_tol(tmp_path, capsys, monkeypatch):
    path = scenario_file("commuting", tmp_path)
    assert main(["analyze", str(path)]) == 0
    held = cli._held[2]
    monkeypatch.setenv("GFRAME_TOL", "1e-12")
    capsys.readouterr()
    assert main(["analyze", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["commutation"]["tol"] == 1e-12
    assert cli._held[2] is not held and cli._held[2].pair.tol == 1e-12


@pytest.mark.parametrize("spectrum", [[0.5, 2.0], [1e-150, 1e150]])
@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 2, 3)])
@pytest.mark.parametrize("flavor", FLAVORS)
def test_generated_scenario_gives_the_bytes_of_a_fresh_read(flavor, shape, spectrum,
                                                            tmp_path, capsys,
                                                            monkeypatch):
    n, d, m = shape
    path = tmp_path / "s.json"
    spec = json.dumps({"seed": 140 + FLAVORS.index(flavor), "n": n, "d": d, "m": m,
                       "dw_range": [1, 3], "spectrum_range": spectrum,
                       "flavor": flavor})
    for argv in HELD_COMMANDS:
        argv = [argv[0], str(path), *argv[1:]]
        assert main(["generate", "--spec", spec, "--out", str(path)]) == 0
        written = cli._held[2]
        run = run_captured(argv, capsys)
        # every command at the certificate tol of generate takes its scenario
        assert (cli._held[2] is written) == ("--tol" not in argv), argv
        monkeypatch.setattr(cli, "_held", None)
        assert run_captured(argv, capsys) == run, argv


def test_analyze_after_generate_parses_nothing(tmp_path, calls):
    path = tmp_path / "s.json"
    assert main(["generate", "--spec", COMMUTING_SPEC, "--out", str(path)]) == 0
    written = cli._held[2]
    assert cli._held[:2] == (path.read_bytes(), 1e-9)
    del calls["orjson.loads"][:]
    assert main(["analyze", str(path), "--out", str(tmp_path / "r.json")]) == 0
    assert calls["orjson.loads"] == [] and calls["json.loads"] == []
    assert cli._held[2] is written


@pytest.mark.parametrize("where", ["real part", "imaginary part", "identity control"])
def test_generated_scenario_with_a_negative_zero_is_not_held(where, tmp_path, capsys,
                                                             monkeypatch):
    # the emitter writes -0.0 as -0, which the reader takes for +0.0, and a
    # control that is the identity up to the sign of a zero as "identity"
    def generate_with_negative_zero(spec):
        sc = generate(spec)
        first, *rest = sc.family.points
        action = first.lam.action.copy()
        pair = sc.pair
        if where == "identity control":
            n, d = sc.family.algebra_dim, sc.family.module_rank
            eye = np.eye(d * n, dtype=complex)
            eye[0, 1] = complex(-0.0, 0.0)
            k = make_positive_invertible(ModuleOperator(n, d, d, eye))
            pair = ControlPair(k, k)
        else:
            action[0, 0] = (complex(-0.0, 1.0) if where == "real part"
                            else complex(1.0, -0.0))
        lam = ModuleOperator(first.lam.algebra_dim, first.lam.domain_rank,
                             first.lam.codomain_rank, action)
        family = GFrameFamily(sc.family.algebra_dim, sc.family.module_rank,
                              (MeasurePoint(first.weight, lam), *rest))
        return ControlledScenario(family, pair)

    monkeypatch.setattr(cli, "generate", generate_with_negative_zero)
    path = tmp_path / "s.json"
    assert main(["generate", "--spec", COMMUTING_SPEC, "--out", str(path)]) == 0
    text = path.read_text()
    assert cli._held is None
    assert main(["analyze", str(path)]) == 0
    built = cli._held[2]
    if where == "identity control":
        assert text.count('"identity"') == 2
        assert not np.signbit(built.pair.c.base.action[0, 1].real)
    else:
        assert ("[-0, 1]" if where == "real part" else "[1, -0]") in text
        entry = built.family.points[0].lam.action[0, 0]
        assert not np.signbit(entry.real if where == "real part" else entry.imag)


@pytest.mark.parametrize("out", ["stdout", "missing directory"])
def test_generate_holds_nothing_it_did_not_write(out, tmp_path, capsys):
    path = scenario_file("commuting", tmp_path)
    assert main(["analyze", str(path)]) == 0
    argv = ["generate", "--spec", COMMUTING_SPEC]
    if out == "stdout":
        assert main(argv) == 0
    else:
        assert main(argv + ["--out", str(tmp_path / "missing" / "s.json")]) == 1
    assert cli._held is None


def test_generated_scenario_is_built_again_at_another_tol(tmp_path, capsys,
                                                          monkeypatch):
    path = tmp_path / "s.json"
    monkeypatch.setenv("GFRAME_TOL", "1e-12")
    assert main(["generate", "--spec", COMMUTING_SPEC, "--out", str(path)]) == 0
    written = cli._held[2]
    capsys.readouterr()
    assert main(["analyze", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["commutation"]["tol"] == 1e-12
    assert cli._held[2] is not written and cli._held[2].pair.tol == 1e-12


@pytest.mark.parametrize("then", ["read another", "generate", "verify"])
def test_held_scenario_is_released(then, tmp_path, capsys):
    path = scenario_file("commuting", tmp_path)
    assert main(["analyze", str(path)]) == 0
    held = weakref.ref(cli._held[2])
    if then == "read another":
        argv = ["analyze", str(scenario_file("generic", tmp_path))]
    elif then == "generate":
        argv = ["generate", "--spec", COMMUTING_SPEC]
    else:
        argv = ["verify", "--batch", str(write_batch(tmp_path, SMALL_BATCH[:1]))]
    assert main(argv) == 0
    assert held() is None


# ------------------------------------------------------------- JSON reader


def same_json(a, b) -> bool:
    """Equal types throughout, equal keys in equal order, and the same bits
    in every float."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_json, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same_json(a[k], b[k]) for k in a)
    return a == b


@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 2, 3), (8, 4, 16)])
@pytest.mark.parametrize("flavor", FLAVORS)
def test_parser_reads_scenarios_as_json_does(flavor, shape, calls):
    n, d, m = shape
    text = ser.dumps(ser.scenario_to_obj(generate(
        GeneratorSpec(seed=31, n=n, d=d, m=m, flavor=flavor))))
    assert same_json(cli._parse_json(text), json.loads(text))
    assert len(calls["orjson.loads"]) == 1 and calls["json.loads"] == []


def number_corpus() -> list:
    """JSON number strings: the %.17g and repr forms of random bit patterns,
    the edges of the doubles, 40-digit mantissas and 64-bit integers."""
    rng = stream(29, 0)
    x = rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64)
    x = x[np.isfinite(x)].tolist()
    mantissas = rng.integers(0, 10, (2000, 40)).astype(str)
    exponents = rng.integers(-330, 308, 2000)
    ints = rng.integers(-2**63, 2**63, 1000, dtype=np.int64).tolist()
    uints = rng.integers(2**63, 2**64, 1000, dtype=np.uint64).tolist()
    return (["%.17g" % v for v in x] + [repr(v) for v in x]
            + [f"{m[0]}.{''.join(m[1:])}e{e}" for m, e in zip(mantissas, exponents)]
            + [str(v) for v in ints + uints]
            + ["5e-324", "-5e-324", "2.4703282292062328e-324",
               "2.4703282292062327e-324", "2.2250738585072009e-308",
               "2.2250738585072011e-308", "2.2250738585072014e-308",
               "1.7976931348623157e308", "-1.7976931348623157e308",
               "-0.0", "-0", "0", "1e-400", "-1e-400",
               "9223372036854775807", "-9223372036854775808",
               "18446744073709551615",
               "0.1000000000000000055511151231257827021182",
               "1.0000000000000002220446049250313080847263",
               "9.9999999999999999999999999999999999999999e307"])


def test_parser_reads_numbers_as_json_does(calls):
    text = "[" + ", ".join(number_corpus()) + "]"
    got = cli._parse_json(text)
    # orjson took it: the fallback would agree with json by construction
    assert len(calls["orjson.loads"]) == 1 and calls["json.loads"] == []
    assert same_json(got, json.loads(text))


@pytest.fixture
def unheld_scen(scen, monkeypatch):
    """``scen`` with the scenario its ``generate`` wrote released, so that
    the next read parses the file."""
    monkeypatch.setattr(cli, "_held", None)
    return scen


def test_analyze_parses_its_file_once_with_orjson(unheld_scen, tmp_path, calls):
    assert main(["analyze", str(unheld_scen), "--out", str(tmp_path / "r.json")]) == 0
    assert len(calls["orjson.loads"]) == 1
    assert calls["json.loads"] == []


def test_files_reach_orjson_as_bytes_and_inline_specs_as_text(unheld_scen, tmp_path,
                                                               calls):
    assert main(["reconstruct", str(unheld_scen), "--random", "1",
                 "--out", str(tmp_path / "r.json")]) == 0
    assert calls["orjson.loads"] == [unheld_scen.read_bytes()]
    assert main(["generate", "--spec", COMMUTING_SPEC,
                 "--out", str(tmp_path / "s.json")]) == 0
    assert [type(a) for a in calls["orjson.loads"]] == [bytes, str]
    assert calls["json.loads"] == []


def test_file_that_is_not_utf8_keeps_the_codec_message(scen, capsys):
    scen.write_bytes(scen.read_bytes().replace(b"\n", b"\n\xff", 1))
    assert main(["analyze", str(scen)]) == 1
    assert capsys.readouterr().err == ("gframes: error: 'utf-8' codec can't "
                                       "decode byte 0xff in position 2: "
                                       "invalid start byte\n")


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_syntax_error_line_counts_translated_newlines(newline, scen, capsys):
    # line 3 is '"n": 2,'
    text = scen.read_text().replace('"n": ', '"n" ', 1)
    scen.write_bytes(text.replace("\n", newline).encode("utf-8"))
    assert main(["analyze", str(scen)]) == 1
    assert capsys.readouterr().err == (f"gframes: schema error: {scen}: invalid "
                                       "JSON (Expecting ':' delimiter at line 3)\n")


DEPTH = cli._ORJSON_MAX_DEPTH


def text_guard_takes_json(text: str) -> bool:
    """The nesting guard on the text a text-mode read gives: whether its
    brackets outside strings nest deeper than ``DEPTH``."""
    depth = deepest = 0
    in_string = escaped = False
    for ch in text:
        if in_string:
            escaped, in_string = (False, True) if escaped else (ch == "\\", ch != '"')
        elif ch == '"':
            in_string = True
        elif ch in "[{":
            depth += 1
            deepest = max(deepest, depth)
        elif ch in "]}":
            depth -= 1
    return deepest > DEPTH


# A file of ``opening`` brackets and then ``filler``, 2 * DEPTH + ``extra``
# characters long once read as text, and longer in bytes.  Its second
# character is already invalid JSON, so either parser refuses it at once.
@pytest.mark.parametrize("filler", ["\u00e9", "\u20ac", "\U0001f600", "\r\n"],
                         ids=["2_bytes", "3_bytes", "4_bytes", "crlf"])
@pytest.mark.parametrize("extra", [0, 1], ids=["at_bound", "above_bound"])
@pytest.mark.parametrize("opening", [DEPTH, DEPTH + 1],
                         ids=["depth_at_bound", "depth_above_bound"])
def test_nesting_guard_on_bytes_decides_as_on_text(filler, extra, opening,
                                                   tmp_path, calls):
    path = tmp_path / "deep.json"
    path.write_bytes(("{" + "[" * (opening - 1)
                      + filler * (2 * DEPTH + extra - opening)).encode("utf-8"))
    text = path.read_text(encoding="utf-8")
    assert len(text) == 2 * DEPTH + extra < path.stat().st_size
    with pytest.raises(SchemaError, match="Expecting property name"):
        cli._load_json(str(path))
    assert len(calls["orjson.loads"]) == (0 if text_guard_takes_json(text) else 1)
    assert calls["json.loads"] == [text]


# token in place of the first weight, or None for a whole-file edit, then
# the stderr of analyze, as the json-only reader gave it
REFUSED = {
    "nan": ("NaN", "points[0].weight: must be finite"),
    "infinity": ("Infinity", "points[0].weight: must be finite"),
    "overflow": ("1e400", "points[0].weight: must be finite"),
    "huge_int": (str(HUGE_INT), "points[0].weight: must be finite"),
    "long_int": (LONG_INT, "{path}: integer longer than "
                           f"{sys.get_int_max_str_digits()} digits"),
    "lone_surrogate": ('"\\ud800"', "points[0].weight: expected a real number"),
    "bom": (None, "{path}: invalid JSON (Unexpected UTF-8 BOM "
                  "(decode using utf-8-sig) at line 1)"),
    "trailing_comma": (None, "{path}: invalid JSON (Expecting property name "
                             "enclosed in double quotes at line 28)"),
}


@pytest.mark.parametrize("case", REFUSED)
def test_text_orjson_refuses_keeps_its_outcome(case, scen, tmp_path, capsys, calls):
    token, message = REFUSED[case]
    text = scen.read_text()
    if case == "bom":
        text = "\ufeff" + text
    elif case == "trailing_comma":
        text = re.sub(r"\s*}\s*$", ",}\n", text)
    else:
        text = re.sub(r'"weight": [^,]*', lambda _: f'"weight": {token}', text,
                      count=1)
    path = tmp_path / "refused.json"
    path.write_text(text, encoding="utf-8")
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err == (
        "gframes: schema error: " + message.format(path=path) + "\n")
    assert len(calls["orjson.loads"]) == 1 and len(calls["json.loads"]) == 1


# seed, exit code and stderr of generate; orjson reads an integer outside
# [-2**63, 2**64) as a float, so those two seeds fail as non-integers (the
# json-only reader said "seed must be a 64-bit nonnegative integer, got
# 18446744073709551616" and "spec.seed: must be >= 0", also exiting 1)
BIG_SEEDS = [
    (2**64, 1, "gframes: schema error: spec.seed: expected an integer\n"),
    (-2**63 - 1, 1, "gframes: schema error: spec.seed: expected an integer\n"),
    (2**64 - 1, 0, ""),
]


@pytest.mark.parametrize("seed,code,err", BIG_SEEDS)
def test_integer_seeds_beyond_64_bits(seed, code, err, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text('{"seed": %d, "n": 1, "d": 1, "m": 1}' % seed)
    assert main(["generate", "--spec", str(path),
                 "--out", str(tmp_path / "s.json")]) == code
    assert capsys.readouterr().err == err


def test_nesting_beyond_json_but_within_orjson_is_a_schema_error(tmp_path, capsys):
    # json raised RecursionError here; orjson parses it and the schema refuses
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000 + "]" * 5000)
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err == (
        "gframes: schema error: expected a scenario object\n")


def test_nesting_deeper_than_orjson_can_take_goes_to_json(tmp_path):
    # orjson recurses once a level in native code and would overflow the C
    # stack and kill the process; json stops at the recursion limit
    path = tmp_path / "deeper.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", "from gframes.cli import run; run()",
         "analyze", str(path)], capture_output=True, text=True, env=env,
        timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1].startswith("RecursionError")


def test_brackets_in_strings_do_not_hide_the_nesting(tmp_path):
    # a valid document: a string of an escaped quote and 200,000 closing
    # brackets, then nesting 200,000 deep, which only json can take
    path = tmp_path / "hidden.json"
    path.write_text('["\\"' + "]" * 200_000 + '", '
                    + "[" * 200_000 + "]" * 200_000 + "]")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", "from gframes.cli import run; run()",
         "analyze", str(path)], capture_output=True, text=True, env=env,
        timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1].startswith("RecursionError")


def test_large_shallow_file_goes_to_orjson(tmp_path, calls, monkeypatch):
    # each complex entry is a bracket pair, so this file holds far more
    # brackets than orjson can nest, at a depth of 5
    path = tmp_path / "large.json"
    assert main(["generate", "--spec", '{"seed": 7, "n": 8, "d": 8, "m": 128, '
                 '"flavor": "commuting"}', "--out", str(path)]) == 0
    monkeypatch.setattr(cli, "_held", None)  # so that analyze parses the file
    assert path.read_bytes().count(b"[") > DEPTH
    del calls["orjson.loads"][:]
    assert main(["analyze", str(path), "--out", str(tmp_path / "r.json")]) == 0
    assert len(calls["orjson.loads"]) == 1 and calls["json.loads"] == []
