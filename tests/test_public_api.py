"""The package's export list: pinned, so adding or removing a public name
shows as an edit here, and every listed name importable.  The package and
each command load only the modules they use."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import gframes
from gframes.cli import main

PUBLIC = [
    "AlgebraElement", "BESSEL_ONLY", "CHECKS", "CheckFailure", "CheckResult",
    "CommutationReport", "CommutationViolated", "ControlPair",
    "ControlledScenario", "CrossAdjointDiagnostic", "DEFAULT_TOL", "FLAVORS",
    "FRAME", "FrameBounds", "FrameVerdict", "GFrameError", "GFrameFamily",
    "GeneratorSpec", "InvalidSpec", "MeasureMismatch", "MeasurePoint",
    "ModuleOperator", "ModuleVector", "NotAFrame", "NotHermitian",
    "NotPositive", "NotPositiveDefinite", "NotSurjective",
    "PositiveInvertibleOperator", "PreconditionViolated",
    "ReconstructionResult", "SURJECTIVITY_TOL", "SchemaError",
    "TransferResult", "a_valued_abs", "alg_adjoint", "alg_norm", "alg_sqrt",
    "analysis", "bounds_cc_from_plain", "bounds_plain_from_cc",
    "check_sandwich", "classify", "controlled_classify",
    "controlled_frame_operator", "cross_adjoint_resolve", "cross_operator",
    "decide_commutation", "default_batch", "energy_bound_check",
    "frame_operator", "generate", "generate_pair", "gram_sandwich_check",
    "identity_control", "inner", "is_bounded_below", "is_positive",
    "is_surjective", "loewner_leq", "make_positive_invertible",
    "module_action", "op_adjoint", "op_apply", "op_compose", "op_norm",
    "optimal_bounds", "reconstruct", "run_suite", "sandwich_sum",
    "suite_passed", "surjectivity_transfer", "synthesis",
    "synthesis_norm_check", "synthesis_operator", "validate_commutation",
    "vec_norm",
]


def test_public_names_are_pinned():
    assert sorted(gframes.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in gframes.__all__:
        assert getattr(gframes, name) is not None, name


SUBMODULES = ["algebra", "controlled", "errors", "frames", "generators",
              "module_space", "operators", "rng", "verifier"]


def in_fresh_process(code: str, tmp_path):
    """The JSON object that ``code`` prints last, run in a new interpreter
    that imports ``gframes`` from this checkout."""
    src = str(Path(gframes.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("GFRAME_TOL", None)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          cwd=tmp_path, env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule(tmp_path):
    got = in_fresh_process("""
        import json, sys
        import gframes
        loaded = sorted(m for m in sys.modules if m.startswith("gframes."))
        print(json.dumps(loaded))
    """, tmp_path)
    assert got == []


def test_each_command_loads_only_what_it_runs(tmp_path):
    # analyze and reconstruct neither verify nor generate, and generate does
    # not verify; the modules loaded after each command, run in this order
    spec = '{"seed": 4, "n": 2, "d": 2, "m": 4, "flavor": "commuting"}'
    (tmp_path / "spec.json").write_text(spec)
    (tmp_path / "batch.json").write_text(f"[{spec}]")
    assert main(["generate", "--spec", spec, "--out", str(tmp_path / "s.json")]) == 0
    got = in_fresh_process("""
        import json, sys
        from gframes.cli import main

        loaded = {}
        for argv in (["analyze", "s.json", "--out", "a.json"],
                     ["reconstruct", "s.json", "--random", "3", "--out", "r.json"],
                     ["generate", "--spec", "spec.json", "--out", "g.json"],
                     ["verify", "--batch", "batch.json", "--out", "v.json"]):
            assert main(argv) == 0, argv
            loaded[argv[0]] = {m.partition(".")[2] for m in sys.modules
                               if m.startswith("gframes.")}
        print(json.dumps({k: sorted(v) for k, v in loaded.items()}))
    """, tmp_path)
    for command in ("analyze", "reconstruct"):
        assert "verifier" not in got[command] and "generators" not in got[command]
    assert "generators" in got["generate"] and "verifier" not in got["generate"]
    assert {"generators", "verifier"} <= set(got["verify"])


def test_names_and_submodules_resolve_lazily(tmp_path):
    got = in_fresh_process("""
        import json, types
        import gframes

        listed = set(gframes.__all__) <= set(dir(gframes))
        star = {}
        exec("from gframes import *", star)
        subs = {name: isinstance(getattr(gframes, name), types.ModuleType)
                for name in SUBMODULES}
        try:
            gframes.no_such_name
            unknown = "resolved"
        except AttributeError as exc:
            unknown = str(exc)
        print(json.dumps({"listed": listed, "subs": subs, "unknown": unknown,
                          "star": sorted(set(star) - {"__builtins__"})}))
    """.replace("SUBMODULES", repr(SUBMODULES)), tmp_path)
    assert got["listed"]
    assert got["star"] == PUBLIC
    assert got["subs"] == {name: True for name in SUBMODULES}
    assert got["unknown"] == "module 'gframes' has no attribute 'no_such_name'"
