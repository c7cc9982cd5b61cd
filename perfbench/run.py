#!/usr/bin/env python3
"""gframes benchmark: drives the CLI entry point ``gframes.cli.main(argv)``
in-process as one closed-loop client (one process, commands back to back,
every output written with ``--out``) and prints its metrics.

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports ``gframes`` from
``src/`` there and writes only under ``.bench_out/``.  With ``--trace 0`` it
prints the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced pass plus the per-primitive size ladder.  The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

import os
import sys

# BLAS/OpenMP pools must be pinned before numpy is first imported.
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PINNED_THREADS:
    os.environ[_var] = "1"
os.environ.pop("GFRAME_TOL", None)  # tolerances come from the command defaults

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import ladder  # noqa: E402
from speed import REF_S, Speedometer  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("verify-default", "verify-ladder", "cli-roundtrip")
FLAVORS = ("generic", "commuting", "parseval", "bessel_only")
EMPIRICAL_CHECKS = frozenset({"bound_product_probe"})
SETUP_REPS = 15
MIN_VERIFY_PASSES = 3
# cli-roundtrip: 4 scenarios x 4 reconstructs per pass.
ROUNDTRIP_SHAPE = (8, 4, 16)
ROUNDTRIP_RECONSTRUCTS = 4
MIN_ROUNDTRIP_PASSES = 7
# Latency probe of the verify workloads: round trips (generate, analyze,
# reconstructs) on scenarios of the workload's own shapes, run after every
# pass so that the samples span the whole run.  Latencies differ by shape
# and flavor, so each scenario's samples form a cluster; with 25 equal
# clusters the pooled p90 falls inside one, not in a gap between two.
DEFAULT_PROBE_SPECS, DEFAULT_PROBE_RECONSTRUCTS = 25, 3
LADDER_PROBE_SPECS, LADDER_PROBE_RECONSTRUCTS = 8, 2


# ------------------------------------------------------------------ plans


@dataclass
class Cmd:
    kind: str          # verify | generate | analyze | reconstruct
    argv: list
    out: str
    rc: int = 0        # expected exit code
    scenario: str | None = None   # round trips: the scenario's tag


@dataclass
class Plan:
    inputs: dict = field(default_factory=dict)   # path -> text, written in set-up
    warmup: list = field(default_factory=list)
    probe: list = field(default_factory=list)    # round trips, latencies only
    one_pass: list = field(default_factory=list)
    items_per_pass: int = 0
    min_passes: int = MIN_VERIFY_PASSES
    # Highest percentile with at least ten reconstruct samples above it
    # after ``min_passes``; fixed so that every run reports the same one.
    tail_percentile: int = 90


def _spec(seed: int, n: int, d: int, m: int, flavor: str) -> dict:
    # dw fixed at 2: the benchmark seed changes values, never matrix sizes.
    return {"seed": seed, "n": n, "d": d, "m": m, "dw_range": [2, 2],
            "flavor": flavor}


def _roundtrip(plan: Plan, work: str, tag: str, spec: dict, reconstructs: int,
               rnd: random.Random) -> list:
    """generate -> analyze -> reconstructs of one scenario, as commands."""
    spec_path = os.path.join(work, f"{tag}.spec.json")
    plan.inputs[spec_path] = json.dumps(spec)
    scen = os.path.join(work, f"{tag}.scenario.json")
    frame_rc = 2 if spec["flavor"] == "bessel_only" else 0
    cmds = [Cmd("generate", ["generate", "--spec", spec_path, "--out", scen], scen,
                scenario=tag),
            Cmd("analyze", ["analyze", scen, "--out", os.path.join(work, f"{tag}.analyze.json")],
                os.path.join(work, f"{tag}.analyze.json"), frame_rc, tag)]
    for k in range(reconstructs):
        out = os.path.join(work, f"{tag}.reconstruct{k}.json")
        cmds.append(Cmd("reconstruct", ["reconstruct", scen, "--random",
                                        str(rnd.randrange(1 << 31)), "--out", out],
                        out, frame_rc, tag))
    return cmds


def make_plan(g, workload: str, seed: int, work: str) -> Plan:
    rnd = random.Random(f"{workload}/{seed}")
    plan = Plan()

    def new_seed() -> int:
        return rnd.randrange(1 << 40)

    warm_batch = os.path.join(work, "warmup.batch.json")
    plan.inputs[warm_batch] = json.dumps([_spec(new_seed(), 2, 2, 4, "commuting")])
    plan.warmup = [Cmd("verify", ["verify", "--batch", warm_batch, "--out",
                                  os.path.join(work, "warmup.verify.json")],
                       os.path.join(work, "warmup.verify.json"))]
    plan.warmup += _roundtrip(plan, work, "warmup", _spec(new_seed(), 2, 2, 4, "commuting"),
                              1, rnd)

    if workload == "verify-default":
        out = os.path.join(work, "verify.json")
        plan.one_pass = [Cmd("verify", ["verify", "--default", "--out", out], out)]
        plan.items_per_pass = len(g.default_batch())
        for i, s in enumerate(g.default_batch()[:DEFAULT_PROBE_SPECS]):
            plan.probe.append(_roundtrip(plan, work, f"probe{i}",
                                         _spec(new_seed(), s.n, s.d, s.m, s.flavor),
                                         DEFAULT_PROBE_RECONSTRUCTS, rnd))
        plan.tail_percentile = 90  # 3 passes: 225 reconstruct samples
    elif workload == "verify-ladder":
        specs = [_spec(new_seed(), 8, d, m, flavor)
                 for d, m in ((4, 16), (8, 32)) for flavor in FLAVORS]
        batch = os.path.join(work, "ladder.batch.json")
        plan.inputs[batch] = json.dumps(specs)
        out = os.path.join(work, "verify.json")
        plan.one_pass = [Cmd("verify", ["verify", "--batch", batch, "--out", out], out)]
        plan.items_per_pass = len(specs)
        # The probe stays at (8, 4, 16), since (8, 8, 32) round trips would
        # take most of a run, and uses the commuting flavor of the
        # primitive ladder; cli-roundtrip covers the other flavors.
        for i in range(LADDER_PROBE_SPECS):
            plan.probe.append(_roundtrip(plan, work, f"probe{i}",
                                         _spec(new_seed(), 8, 4, 16, "commuting"),
                                         LADDER_PROBE_RECONSTRUCTS, rnd))
        plan.tail_percentile = 75  # 3 passes: 48 reconstruct samples
    elif workload == "cli-roundtrip":
        for flavor in FLAVORS:
            plan.one_pass += _roundtrip(plan, work, flavor,
                                        _spec(new_seed(), *ROUNDTRIP_SHAPE, flavor),
                                        ROUNDTRIP_RECONSTRUCTS, rnd)
        plan.items_per_pass = len(plan.one_pass)
        plan.min_passes = MIN_ROUNDTRIP_PASSES  # 112 reconstruct samples, p90
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return plan


# ---------------------------------------------------------------- set-up


def _setup_once(workload: str, seed: int, work: str):
    """Import gframes afresh and write the workload's input files; returns
    the (start, end) of that, the package, its CLI module and the plan."""
    for name in [m for m in sys.modules if m == "gframes" or m.startswith("gframes.")]:
        del sys.modules[name]
    t0 = perf_counter()
    g = importlib.import_module("gframes")
    cli = importlib.import_module("gframes.cli")
    plan = make_plan(g, workload, seed, work)
    for path, text in plan.inputs.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return (t0, perf_counter()), g, cli, plan


def environment(g, seed: int, workload: str) -> dict:
    blas = None
    with contextlib.suppress(TypeError, KeyError, AttributeError):
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "gframes": getattr(g, "__version__", None),
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in PINNED_THREADS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------- running


class Client:
    """Runs commands through ``cli.main``, calibrating the machine's speed
    between them, and checks every output."""

    def __init__(self, cli, speed: Speedometer):
        self.cli = cli
        self.speed = speed
        self.attempted = 0
        self.failures: list[str] = []
        self.first: dict = {}          # pass slot -> output bytes of pass 1
        self.spans: dict = {}          # command kind -> (start, end, scenario) per command

    def run(self, cmd: Cmd, slot=None, tracer=None) -> tuple:
        writes = not (cmd.kind == "reconstruct" and cmd.rc == 2)
        if writes and os.path.exists(cmd.out):
            os.remove(cmd.out)
        if tracer is not None:
            tracer.item += 1
        self.speed.tick()
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = self.cli.main(cmd.argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crash is a failed command, not a dead run
                rc = traceback.format_exc(limit=-1).strip()
            t1 = perf_counter()
        self.attempted += 1
        self.spans.setdefault(cmd.kind, []).append((t0, t1, cmd.scenario))
        problem = self._check(cmd, rc, slot, writes)
        if problem:
            self.failures.append(f"{' '.join(cmd.argv)}: {problem} "
                                 f"[stderr: {err.getvalue().strip()[-200:]}]")
        return t0, t1

    def _check(self, cmd: Cmd, rc, slot, writes: bool) -> str | None:
        if rc != cmd.rc:
            return f"exit {rc!r}, expected {cmd.rc}"
        if not writes:
            return None
        try:
            with open(cmd.out, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            return f"no output ({exc.strerror})"
        if cmd.kind == "verify":
            bad = [r["check_id"] for r in json.loads(data)["results"]
                   if r["check_id"] not in EMPIRICAL_CHECKS and r["status"] != "pass"]
            if bad:
                return "normative checks not passed: " + ", ".join(bad)
        elif cmd.kind == "reconstruct" and json.loads(data).get("passed") is not True:
            return "reconstruct report has passed: false"
        if slot is not None and self.first.setdefault(slot, data) != data:
            return "output bytes differ from the first pass"
        return None

    def run_cycle(self, plan: Plan, tracer=None) -> list:
        """One pass, then the probe; returns the (start, end) of each pass
        command."""
        gc.collect()
        spans = [self.run(cmd, slot=("pass", i), tracer=tracer)
                 for i, cmd in enumerate(plan.one_pass)]
        for k, group in enumerate(plan.probe):
            for i, cmd in enumerate(group):
                self.run(cmd, slot=("probe", k, i), tracer=tracer)
        return spans

    def pass_time(self, spans: list) -> float:
        """Reference-speed seconds of one pass; call after the last tick."""
        return sum(self.speed.scaled(t0, t1) for t0, t1 in spans)

    def outputs_sha256(self) -> str:
        h = hashlib.sha256()
        for slot in sorted(self.first):
            h.update(self.first[slot])
        return h.hexdigest()


def percentile(values: list, p: int) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p * len(s) / 100) - 1)]


def scenario_median(samples: list) -> float:
    """Median over scenarios of each scenario's median.  Latencies cluster by
    scenario; the pooled median of an even number of clusters would sit in
    the gap between two of them and jump with noise."""
    by_scenario: dict = {}
    for scenario, value in samples:
        by_scenario.setdefault(scenario, []).append(value)
    return statistics.median(statistics.median(v) for v in by_scenario.values())


def measure(client: Client, plan: Plan, seconds: float, setup_s: float) -> dict:
    client.spans.clear()
    start = perf_counter()
    cycles = []
    while len(cycles) < plan.min_passes or perf_counter() - start < seconds:
        cycles.append(client.run_cycle(plan))
    speed = client.speed
    speed.tick(force=True)
    passes = [client.pass_time(spans) for spans in cycles]
    lat = {kind: [(sc, speed.scaled(t0, t1)) for t0, t1, sc in spans]
           for kind, spans in client.spans.items()}
    raw = {kind: [(sc, t1 - t0) for t0, t1, sc in spans]
           for kind, spans in client.spans.items()}
    p = plan.tail_percentile
    print(f"times at the reference speed: the calibration loop took a median "
          f"{1e3 * speed.median_loop():.3f} ms over {len(speed.loops)} calibrations, "
          f"reference {1e3 * REF_S:g} ms; raw medians: pass "
          f"{statistics.median(sum(t1 - t0 for t0, t1 in c) for c in cycles):.4f} s, "
          + ", ".join(f"{k} {1e3 * scenario_median(raw[k]):.3f} ms"
                      for k in ("generate", "analyze", "reconstruct")))
    print(f"wall_s: median of {len(passes)} passes of {len(plan.one_pass)} command(s)")
    tail = [v for _, v in lat["reconstruct"]]
    print("latency samples: " + ", ".join(f"{k} {len(lat[k])}"
                                          for k in ("generate", "analyze", "reconstruct"))
          + f" over {len({sc for sc, _ in lat['generate']})} scenarios, *_p50_ms the "
          f"median of the per-scenario medians; reconstruct_tail_ms is p{p} of all "
          f"{len(tail)}")
    m = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(passes), "s"),
        "items_per_s": (plan.items_per_pass * len(passes) / sum(passes), "1/s"),
        "generate_p50_ms": (1e3 * scenario_median(lat["generate"]), "ms"),
        "analyze_p50_ms": (1e3 * scenario_median(lat["analyze"]), "ms"),
        "reconstruct_p50_ms": (1e3 * scenario_median(lat["reconstruct"]), "ms"),
        "reconstruct_tail_ms": (1e3 * percentile(tail, p), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": (1.0 - len(client.failures) / client.attempted, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# ------------------------------------------------------------ traced run

# Traced names reported with .calls and .self_s.
TRACED_CALLS = (
    "controlled.validate_commutation", "controlled.controlled_frame_operator",
    "controlled.controlled_classify", "controlled.synthesis_operator",
    "controlled.cross_operator", "controlled.cross_adjoint_resolve",
    "controlled.surjectivity_transfer", "controlled.reconstruct",
    "linalg.norm2", "linalg.svd", "linalg.eigvalsh", "linalg.eigh", "linalg.solve",
    "operators.op_norm", "operators.op_apply", "operators.make_positive_invertible",
    "operators.is_bounded_below",
    "module_space.inner", "module_space.vec_norm",
    "verifier.run_suite",
    "frames.frame_operator", "frames.classify", "frames.sandwich_sum",
    "generators.generate", "generators.generate_pair", "rng.stream",
    "serialization.dumps", "serialization.scenario_from_obj",
    "serialization.scenario_to_obj", "json.loads",
)
TRACED_CONSTRUCTED = ("operators.ModuleOperator.constructed",
                      "algebra.AlgebraElement.constructed",
                      "module_space.ModuleVector.constructed")
TRACED_BYTES = ("serialization.dumps", "json.loads")
MODULE_SELF = ("controlled", "operators", "algebra", "module_space", "verifier",
               "frames", "generators", "rng", "serialization", "cli")


def per_layer_spec() -> list:
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = []
    for name in TRACED_CALLS:
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    spec.append(("controlled.validate_commutation.distinct_ratio", "ratio", "higher"))
    spec += [(name, "count", "lower") for name in TRACED_CONSTRUCTED]
    spec += [(f"{name}.bytes", "B", "lower") for name in TRACED_BYTES]
    spec += [(f"{mod}.self_s", "s", "lower") for mod in MODULE_SELF]
    spec.append(("trace.overhead_s", "s", "lower"))
    spec += [(ladder.metric_name(p, size), "ms", "lower")
             for size in ladder.SIZES for p in ladder.PRIMITIVES]
    return spec


def measure_traced(client: Client, plan: Plan, g, seed: int, seconds: float,
                   work: str) -> dict:
    start = perf_counter()
    untraced = [client.run_cycle(plan)]
    while perf_counter() - start < seconds / 4:
        untraced.append(client.run_cycle(plan))
    tracer = Tracer()
    tracer.install(g)
    try:
        traced = client.run_cycle(plan, tracer=tracer)
    finally:
        tracer.uninstall()
    client.speed.tick(force=True)
    untraced = [client.pass_time(spans) for spans in untraced]
    traced = client.pass_time(traced)
    items = [f"pass {c.kind} {os.path.basename(c.out)}" for c in plan.one_pass]
    items += [f"probe {c.kind} {os.path.basename(c.out)}"
              for group in plan.probe for c in group]
    tracer.save(os.path.join(work, "spans.npz"), items)
    overhead = traced - statistics.median(untraced)
    print(f"trace.overhead_s: traced pass {traced:.3f} s minus the median of "
          f"{len(untraced)} untraced passes; {tracer.next_id} spans in "
          f"{os.path.relpath(work, ROOT)}/spans.npz")

    values = {}
    for name in TRACED_CALLS:
        values[f"{name}.calls"] = tracer.calls_of(name)
        values[f"{name}.self_s"] = tracer.self_s_of(name)
    certs = tracer.calls_of("controlled.validate_commutation")
    values["controlled.validate_commutation.distinct_ratio"] = (
        len(tracer.triples) / certs if certs else 0.0)
    for name in TRACED_CONSTRUCTED:
        values[name] = tracer.calls_of(name)
    for name in TRACED_BYTES:
        values[f"{name}.bytes"] = tracer.bytes_of(name)
    for mod in MODULE_SELF:
        values[f"{mod}.self_s"] = tracer.module_self_s(mod)
    values["trace.overhead_s"] = overhead
    ladder_seed = random.Random(f"ladder/{seed}").randrange(1 << 40)
    values.update(ladder.run(g, ladder_seed, max(0.0, seconds - (perf_counter() - start))))
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in per_layer_spec()}


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gframes", "__init__.py")):
        sys.stderr.write(f"perfbench: no gframes sources under {SRC}; run from a "
                         "full checkout\n")
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(OUT, args.workload, f"seed-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    speed = Speedometer()
    spans = []
    for _ in range(SETUP_REPS):
        speed.tick(force=True)
        span, g, cli, plan = _setup_once(args.workload, args.seed, work)
        spans.append(span)
    speed.tick(force=True)
    setups = [speed.scaled(t0, t1) for t0, t1 in spans]
    if not os.path.abspath(g.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: imported gframes from {g.__file__}, not {SRC}\n")
        return 2
    env = environment(g, args.seed, args.workload)
    with open(os.path.join(work, "env.json"), "w", encoding="utf-8") as fh:
        json.dump(env, fh, indent=1, sort_keys=True)
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"setup_s: median of {SETUP_REPS} set-ups (import gframes, write inputs), "
          "at the reference speed")

    client = Client(cli, speed)
    for cmd in plan.warmup:
        client.run(cmd)
    if args.trace:
        metrics = measure_traced(client, plan, g, args.seed, args.seconds, work)
    else:
        metrics = measure(client, plan, args.seconds, statistics.median(setups))
    print(f"outputs sha256: {client.outputs_sha256()} ({len(client.first)} outputs "
          f"of pass and probe commands, in {os.path.relpath(work, ROOT)})")
    for line in client.failures[:20]:
        print("FAILED " + line)
    print(json.dumps({"correct": not client.failures, "attempted": client.attempted,
                      "failed": len(client.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
