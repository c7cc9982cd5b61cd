"""Per-primitive size ladder: direct, untraced calls of the primitives the
controlled machinery is built from, on commuting scenarios at fixed sizes.

Each sample times enough back-to-back calls to last about ``_SAMPLE_NS``;
cycles over every (size, primitive) pair repeat until the time budget is
spent, so slow drift of the machine hits every pair alike.  The reported
value is the median milliseconds per call.
"""

from __future__ import annotations

import statistics
from time import perf_counter, perf_counter_ns

SIZES = ((2, 2, 4), (4, 4, 8), (8, 4, 16), (8, 8, 32))
PRIMITIVES = ("validate_commutation", "frame_operator", "controlled_frame_operator",
              "controlled_classify", "cross_operator", "synthesis_operator",
              "reconstruct")
_SAMPLE_NS = 2_000_000
_MIN_CYCLES = 3


def metric_name(primitive: str, size) -> str:
    return f"ladder.{primitive}.{'x'.join(map(str, size))}.ms"


def _calls(g, spec_seed: int, size) -> dict:
    """One zero-argument callable per primitive on the scenario of ``size``."""
    n, d, m = size
    spec = g.GeneratorSpec(seed=spec_seed, n=n, d=d, m=m, dw_range=(2, 2),
                           flavor="commuting")
    scenario, twin = g.generate_pair(spec)
    family, pair = scenario.family, scenario.pair
    x = g.ModuleVector(n, d, g.rng.complex_normal(g.rng.stream(spec_seed, 1), (n, d * n)))
    return {
        "validate_commutation": lambda: g.validate_commutation(family, pair.c, pair.cp),
        "frame_operator": lambda: g.frame_operator(family),
        "controlled_frame_operator": lambda: g.controlled_frame_operator(scenario),
        "controlled_classify": lambda: g.controlled_classify(scenario),
        "cross_operator": lambda: g.cross_operator(family, twin, pair),
        "synthesis_operator": lambda: g.synthesis_operator(scenario),
        "reconstruct": lambda: g.reconstruct(scenario, x),
    }


def run(g, spec_seed: int, budget_s: float) -> dict:
    """Median ms per call for every (primitive, size), keyed by metric name.

    ``g`` is the imported ``gframes`` package.
    """
    deadline = perf_counter() + budget_s
    jobs = []
    for size in SIZES:
        calls = _calls(g, spec_seed, size)
        for prim in PRIMITIVES:
            fn = calls[prim]
            t0 = perf_counter_ns()
            fn()  # warm-up; also sizes the sample
            once = max(perf_counter_ns() - t0, 1)
            jobs.append((metric_name(prim, size), fn, max(1, _SAMPLE_NS // once)))
    samples = {name: [] for name, _, _ in jobs}
    cycles = 0
    while cycles < _MIN_CYCLES or perf_counter() < deadline:
        for name, fn, reps in jobs:
            t0 = perf_counter_ns()
            for _ in range(reps):
                fn()
            samples[name].append((perf_counter_ns() - t0) / reps / 1e6)
        cycles += 1
    return {name: statistics.median(v) for name, v in samples.items()}
