"""Write the CLI output of a fixed corpus to a directory, so that two
checkouts can be compared byte for byte.

    python3 tools/byte_sweep.py OUT

Imports ``gframes`` from the ``src/`` directory of the checkout that holds
this script and runs ``gframes.cli.main`` in-process on:

* ``verify --default`` at the default tolerance, 1e-14 and 1e-18;
* ``verify --batch`` of the 200 default specs in reverse order at the
  default tolerance and 1e-18, whose report must be byte-identical to
  ``verify --default`` at the same tolerance: the verifier takes a batch in
  (n, d) order and folds its outcomes back in batch order;
* ``verify --batch`` of the 8 verify-ladder specs (seeds 900-907, n = 8,
  (d, m) in {(4, 16), (8, 32)}, dw 2, every flavor) at the default
  tolerance and 1e-18;
* ``verify --batch`` of 8 mixed-size specs (seeds 970-977, (n, d, m) in
  {(3, 3, 5), (8, 2, 6)}, dw_range [1, 3], every flavor), whose bases and
  codomain unitaries share size stacks across specs and across roles, at
  the default tolerance and 1e-18, and in reverse order at 1e-18, which
  must give the forward report: reversal changes which matrices share each
  stack, not the slices;
* ``verify --batch`` of 11 specs (seeds 980-989, flavors in turn) at the
  default tolerance and 1e-18, whose shapes (n, d, m) come in no cyclic
  order: (1, 1, 1), (2, 2, 4) and (3, 2, 3) with dw_range [1, 3], and four
  (8, 4, 16) with dw 2, which together hold more bytes than the verifier
  evaluates in one group.  Seed 985 names a (3, 2, 3) and a (1, 1, 1) spec;
* ``verify --batch`` of 23 specs at (n, d) = (2, 2) (seeds 990-1012,
  dw_range [1, 3]) with m = 1 to 6 and every flavor, parseval from m = 2,
  at the default tolerance and 1e-18: one shape group whose families have
  different numbers of points;
* ``generate``, ``analyze`` (to ``--out`` and to stdout), ``analyze --tol
  1e-18`` and ``reconstruct --random 3`` of one spec per flavor and shape
  (n, d, m) in (1, 1, 1), (3, 2, 3), (8, 4, 16), (8, 8, 32).  The two
  ``analyze`` runs reuse the scenario ``generate`` wrote, so comparing
  with a checkout that builds it from the file checks that reuse;
* ``generate``, ``analyze`` and ``reconstruct --random 3`` of one commuting
  (8, 8, 128) spec, whose 6.5 MB file holds more brackets than orjson can
  nest, at a depth of 5;
* ``generate`` of the commuting and the bessel_only (3, 2, 3) specs at each
  ``spectrum_range`` of ``SPECTRUM_ENDS``, each to its own ``--out`` file,
  so the emitter's exponent forms at both ends of the doubles are
  compared;
* the JSON reader's edge corpus: each of ``EDGE_TOKENS`` in place of the
  first weight of the commuting (3, 2, 3) scenario, through ``analyze`` and
  ``reconstruct --random 3``, and in place of a spec's seed and of its upper
  spectrum bound, through ``generate --spec FILE``; the same files with a
  byte order mark in front, with a trailing comma before the closing brace
  and cut short after the seed.  Each spec text also goes inline, through
  ``generate --spec TEXT``.  The files are written under ``OUT/edge/``;
* the byte-level edge corpus, through ``analyze`` and ``reconstruct
  --random 3``: the commuting (3, 2, 3) scenario with one byte that is not
  UTF-8, with a syntax error on line 3 and CRLF or CR-only line ends, and
  with a byte order mark and CRLF line ends; and the commuting (8, 4, 16)
  scenario, over 131,072 bytes, with ``true`` as the first entry of the
  first point's ``lambda`` and -1 as the last point's weight.  These files
  are written under ``OUT/edge/`` too;
* ``analyze`` and ``reconstruct --random 3`` of a scenario whose controls
  lie below the generators' spectrum floor: the commuting (2, 2, 4) seed-0
  spec at spectrum [1e-150, 2e-150], generated, with ``C`` and ``Cprime``
  then multiplied by 1e-5 in the file (written as ``below_floor.json``), so
  that the controlled operator's entries are subnormal;
* the argument edge corpus: ``reconstruct --random`` with seeds -1 and
  2**64, and ``analyze``, ``generate`` and ``verify --batch`` of one spec
  with ``--out`` in a directory that does not exist;
* the re-read corpus: the commuting (8, 4, 16) and the bessel_only
  (3, 2, 3) scenarios, each through ``analyze``, ``reconstruct --random
  3`` twice, ``analyze --tol 1e-18``, ``reconstruct --random 3`` and
  ``analyze`` again, every output to its own ``--out`` file, and then
  ``generate`` of the same spec to a new file and ``reconstruct --random
  3`` of that file.  A process keeps the last scenario file it read or
  generated, so the first ``analyze`` builds its scenario and the two
  ``reconstruct`` runs after it reuse it, while the ``reconstruct`` after
  ``--tol 1e-18`` builds it again, the last ``analyze`` reuses that build
  and the last ``reconstruct`` reuses the scenario ``generate`` wrote:
  each repeated run is in ``SAME_REPORTS`` with its first run, the last
  ``reconstruct`` with the one after ``--tol 1e-18`` and the second
  ``generate`` with the first, so a reused scenario must give the bytes
  of a fresh read;
* the sub-unit corpus, whose norms lie below 1, so a rule that turns
  absolute below unit scale shows: ``reconstruct --vector`` of one vector,
  drawn by ``np.random.default_rng(SUB_UNIT_SEED)``, at each scale of
  ``SUB_UNIT_SCALES`` against the commuting (3, 2, 3) scenario, and
  ``analyze`` of that scenario with every point action multiplied by
  ``SUB_UNIT_ACTION_SCALE`` in the file.  The files are written under
  ``OUT/sub_unit/``; the vector files, written by ``ser.dumps`` of
  ``ser.vector_to_obj``, compare the emitter's vector path too;
* the library verdict corpus, called in-process, not through the CLI:
  ``is_positive``, ``loewner_leq``, ``energy_bound_check``,
  ``gram_sandwich_check`` and ``check_sandwich`` on ``LIBRARY_CASES``
  cases each, drawn by ``np.random.default_rng(LIBRARY_SEED)``, and
  ``make_positive_invertible`` on near-Hermitian controls and
  ``is_surjective`` on operators with a small smallest singular value,
  ``LIBRARY_CASES`` each, drawn by their own
  ``np.random.default_rng(CERTIFICATE_SEED)``, and ``decide_commutation``
  on generated families under their own pair or a dense pair (C, C^2),
  ``LIBRARY_CASES`` of them, drawn by
  ``np.random.default_rng(COMMUTATION_SEED)``, all at scales 10**k for k in
  [-8, 8] (see ``library_corpus``), each at the tolerances
  ``LIBRARY_TOLS``.  ``OUT/library/verdicts.txt`` holds one ``predicate
  tol index verdict`` line per case and tolerance, the verdict being
  ``True``, ``False`` or the class name of the exception raised (a control
  that ``make_positive_invertible`` certifies reads ``True``), so the diff
  of two sweeps lists every library verdict that moves.

Each command writes ``OUT/NAME/``: ``stdout``, ``stderr``, ``exit`` and the
file it was given with ``--out``; a command that raises records the
exception's type in ``exit``.  Paths are relative to ``OUT``, so no
output names the directory.  The sweep exits 1, naming them, when two
runs whose outputs must be byte-identical differ (``SAME_REPORTS``).
``OUT/environment`` records the BLAS thread variables, which the sweep does
not set: a threaded LAPACK SVD may move the last bit of a spectral norm, so
compare two sweeps run under the same setting, as in

    python3 tools/byte_sweep.py /tmp/before    # in the parent checkout
    python3 tools/byte_sweep.py /tmp/after     # in the changed checkout
    diff -r /tmp/before /tmp/after
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gframes import (AlgebraElement, GeneratorSpec, GFrameFamily,  # noqa: E402
                     MeasurePoint, ModuleOperator, ModuleVector,
                     PositiveInvertibleOperator, check_sandwich,
                     decide_commutation, energy_bound_check, frame_operator,
                     generate, gram_sandwich_check, is_positive,
                     is_surjective, loewner_leq, make_positive_invertible)
from gframes import serialization as ser  # noqa: E402
from gframes.cli import main  # noqa: E402
from gframes.verifier import default_batch  # noqa: E402

FLAVORS = ("generic", "commuting", "parseval", "bessel_only")
SHAPES = ((1, 1, 1), (3, 2, 3), (8, 4, 16), (8, 8, 32))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

LADDER_BATCH = [{"seed": 900 + 4 * j + i, "n": 8, "d": d, "m": m,
                 "dw_range": [2, 2], "flavor": fl}
                for j, (d, m) in enumerate(((4, 16), (8, 32)))
                for i, fl in enumerate(FLAVORS)]

MIXED_BATCH = [{"seed": 970 + 4 * j + i, "n": n, "d": d, "m": m,
                "dw_range": [1, 3], "flavor": fl}
               for j, (n, d, m) in enumerate(((3, 3, 5), (8, 2, 6)))
               for i, fl in enumerate(FLAVORS)]

SHAPE_ORDER_BATCH = [{"seed": seed, "n": n, "d": d, "m": m,
                      "dw_range": [2, 2] if n == 8 else [1, 3],
                      "flavor": FLAVORS[i % len(FLAVORS)]}
                     for i, (seed, (n, d, m)) in enumerate((
                         (980, (2, 2, 4)), (981, (8, 4, 16)), (982, (1, 1, 1)),
                         (983, (2, 2, 4)), (984, (8, 4, 16)), (985, (3, 2, 3)),
                         (985, (1, 1, 1)), (986, (8, 4, 16)), (987, (2, 2, 4)),
                         (988, (8, 4, 16)), (989, (3, 2, 3))))]

MIXED_M_BATCH = [{"seed": 990 + i, "n": 2, "d": 2, "m": m, "dw_range": [1, 3],
                  "flavor": fl}
                 for i, (m, fl) in enumerate(
                     (m, fl) for m in range(1, 7) for fl in FLAVORS
                     if fl != "parseval" or m >= 2)]

# The verify runs, in order: each batch's name, its specs (None for
# ``--default``), written to ``NAME.json``, and its tolerances (None for the
# default), each run as ``verify_NAME_TOL``.
VERIFY_BATCHES = (
    ("default", None, (None, "1e-14", "1e-18")),
    ("default_reversed", [ser.spec_to_obj(s) for s in default_batch()[::-1]],
     (None, "1e-18")),
    ("ladder", LADDER_BATCH, (None, "1e-18")),
    ("mixed", MIXED_BATCH, (None, "1e-18")),
    ("mixed_reversed", MIXED_BATCH[::-1], ("1e-18",)),
    ("shape_order", SHAPE_ORDER_BATCH, (None, "1e-18")),
    ("mixed_m", MIXED_M_BATCH, (None, "1e-18")),
)

# The scenarios of the re-read corpus, by flavor and shape.
REREAD_SCENARIOS = (("commuting", (8, 4, 16)), ("bessel_only", (3, 2, 3)))
REREAD_TAGS = tuple(f"{fl}_{n}x{d}x{m}" for fl, (n, d, m) in REREAD_SCENARIOS)

# The re-read corpus's commands on one scenario, each run as
# ``reread_TAG_NAME``.
REREAD_COMMANDS = (
    ("analyze", ["analyze"]),
    ("reconstruct", ["reconstruct", "--random", "3"]),
    ("reconstruct_again", ["reconstruct", "--random", "3"]),
    ("analyze_1e-18", ["analyze", "--tol", "1e-18"]),
    ("reconstruct_after_1e-18", ["reconstruct", "--random", "3"]),
    ("analyze_again", ["analyze"]),
)

# Runs whose outputs must be byte-identical: the verifier folds a batch's
# outcomes back in batch order, so a reversed batch gives the forward
# report, a scenario the process kept or wrote gives the output of a fresh
# read, and equal specs give equal scenario files.
SAME_REPORTS = (("verify_default_tol", "verify_default_reversed_tol"),
                ("verify_default_1e-18", "verify_default_reversed_1e-18"),
                ("verify_mixed_1e-18", "verify_mixed_reversed_1e-18"),
                *((f"reread_{tag}_{first}", f"reread_{tag}_{again}")
                  for tag in REREAD_TAGS
                  for first, again in (("reconstruct", "reconstruct_again"),
                                       ("reconstruct", "reconstruct_after_1e-18"),
                                       ("analyze", "analyze_again"),
                                       ("reconstruct_after_1e-18",
                                        "reconstruct_after_generate"))),
                *((f"generate_{tag}", f"reread_{tag}_generate") for tag in REREAD_TAGS))

# Number and string tokens the JSON reader must take exactly as ``json``
# does: tokens only ``json`` accepts, numbers at the edges of the doubles and
# of the 64-bit integers, and text a strict parser refuses.
EDGE_TOKENS = {
    "nan": "NaN", "infinity": "Infinity", "minus_infinity": "-Infinity",
    "overflow": "1e400", "huge_int": "1" + "0" * 400,
    "long_int": "1" + "0" * 5000, "lone_surrogate": '"\\ud800"',
    "minus_zero_int": "-0", "minus_zero": "-0.0", "underflow": "1e-400",
    "subnormal": "5e-324", "min_normal": "2.2250738585072011e-308",
    "max_double": "1.7976931348623157e308",
    "digits_40": "1.234567890123456789012345678901234567891",
    "uint64_max": "18446744073709551615", "uint64_over": "18446744073709551616",
    "int64_under": "-9223372036854775809",
}


# The ``spectrum_range`` values the commuting and bessel_only (3, 2, 3)
# specs are generated at: controls of norm 1e150, and controls whose
# spectrum spans the doubles from 1e-150 to 1e150.
SPECTRUM_ENDS = ((1e150, 1e150), (1e-150, 1e150))

# The sub-unit corpus: the scales of its one vector, the seed of the
# ``default_rng`` that draws that vector, and the factor of the point
# actions of its scaled scenario.
SUB_UNIT_SCALES = ("1", "1e-6", "1e-12")
SUB_UNIT_SEED = 34
SUB_UNIT_ACTION_SCALE = 1e-8

# The library verdict corpus: cases per predicate, the tolerances each case
# is decided at, the seed of the ``default_rng`` that draws the order cases,
# the seed of the one that draws the control and surjectivity cases and the
# seed of the one that draws the commutation cases, so adding a later draw
# left the draws of the earlier ones alone.
LIBRARY_CASES = 300
LIBRARY_TOLS = (1e-9, 1e-14, 1e-16)
LIBRARY_SEED = 31
CERTIFICATE_SEED = 32
COMMUTATION_SEED = 33

# The predicates of the corpus, each called on one case's arguments and a tol.
LIBRARY_PREDICATES = (is_positive, loewner_leq, energy_bound_check,
                      gram_sandwich_check, check_sandwich,
                      make_positive_invertible, is_surjective,
                      decide_commutation)


def shape_spec(flavor: str, shape, **extra) -> str:
    """The spec text of the per-flavor-and-shape corpus, with the ``extra``
    fields."""
    n, d, m = shape
    return json.dumps({"seed": 950 + 4 * SHAPES.index(shape) + FLAVORS.index(flavor),
                       "n": n, "d": d, "m": m, "flavor": flavor, **extra})


def run(name: str, args: list, out: str | None = None) -> None:
    """Run one command, with ``--out NAME/OUT`` when ``out`` is given, and
    keep its stdout, stderr and exit code under ``NAME``."""
    os.makedirs(name)
    if out is not None:
        args = args + ["--out", f"{name}/{out}"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(args)
        except Exception as exc:
            code = f"raised {type(exc).__name__}"
    for fname, text in (("stdout", stdout.getvalue()),
                        ("stderr", stderr.getvalue()), ("exit", f"{code}\n")):
        Path(name, fname).write_text(text, encoding="utf-8")


def sweep() -> None:
    for name, specs, tols in VERIFY_BATCHES:
        if specs is None:
            args = ["verify", "--default"]
        else:
            Path(f"{name}.json").write_text(json.dumps(specs), encoding="utf-8")
            args = ["verify", "--batch", f"{name}.json"]
        for tol in tols:
            run(f"verify_{name}_{tol or 'tol'}",
                args + (["--tol", tol] if tol else []), "report.json")
    for n, d, m in SHAPES:
        for fl in FLAVORS:
            tag = f"{fl}_{n}x{d}x{m}"
            spec = shape_spec(fl, (n, d, m))
            run(f"generate_{tag}", ["generate", "--spec", spec], "scenario.json")
            scen = f"generate_{tag}/scenario.json"
            run(f"analyze_{tag}", ["analyze", scen], "report.json")
            run(f"analyze_stdout_{tag}", ["analyze", scen])
            run(f"analyze_1e-18_{tag}", ["analyze", scen, "--tol", "1e-18"], "report.json")
            run(f"reconstruct_{tag}", ["reconstruct", scen, "--random", "3"])
    spec = json.dumps({"seed": 966, "n": 8, "d": 8, "m": 128, "flavor": "commuting"})
    run("generate_commuting_8x8x128", ["generate", "--spec", spec], "scenario.json")
    scen = "generate_commuting_8x8x128/scenario.json"
    run("analyze_commuting_8x8x128", ["analyze", scen], "report.json")
    run("reconstruct_commuting_8x8x128", ["reconstruct", scen, "--random", "3"])
    for fl in ("commuting", "bessel_only"):
        for lo, hi in SPECTRUM_ENDS:
            run(f"generate_{fl}_3x2x3_spectrum_{lo!r}_{hi!r}",
                ["generate", "--spec", shape_spec(fl, (3, 2, 3),
                                                  spectrum_range=[lo, hi])],
                "scenario.json")
    small = Path("generate_commuting_3x2x3/scenario.json").read_text(encoding="utf-8")
    edge_sweep(small)
    byte_edge_sweep(small, Path("generate_commuting_8x4x16/scenario.json").read_text(
        encoding="utf-8"))
    below_floor_sweep()
    reread_sweep()
    argument_edge_sweep("generate_commuting_3x2x3/scenario.json")
    sub_unit_sweep("generate_commuting_3x2x3/scenario.json")
    library_sweep()


def _normal(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.linalg.qr(_normal(rng, (n, n)))[0]


def _near_psd(rng: np.random.Generator, n: int, s: float) -> np.ndarray:
    """An n x n matrix of norm about ``s`` on the edge of positivity: its
    smallest eigenvalue, and for half of them its anti-Hermitian part, lie
    within a factor 2 of 10**-j * lam_max for j in {9, 14, 16}, lam_max
    being the largest eigenvalue drawn, about ``s``.  So they sit at the
    relative threshold at every scale."""
    q = _unitary(rng, n)
    lam = s * rng.uniform(0.5, 2.0, n)
    edge = 10.0 ** -int(rng.choice((9, 14, 16))) * lam.max()
    lam[0] = -rng.uniform(-1.0, 2.0) * edge
    m = (q * lam) @ q.conj().T
    if rng.random() < 0.5:
        e = _normal(rng, (n, n))
        e = e - e.conj().T
        m = m + rng.uniform(0.0, 2.0) * edge * e / np.linalg.norm(e, 2)
    return m


def _near_hermitian(rng: np.random.Generator, n: int, s: float) -> np.ndarray:
    """A positive definite n x n matrix with eigenvalues in s * [0.5, 2] plus
    an anti-Hermitian part of norm within a factor 2 of 10**-j * s, for j in
    {9, 14, 16}."""
    q = _unitary(rng, n)
    m = (q * (s * rng.uniform(0.5, 2.0, n))) @ q.conj().T
    e = _normal(rng, (n, n))
    e = e - e.conj().T
    edge = 10.0 ** -int(rng.choice((9, 14, 16))) * s
    return m + rng.uniform(0.5, 2.0) * edge * e / np.linalg.norm(e, 2)


def _near_deficient(rng: np.random.Generator, rows: int, cols: int,
                    s: float) -> np.ndarray:
    """A rows x cols matrix with singular values in s * [0.5, 2] but the
    smallest, which lies within a factor 2 of 10**-j * s for j in {9, 14, 16}."""
    r = min(rows, cols)
    sv = s * rng.uniform(0.5, 2.0, r)
    sv[-1] = 10.0 ** -int(rng.choice((9, 14, 16))) * s * rng.uniform(0.5, 2.0)
    return (_unitary(rng, rows)[:, :r] * sv) @ _unitary(rng, cols)[:, :r].conj().T


def _dense_pair(rng: np.random.Generator, n: int, d: int) -> tuple:
    """C = A A^H + I scaled to norm 2, and C^2: a pair that commutes to
    roundoff, though C commutes with no generic gram term unless n = d = 1."""
    a = _normal(rng, (d * n, d * n))
    m = a @ a.conj().T + np.eye(d * n)
    m *= 2 / np.linalg.norm(m, 2)
    return tuple(make_positive_invertible(ModuleOperator(n, d, d, x)) for x in (m, m @ m))


def _scaled_family(family: GFrameFamily, s: float) -> GFrameFamily:
    """``family`` with every point action times ``s``."""
    n, d = family.algebra_dim, family.module_rank
    return GFrameFamily(n, d, tuple(
        MeasurePoint(p.weight, ModuleOperator(n, d, p.codomain_rank, s * p.lam.action))
        for p in family.points))


def library_corpus() -> dict:
    """``LIBRARY_CASES`` argument tuples per predicate of
    ``LIBRARY_PREDICATES``, keyed by its name, each at a scale 10**k, k in
    [-8, 8]: elements on the edge of positivity; pairs of an indefinite
    Hermitian element and its sum with such a matrix, at independent
    scales; operators with n, d, e <= 3, and vectors; operators with
    e <= d; and families of up to three weighted points with n, d <= 2,
    with the extreme eigenvalues of their frame operators as bounds, two
    samples and the case index as seed.  Then, from a generator seeded with
    ``CERTIFICATE_SEED``: near-Hermitian controls and operators on the edge
    of surjectivity, with n, d, e <= 3.  Then, from a generator seeded with
    ``COMMUTATION_SEED``: generated families of every flavor with n, d <= 3
    and m <= 4, each scaled and under its own pair or, for half of them, a
    ``_dense_pair``."""
    rng = np.random.default_rng(LIBRARY_SEED)

    def scale() -> float:
        return 10.0 ** int(rng.integers(-8, 9))

    def operator(n: int, d: int, e: int) -> ModuleOperator:
        return ModuleOperator(n, d, e, scale() * _normal(rng, (d * n, e * n)))

    corpus = {f.__name__: [] for f in LIBRARY_PREDICATES}
    for i in range(LIBRARY_CASES):
        n, d = (int(v) for v in rng.integers(1, 4, 2))
        corpus["is_positive"].append((AlgebraElement(_near_psd(rng, n, scale())),))
        h = _normal(rng, (n, n))
        a = scale() * (h + h.conj().T) / 2
        corpus["loewner_leq"].append((AlgebraElement(a),
                                      AlgebraElement(a + _near_psd(rng, n, scale()))))
        x = ModuleVector(n, d, _normal(rng, (n, d * n)))
        corpus["energy_bound_check"].append(
            (operator(n, d, int(rng.integers(1, 4))), x))
        corpus["gram_sandwich_check"].append(
            (operator(n, d, int(rng.integers(1, d + 1))),))
        n, d = (int(v) for v in rng.integers(1, 3, 2))
        fam = GFrameFamily(n, d, tuple(
            MeasurePoint(rng.uniform(0.5, 2.0), operator(n, d, int(rng.integers(1, d + 1))))
            for _ in range(int(rng.integers(1, 4)))))
        w = np.linalg.eigvalsh(frame_operator(fam).action)
        corpus["check_sandwich"].append((fam, float(w[0]), float(w[-1]), 2, i))
    rng = np.random.default_rng(CERTIFICATE_SEED)
    for _ in range(LIBRARY_CASES):
        n, d, e = (int(v) for v in rng.integers(1, 4, 3))
        corpus["make_positive_invertible"].append(
            (ModuleOperator(n, d, d, _near_hermitian(rng, d * n, scale())),))
        corpus["is_surjective"].append(
            (ModuleOperator(n, d, e, _near_deficient(rng, d * n, e * n, scale())),))
    rng = np.random.default_rng(COMMUTATION_SEED)
    for _ in range(LIBRARY_CASES):
        flavor = FLAVORS[int(rng.integers(len(FLAVORS)))]
        n, d = (int(v) for v in rng.integers(1, 4, 2))
        m = int(rng.integers(d if flavor == "parseval" else 1, 5))
        sc = generate(GeneratorSpec(seed=int(rng.integers(2**32)), n=n, d=d, m=m,
                                    flavor=flavor))
        pair = (sc.pair.c, sc.pair.cp) if rng.random() < 0.5 else _dense_pair(rng, n, d)
        corpus["decide_commutation"].append((_scaled_family(sc.family, scale()), *pair))
    return corpus


def library_sweep() -> None:
    """Write ``library/verdicts.txt``: one ``predicate tol index verdict``
    line per case of ``library_corpus``, the verdict being ``True``,
    ``False`` or the class name of the exception raised; a certified
    control counts as ``True``."""
    lines = []
    corpus = library_corpus()
    for f in LIBRARY_PREDICATES:
        for tol in LIBRARY_TOLS:
            for i, args in enumerate(corpus[f.__name__]):
                try:
                    verdict = f(*args, tol)
                except Exception as exc:
                    verdict = type(exc).__name__
                if isinstance(verdict, PositiveInvertibleOperator):
                    verdict = True
                lines.append(f"{f.__name__} {tol!r} {i} {verdict}\n")
    Path("library").mkdir()
    Path("library/verdicts.txt").write_text("".join(lines), encoding="utf-8")


def below_floor_sweep() -> None:
    """Run ``analyze`` and ``reconstruct`` on a scenario whose controls,
    and so the entries of its controlled operator, lie below what the
    generators emit."""
    spec = json.dumps({"seed": 0, "n": 2, "d": 2, "m": 4, "flavor": "commuting",
                       "spectrum_range": [1e-150, 2e-150]})
    run("generate_below_floor", ["generate", "--spec", spec], "scenario.json")
    obj = json.loads(Path("generate_below_floor/scenario.json").read_text(encoding="utf-8"))
    for key in ("C", "Cprime"):
        obj[key] = (np.array(obj[key]) * 1e-5).tolist()
    Path("below_floor.json").write_text(json.dumps(obj), encoding="utf-8")
    run("analyze_below_floor", ["analyze", "below_floor.json"], "report.json")
    run("reconstruct_below_floor", ["reconstruct", "below_floor.json", "--random", "3"])


def sub_unit_sweep(scenario: str) -> None:
    """Run ``reconstruct --vector`` of one vector at each scale of
    ``SUB_UNIT_SCALES`` against ``scenario``, and ``analyze`` of
    ``scenario`` with its point actions times ``SUB_UNIT_ACTION_SCALE``."""
    Path("sub_unit").mkdir()
    obj = json.loads(Path(scenario).read_text(encoding="utf-8"))
    n, d = obj["n"], obj["d"]
    x = _normal(np.random.default_rng(SUB_UNIT_SEED), (n, d * n))
    for s in SUB_UNIT_SCALES:
        path = f"sub_unit/vector_{s}.json"
        Path(path).write_text(ser.dumps(ser.vector_to_obj(
            ModuleVector(n, d, float(s) * x))), encoding="utf-8")
        run(f"sub_unit_reconstruct_{s}", ["reconstruct", scenario, "--vector", path],
            "report.json")
    for p in obj["points"]:
        p["lambda"] = (np.array(p["lambda"]) * SUB_UNIT_ACTION_SCALE).tolist()
    scaled = f"sub_unit/scenario_{SUB_UNIT_ACTION_SCALE!r}.json"
    Path(scaled).write_text(json.dumps(obj), encoding="utf-8")
    run("sub_unit_analyze", ["analyze", scaled], "report.json")


def reread_sweep() -> None:
    """Run ``REREAD_COMMANDS`` in turn on each scenario of
    ``REREAD_SCENARIOS``, then generate it again and reconstruct from the
    new file."""
    for (fl, shape), tag in zip(REREAD_SCENARIOS, REREAD_TAGS):
        scen = f"generate_{tag}/scenario.json"
        for name, (command, *flags) in REREAD_COMMANDS:
            run(f"reread_{tag}_{name}", [command, scen, *flags], "report.json")
        run(f"reread_{tag}_generate", ["generate", "--spec", shape_spec(fl, shape)],
            "scenario.json")
        run(f"reread_{tag}_reconstruct_after_generate",
            ["reconstruct", f"reread_{tag}_generate/scenario.json", "--random", "3"],
            "report.json")


def same_outputs(a: str, b: str) -> bool:
    """Whether runs ``a`` and ``b`` wrote the same files with the same bytes."""
    names = sorted(p.name for p in Path(a).iterdir())
    return (names == sorted(p.name for p in Path(b).iterdir())
            and all(Path(a, n).read_bytes() == Path(b, n).read_bytes() for n in names))


def argument_edge_sweep(scenario: str) -> None:
    """Run the commands on arguments they must refuse: seeds outside 64 bits
    and an ``--out`` path whose directory is missing."""
    for seed in ("-1", str(1 << 64)):
        run(f"arg_reconstruct_random_{seed}", ["reconstruct", scenario, "--random", seed])
    run("arg_analyze_out_missing_dir", ["analyze", scenario], "missing/report.json")
    run("arg_generate_out_missing_dir",
        ["generate", "--spec", '{"seed": 1, "n": 1, "d": 1, "m": 1}'],
        "missing/scenario.json")
    Path("one_spec.json").write_text(json.dumps(MIXED_BATCH[:1]), encoding="utf-8")
    run("arg_verify_out_missing_dir", ["verify", "--batch", "one_spec.json"],
        "missing/report.json")


def edge_sweep(scenario: str) -> None:
    """Run the edge corpus on variants of the text of ``scenario``."""
    spec = ('{"seed": %s, "n": 2, "d": 2, "m": 4, "spectrum_range": [1, %s], '
            '"flavor": "commuting"}')
    scenarios = {key: re.sub(r'"weight": [^,]*', lambda _: f'"weight": {token}',
                             scenario, count=1)
                 for key, token in EDGE_TOKENS.items()}
    specs = {f"{field}_{key}": spec % values
             for key, token in EDGE_TOKENS.items()
             for field, values in (("seed", (token, 2)), ("spectrum", (1, token)))}
    for texts, base in ((scenarios, scenario), (specs, spec % (1, 2))):
        texts["bom"] = "\ufeff" + base
        texts["trailing_comma"] = re.sub(r"\s*}\s*$", ",}\n", base)
    specs["cut_short"] = spec.partition(",")[0] % 1
    Path("edge").mkdir()
    for kind, texts in (("scenario", scenarios), ("spec", specs)):
        for key, text in texts.items():
            path = f"edge/{kind}_{key}.json"
            Path(path).write_text(text, encoding="utf-8")
            if kind == "scenario":
                run(f"edge_analyze_{key}", ["analyze", path])
                run(f"edge_reconstruct_{key}", ["reconstruct", path, "--random", "3"])
            else:
                run(f"edge_generate_{key}", ["generate", "--spec", path])
                run(f"edge_generate_inline_{key}", ["generate", "--spec", text])


def byte_edge_sweep(small: str, large: str) -> None:
    """Run the byte-level edge corpus on variants of the scenario texts
    ``small`` and ``large``: files whose bytes and text-mode text differ,
    and a file with two schema errors far apart."""
    # '"n": 3,' is line 3 of every emitted scenario
    broken = small.replace('"n": ', '"n" ', 1)
    head, _, tail = re.sub(r'("lambda": \[\[)[^,]*', r"\1true", large,
                           count=1).rpartition('"weight": ')
    files = {
        "not_utf8": small.encode("utf-8").replace(b"\n", b"\n\xff", 1),
        "crlf_syntax_error": broken.replace("\n", "\r\n").encode("utf-8"),
        "cr_syntax_error": broken.replace("\n", "\r").encode("utf-8"),
        "bom_crlf": ("\ufeff" + small.replace("\n", "\r\n")).encode("utf-8"),
        "large_two_errors": (head + '"weight": '
                             + re.sub(r"^[^,]*", "-1", tail, count=1)).encode("utf-8"),
    }
    for key, data in files.items():
        path = f"edge/scenario_{key}.json"
        Path(path).write_bytes(data)
        run(f"edge_analyze_{key}", ["analyze", path])
        run(f"edge_reconstruct_{key}", ["reconstruct", path, "--random", "3"])


def record_environment() -> None:
    lines = [f"{v}={os.environ.get(v, '(unset)')}" for v in BLAS_THREAD_VARS]
    lines.append(f"numpy={np.__version__}")
    Path("environment").write_text("\n".join(lines) + "\n", encoding="utf-8")


def cli() -> int:
    if len(sys.argv) != 2:
        sys.stderr.write(__doc__)
        return 1
    if os.environ.get("GFRAME_TOL"):
        sys.stderr.write("byte_sweep: unset GFRAME_TOL, which changes the "
                         "default tolerance of every command\n")
        return 1
    out = Path(sys.argv[1])
    out.mkdir(parents=True)
    os.chdir(out)
    record_environment()
    sweep()
    differ = [(a, b) for a, b in SAME_REPORTS if not same_outputs(a, b)]
    for a, b in differ:
        sys.stderr.write(f"byte_sweep: the outputs of {a} and {b} differ\n")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(cli())
