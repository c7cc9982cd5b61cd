"""Write the CLI output of a fixed corpus to a directory, so that two
checkouts can be compared byte for byte.

    python3 tools/byte_sweep.py OUT

Imports ``gframes`` from the ``src/`` directory of the checkout that holds
this script and runs ``gframes.cli.main`` in-process on:

* ``verify --default`` at the default tolerance, 1e-14 and 1e-18;
* ``verify --batch`` of the 8 verify-ladder specs (seeds 900-907, n = 8,
  (d, m) in {(4, 16), (8, 32)}, dw 2, every flavor) at the default
  tolerance and 1e-18;
* ``verify --batch`` of 8 mixed-size specs (seeds 970-977, (n, d, m) in
  {(3, 3, 5), (8, 2, 6)}, dw_range [1, 3], every flavor), whose bases and
  codomain unitaries share size stacks across specs and across roles;
* ``generate``, ``analyze`` (to ``--out`` and to stdout), ``analyze --tol
  1e-18`` and ``reconstruct --random 3`` of one spec per flavor and shape
  (n, d, m) in (1, 1, 1), (3, 2, 3), (8, 4, 16), (8, 8, 32);
* the JSON reader's edge corpus: each of ``EDGE_TOKENS`` in place of the
  first weight of the commuting (3, 2, 3) scenario, through ``analyze`` and
  ``reconstruct --random 3``, and in place of a spec's seed and of its upper
  spectrum bound, through ``generate --spec FILE``; the same files with a
  byte order mark in front and with a trailing comma before the closing
  brace.  The files are written under ``OUT/edge/``;
* the byte-level edge corpus, through ``analyze`` and ``reconstruct
  --random 3``: the commuting (3, 2, 3) scenario with one byte that is not
  UTF-8, with a syntax error on line 3 and CRLF or CR-only line ends, and
  with a byte order mark and CRLF line ends; and the commuting (8, 4, 16)
  scenario, over 131,072 bytes, with ``true`` as the first entry of the
  first point's ``lambda`` and -1 as the last point's weight.  These files
  are written under ``OUT/edge/`` too.

Each command writes ``OUT/NAME/``: ``stdout``, ``stderr``, ``exit`` and the
file it was given with ``--out``.  Paths are relative to ``OUT``, so no
output names the directory.  ``OUT/environment`` records the BLAS thread
variables, which the sweep does not set: a threaded GEMM may split an inner
sum differently, so compare two sweeps run under the same setting, as in

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

from gframes.cli import main  # noqa: E402

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


def run(name: str, args: list, out: str | None = None) -> None:
    """Run one command, with ``--out NAME/OUT`` when ``out`` is given, and
    keep its stdout, stderr and exit code under ``NAME``."""
    os.makedirs(name)
    if out is not None:
        args = args + ["--out", f"{name}/{out}"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(args)
    for fname, text in (("stdout", stdout.getvalue()),
                        ("stderr", stderr.getvalue()), ("exit", f"{code}\n")):
        Path(name, fname).write_text(text, encoding="utf-8")


def sweep() -> None:
    for tol in (None, "1e-14", "1e-18"):
        run(f"verify_default_{tol or 'tol'}",
            ["verify", "--default"] + (["--tol", tol] if tol else []), "report.json")
    Path("ladder.json").write_text(json.dumps(LADDER_BATCH), encoding="utf-8")
    for tol in (None, "1e-18"):
        run(f"verify_ladder_{tol or 'tol'}",
            ["verify", "--batch", "ladder.json"] + (["--tol", tol] if tol else []),
            "report.json")
    Path("mixed.json").write_text(json.dumps(MIXED_BATCH), encoding="utf-8")
    run("verify_mixed_tol", ["verify", "--batch", "mixed.json"], "report.json")
    for j, (n, d, m) in enumerate(SHAPES):
        for i, fl in enumerate(FLAVORS):
            tag = f"{fl}_{n}x{d}x{m}"
            spec = json.dumps({"seed": 950 + 4 * j + i, "n": n, "d": d, "m": m,
                               "flavor": fl})
            run(f"generate_{tag}", ["generate", "--spec", spec], "scenario.json")
            scen = f"generate_{tag}/scenario.json"
            run(f"analyze_{tag}", ["analyze", scen], "report.json")
            run(f"analyze_stdout_{tag}", ["analyze", scen])
            run(f"analyze_1e-18_{tag}", ["analyze", scen, "--tol", "1e-18"], "report.json")
            run(f"reconstruct_{tag}", ["reconstruct", scen, "--random", "3"])
    small = Path("generate_commuting_3x2x3/scenario.json").read_text(encoding="utf-8")
    edge_sweep(small)
    byte_edge_sweep(small, Path("generate_commuting_8x4x16/scenario.json").read_text(
        encoding="utf-8"))


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
    return 0


if __name__ == "__main__":
    raise SystemExit(cli())
