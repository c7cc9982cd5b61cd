"""Command line front end.

Exit codes: 0 success (and, for ``analyze``, the family is a frame),
2 analyzed family fails the frame condition, 3 a verification or
reconstruction check failed, 1 usage, schema, or data errors.

``GFRAME_TOL`` in the environment supplies a default for ``--tol``.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys

import numpy as np
import orjson

from . import serialization as ser
from .controlled import (ADJOINT_TOL, NORM_BOUND_TOL, controlled_classify,
                         reconstruct)
from .errors import GFrameError, NotAFrame, SchemaError
from .frames import FRAME, FrameVerdict, classify
from .generators import generate
from .module_space import ModuleVector, vec_norm
from .rng import complex_normal, stream
from .algebra import DEFAULT_TOL
from .verifier import SCALAR_TIGHT_TOL, default_batch, run_suite, suite_passed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_FRAME = 2
EXIT_CHECK_FAILED = 3

# Default acceptance tolerance of reconstruct: the relative error may reach
# this times the condition number.
RECONSTRUCT_TOL = 1e-8


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; this tool reserves 2 for "not a frame"
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first ``main`` call and then kept:
    parsing leaves it unchanged."""
    p = _Parser(prog="gframes",
                description="Analyze, generate and verify controlled "
                            "operator-valued frames over matrix algebras.")
    sub = p.add_subparsers(dest="command", metavar="COMMAND")

    pa = sub.add_parser("analyze", help="classify a scenario file and report bounds")
    pa.add_argument("path", help="scenario JSON file")
    pa.add_argument("--tol", type=float, default=None,
                    help="relative spectral tolerance: a frame when "
                         "lambda_min > tol * lambda_max (default 1e-9)")
    pa.add_argument("--out", default=None, help="write the report here instead of stdout")

    pv = sub.add_parser("verify", help="run the randomized property suite")
    pv.add_argument("--batch", default=None,
                    help="JSON file with a list of generator specs")
    pv.add_argument("--default", action="store_true",
                    help="use the built-in batch (the default when --batch is absent)")
    pv.add_argument("--tol", type=float, default=None, help="check tolerance")
    pv.add_argument("--out", default=None, help="write the report here instead of stdout")

    pg = sub.add_parser("generate", help="generate a scenario from a spec")
    pg.add_argument("--spec", required=True,
                    help="generator spec: a JSON file path or an inline JSON object")
    pg.add_argument("--out", default=None, help="write the scenario here instead of stdout")

    pr = sub.add_parser("reconstruct",
                        help="round-trip a vector through analysis and synthesis")
    pr.add_argument("path", help="scenario JSON file")
    src = pr.add_mutually_exclusive_group(required=True)
    src.add_argument("--vector", default=None, help="JSON file with the input vector")
    src.add_argument("--random", type=int, default=None, metavar="SEED",
                     help="draw the input vector from this seed")
    pr.add_argument("--tol", type=float, default=None,
                    help="acceptance tolerance for the relative error")
    pr.add_argument("--out", default=None, help="write the report here instead of stdout")
    return p


def _resolve_tol(arg_tol: float | None, default: float) -> float:
    """``--tol`` if given, else ``GFRAME_TOL`` if set, else the command's
    ``default``.  Either source must give a finite number in (0, 1)."""
    if arg_tol is not None:
        source, value = "--tol", arg_tol
    else:
        raw = os.environ.get("GFRAME_TOL")
        if not raw:
            return default
        source = "GFRAME_TOL"
        try:
            value = float(raw)
        except ValueError:
            raise GFrameError(f"GFRAME_TOL is not a number: {raw!r}")
    # NaN fails both comparisons and infinity fails the upper one
    if not 0 < value < 1:
        raise GFrameError(f"{source} must be a finite number in (0, 1), got {value!r}")
    return value


# orjson 3.8 turns a parsed document into Python objects by native recursion
# with no depth limit, some 64 bytes of C stack a level, so a document about
# 130,000 levels deep overflows an 8 MiB stack and kills the process.
# Nesting that deep takes as many opening brackets and twice as many
# characters, so text within this bound on either is safe to hand it.
_ORJSON_MAX_DEPTH = 1 << 16


def _text(doc: str | bytes) -> str:
    """``doc`` as a text-mode read of its bytes gives it: UTF-8 with
    universal newlines, so ``json`` counts lines as it always has.  Raises
    ``UnicodeDecodeError`` on bytes that are not UTF-8."""
    if isinstance(doc, str):
        return doc
    return io.TextIOWrapper(io.BytesIO(doc), encoding="utf-8").read()


def _opening_brackets(doc: str | bytes) -> int:
    """The number of ``[`` and ``{`` in ``doc``.  Neither byte occurs inside
    a multibyte UTF-8 character, so a file's bytes hold as many as its text."""
    if isinstance(doc, str):
        return doc.count("[") + doc.count("{")
    b = np.frombuffer(doc, np.uint8)
    return int(np.count_nonzero(b == ord("[")) + np.count_nonzero(b == ord("{")))


def _parse_json(doc: str | bytes):
    """The document in ``doc``, a file's bytes or an inline text, parsed by
    orjson; ``json.loads`` takes only what orjson refuses or cannot nest
    safely, as the text a text-mode read gives.

    The fallback exists for what orjson refuses -- NaN and Infinity tokens,
    numbers that overflow a double, over-long integers, lone surrogates, a
    byte order mark, bytes that are not UTF-8, every syntax error -- and for
    text with more brackets than orjson can safely nest: all of it keeps
    ``json``'s result or error message, line numbers of files with CR or CRLF
    line ends included.  Valid JSON gives the same objects both ways, down to
    every float's bits, except that an integer outside [-2**63, 2**64) comes
    back as the nearest float, which the schema checks then reject as a
    count, and that nesting deeper than ``json``'s recursion limit parses.
    """
    # a byte count can exceed the character count, so the bound on the
    # length is settled on the text
    if (len(doc) > 2 * _ORJSON_MAX_DEPTH
            and _opening_brackets(doc) > _ORJSON_MAX_DEPTH):
        text = _text(doc)
        if len(text) > 2 * _ORJSON_MAX_DEPTH:
            return json.loads(text)
    try:
        return orjson.loads(doc)
    except orjson.JSONDecodeError:
        return json.loads(_text(doc))


def _too_long(source: str) -> SchemaError:
    # json.loads turns a digit string into an int, which refuses more digits
    # than the interpreter's limit with a plain ValueError
    return SchemaError(source, f"integer longer than {sys.get_int_max_str_digits()} digits")


def _load_json(path: str):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise GFrameError(f"cannot read {path}: {exc.strerror or exc}")
    try:
        return _parse_json(data)
    except json.JSONDecodeError as exc:
        raise SchemaError(path, f"invalid JSON ({exc.msg} at line {exc.lineno})")
    except UnicodeDecodeError:
        raise  # not UTF-8: reported as the codec words it
    except ValueError:
        raise _too_long(path)


def _write_report(obj, out_path: str | None) -> None:
    text = ser.dumps(obj)
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _bounds_obj(bounds):
    if bounds is None:
        return None
    return [bounds.lower, bounds.upper]


def _condition(bounds):
    if bounds is None:
        return None
    return bounds.upper / bounds.lower


def cmd_analyze(args) -> int:
    tol = _resolve_tol(args.tol, DEFAULT_TOL)
    scenario = ser.scenario_from_obj(_load_json(args.path), tol)
    family, pair = scenario.family, scenario.pair
    commutation = pair.report_on(family)
    verdict = classify(family, tol)
    # no controlled verdict without the certificate
    cv = (controlled_classify(scenario, tol) if commutation.passed
          else FrameVerdict(None, None, {}))
    report = {
        "version": ser.REPORT_VERSION,
        "verdict": verdict.kind,
        "bounds": _bounds_obj(verdict.bounds),
        "witnesses": verdict.witnesses,
        "controlled_verdict": cv.kind,
        "controlled_bounds": _bounds_obj(cv.bounds),
        "controlled_witnesses": cv.witnesses,
        "commutation": {
            "cc_commutator": commutation.cc_commutator,
            "per_point": list(commutation.per_point),
            "tol": commutation.tol,
            "passed": commutation.passed,
        },
        "condition_numbers": {
            "C": pair.c.condition_number,
            "Cprime": pair.cp.condition_number,
            "frame_operator": _condition(verdict.bounds),
            "controlled_frame_operator": _condition(cv.bounds),
        },
    }
    _write_report(report, args.out)
    sys.stderr.write(f"verdict: {verdict.kind}\n")
    return EXIT_OK if verdict.kind == FRAME else EXIT_NOT_FRAME


def cmd_verify(args) -> int:
    tol = _resolve_tol(args.tol, DEFAULT_TOL)
    if args.batch is not None and args.default:
        raise GFrameError("--batch and --default are mutually exclusive")
    if args.batch is not None:
        batch = ser.batch_from_obj(_load_json(args.batch))
    else:
        batch = default_batch()
    results = run_suite(batch, tol)
    for r in results:
        sys.stderr.write(f"{r.check_id}: {r.status} "
                         f"({r.passes}/{r.scenarios_run})\n")
    report = {
        "version": ser.REPORT_VERSION,
        "tolerances": {
            "check": tol,
            "norm_bound": NORM_BOUND_TOL,
            "adjoint": ADJOINT_TOL,
            "scalar_tight": SCALAR_TIGHT_TOL,
        },
        "results": [ser.check_result_to_obj(r) for r in results],
    }
    _write_report(report, args.out)
    return EXIT_OK if suite_passed(results) else EXIT_CHECK_FAILED


def cmd_generate(args) -> int:
    raw = args.spec.strip()
    if raw.startswith("{"):
        try:
            obj = _parse_json(raw)
        except json.JSONDecodeError as exc:
            raise SchemaError("--spec", f"invalid JSON ({exc.msg})")
        except ValueError:
            raise _too_long("--spec")
    else:
        obj = _load_json(args.spec)
    spec = ser.spec_from_obj(obj)
    scenario = generate(spec)
    _write_report(ser.scenario_to_obj(scenario), args.out)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    tol = _resolve_tol(args.tol, RECONSTRUCT_TOL)
    scenario = ser.scenario_from_obj(_load_json(args.path))
    family = scenario.family
    if args.vector is not None:
        x = ser.vector_from_obj(_load_json(args.vector))
        if x.algebra_dim != family.algebra_dim or x.rank != family.module_rank:
            raise SchemaError("vector", "shape does not match the scenario")
    else:
        rng = stream(args.random, 0)
        n, d = family.algebra_dim, family.module_rank
        x = ModuleVector(n, d, complex_normal(rng, (n, d * n)))

    try:
        result = reconstruct(scenario, x)
    except NotAFrame as exc:
        sys.stderr.write(f"gframes: not a frame: {exc}\n")
        return EXIT_NOT_FRAME
    err = result.error
    scale = max(1.0, vec_norm(x))
    rel = err / scale
    cond = result.condition_number
    passed = rel <= tol * max(1.0, cond)
    report = {
        "version": ser.REPORT_VERSION,
        "error": err,
        "relative_error": rel,
        "condition_number": cond,
        "tol": tol,
        "passed": passed,
    }
    _write_report(report, args.out)
    sys.stderr.write(f"reconstruction {'ok' if passed else 'FAILED'}: "
                     f"relative error {rel:.3e}\n")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    handler = {"analyze": cmd_analyze, "verify": cmd_verify,
               "generate": cmd_generate, "reconstruct": cmd_reconstruct}[args.command]
    try:
        if args.command in ("analyze", "reconstruct"):
            # finite file entries can still overflow once multiplied; stop at
            # the first inf or NaN instead of computing on it
            with np.errstate(over="raise", invalid="raise"):
                return handler(args)
        return handler(args)
    except FloatingPointError:
        files = " and ".join(f for f in (args.path, getattr(args, "vector", None)) if f)
        sys.stderr.write(f"gframes: error: values in {files} overflow double precision\n")
        return EXIT_USAGE
    except SchemaError as exc:
        sys.stderr.write(f"gframes: schema error: {exc}\n")
        return EXIT_USAGE
    except (GFrameError, ValueError) as exc:
        sys.stderr.write(f"gframes: error: {exc}\n")
        return EXIT_USAGE


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
