"""Command line front end.

Exit codes: 0 success (and, for ``analyze``, the family is a frame),
2 analyzed family fails the frame condition, 3 a verification or
reconstruction check failed, 1 usage, schema, or data errors.

``GFRAME_TOL`` in the environment supplies a default for ``--tol``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import os
import re
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
from .algebra import DEFAULT_TOL, _rel
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
# 130,000 levels deep overflows an 8 MiB stack and kills the process.  A
# document nested no deeper than this bound is safe to hand it.
_ORJSON_MAX_DEPTH = 1 << 16

_NOT_BRACKETS = bytes(sorted(set(range(256)) - set(b"[]{}")))


def _text(doc: str | bytes) -> str:
    """``doc`` as a text-mode read of its bytes gives it: UTF-8 with
    universal newlines, so ``json`` counts lines as it always has.  Raises
    ``UnicodeDecodeError`` on bytes that are not UTF-8."""
    if isinstance(doc, str):
        return doc
    return io.TextIOWrapper(io.BytesIO(doc), encoding="utf-8").read()


def _opening_brackets(doc: bytes) -> int:
    """The number of ``[`` and ``{`` in ``doc``, a bound on its depth."""
    b = np.frombuffer(doc, np.uint8)
    return int(np.count_nonzero(b == ord("[")) + np.count_nonzero(b == ord("{")))


def _depth(doc: bytes) -> int:
    """The deepest nesting of the brackets of ``doc`` outside its strings,
    whose escapes are backslash pairs: exact for valid JSON, and at least
    the depth a parser reaches before the first error of any other text."""
    bare = re.sub(rb'"[^"]*"', b"", re.sub(rb"\\.", b"", doc, flags=re.S))
    brackets = np.frombuffer(bare.translate(None, _NOT_BRACKETS), np.uint8)
    steps = np.where((brackets == ord("[")) | (brackets == ord("{")), 1, -1)
    return int(steps.cumsum().max(initial=0))


def _parse_json(doc: str | bytes):
    """The document in ``doc``, a file's bytes or an inline text, parsed by
    orjson; ``json.loads`` takes only what orjson refuses or cannot nest
    safely, as the text a text-mode read gives.

    The fallback exists for what orjson refuses -- NaN and Infinity tokens,
    numbers that overflow a double, over-long integers, lone surrogates, a
    byte order mark, bytes that are not UTF-8, every syntax error -- and for
    documents nested deeper than orjson can safely take: all of it keeps
    ``json``'s result or error message, line numbers of files with CR or CRLF
    line ends included.  Valid JSON gives the same objects both ways, down to
    every float's bits, except that an integer outside [-2**63, 2**64) comes
    back as the nearest float, which the schema checks then reject as a
    count, and that nesting deeper than ``json``'s recursion limit parses.
    """
    # brackets, quotes and backslashes are single UTF-8 bytes, so a text's
    # bytes nest as it does; the cheap count settles all but the largest
    raw = doc.encode("utf-8", "surrogatepass") if isinstance(doc, str) else doc
    if _opening_brackets(raw) > _ORJSON_MAX_DEPTH and _depth(raw) > _ORJSON_MAX_DEPTH:
        return json.loads(_text(doc))
    try:
        return orjson.loads(doc)
    except orjson.JSONDecodeError:
        return json.loads(_text(doc))


def _parse(doc: str | bytes, source: str, lines: bool):
    """``_parse_json(doc)``, with parse errors as ``SchemaError``s on ``source``."""
    try:
        return _parse_json(doc)
    except json.JSONDecodeError as exc:
        at = f" at line {exc.lineno}" if lines else ""
        raise SchemaError(source, f"invalid JSON ({exc.msg}{at})")
    except UnicodeDecodeError:
        raise  # not UTF-8: reported as the codec words it
    except ValueError:
        # json.loads turns a digit string into an int, which refuses more
        # digits than the interpreter's limit with a plain ValueError
        raise SchemaError(source, f"integer longer than {sys.get_int_max_str_digits()} digits")


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise GFrameError(f"cannot read {path}: {exc.strerror or exc}")


def _load_json(path: str):
    return _parse(_read(path), path, lines=True)


# The last scenario built by ``_load_scenario`` or written by ``generate``,
# as (file bytes, tol, scenario).
_held = None


def _hold(data: bytes, tol: float, scenario) -> None:
    """Keep ``scenario`` as what a read of the bytes ``data`` at ``tol`` builds."""
    global _held
    _held = data, tol, scenario


def _load_scenario(path: str, tol: float = DEFAULT_TOL):
    """The scenario in the file at ``path``, its pair certified at ``tol``.

    A scenario is a function of the file's bytes and ``tol`` alone, and no
    command changes it, so the last one built or written is kept and
    returned again while both match.  The bytes are compared, not hashed,
    so a file of another length costs one length check.  On a miss the kept
    scenario is released before the file is parsed and built; a file that
    fails is never kept.
    """
    global _held
    data = _read(path)
    if _held is not None and _held[1] == tol and _held[0] == data:
        return _held[2]
    _held = None
    scenario = ser.scenario_from_obj(_parse(data, path, lines=True), tol)
    _hold(data, tol, scenario)
    return scenario


@contextlib.contextmanager
def _report_file(out_path: str, mode: str = "w"):
    """``out_path`` open for writing in ``mode``; an ``OSError`` on opening,
    writing or closing it is a ``GFrameError`` that names the file."""
    try:
        with open(out_path, mode, encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise GFrameError(f"cannot write {out_path}: {exc.strerror or exc}")


def _write_report(obj, out_path: str | None) -> str:
    """Write ``obj``'s canonical text to ``out_path``, or to stdout when it
    is None, and return that text."""
    text = ser.dumps(obj)
    if out_path is None:
        sys.stdout.write(text)
        return text
    with _report_file(out_path) as fh:
        fh.write(text)
    return text


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
    scenario = _load_scenario(args.path, tol)
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
    if not batch:
        # refused before --out is opened, so an existing file keeps its bytes
        raise GFrameError("batch must contain at least one spec")
    made = False
    if args.out is not None:
        # an --out that cannot be written fails here, before the suite runs;
        # a file that only this check made goes again if the suite raises
        with contextlib.suppress(GFrameError), _report_file(args.out, "x"):
            made = True
        with _report_file(args.out, "a"):
            pass
    try:
        results = run_suite(batch, tol)
    except BaseException:
        if made:
            with contextlib.suppress(OSError):
                os.remove(args.out)
        raise
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


def _has_negative_zero(scenario) -> bool:
    """Whether an entry of a matrix of ``scenario`` has a -0.0 part.

    A read of a scenario's file rebuilds it bit for bit, but for this: the
    emitter writes -0.0 as -0, which the reader takes for +0.0, and a
    control equal to the identity up to the sign of its zeros is written as
    ``"identity"``.  One scan of all the entries costs far less than a
    search of the text.
    """
    mats = [p.lam.action for p in scenario.family.points]
    mats += [scenario.pair.c.base.action, scenario.pair.cp.base.action]
    parts = np.concatenate([m.reshape(-1) for m in mats]).view(np.float64)
    return bool(np.signbit(parts[parts == 0]).any())


def cmd_generate(args) -> int:
    raw = args.spec.strip()
    obj = (_parse(raw, "--spec", lines=False) if raw.startswith("{")
           else _load_json(args.spec))
    spec = ser.spec_from_obj(obj)
    scenario = generate(spec)
    text = _write_report(ser.scenario_to_obj(scenario), args.out)
    if args.out is not None and not _has_negative_zero(scenario):
        _hold(text.encode(), scenario.pair.tol, scenario)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    tol = _resolve_tol(args.tol, RECONSTRUCT_TOL)
    # stream() keeps 64 bits of a seed, so a wider one draws another's vector
    if args.random is not None and not 0 <= args.random < 1 << 64:
        raise GFrameError(f"--random must be a 64-bit nonnegative integer, "
                          f"got {args.random}")
    scenario = _load_scenario(args.path)
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
    rel = err / _rel(vec_norm(x))
    cond = result.condition_number
    passed = rel <= tol * cond
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
    global _held
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    handler = {"analyze": cmd_analyze, "verify": cmd_verify,
               "generate": cmd_generate, "reconstruct": cmd_reconstruct}[args.command]
    if args.command not in ("analyze", "reconstruct"):
        # no other command reads it, so it only takes memory; a generate
        # holds what it writes, once the entry read before it is released
        _held = None
    # no command makes a reference cycle, so the cyclic collector would only
    # walk a scenario file's many small lists, and in a long-lived process
    # set off full collections over them; a caller's setting is kept
    enabled = gc.isenabled()
    gc.disable()
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
    finally:
        if enabled:
            gc.enable()


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
