"""JSON encodings and the canonical emitter.

Complex matrices serialize as flat row-major lists of ``[re, im]`` pairs;
shapes are never stored because every matrix's shape follows from the
``n`` / ``d`` / ``dw`` context it appears in.  A document built for output
holds each matrix as its array, which the emitter writes as that pair list;
the reader takes parsed JSON, where each matrix is the list.  All numbers
are emitted with 17 significant digits, which round-trips IEEE doubles
exactly, so parsing a report and re-serializing it reproduces the bytes.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .algebra import DEFAULT_TOL
from .controlled import ControlPair, ControlledScenario
from .errors import SchemaError
from .frames import GFrameFamily, MeasurePoint
from .generators import GeneratorSpec
from .module_space import ModuleVector
from .operators import (ModuleOperator, identity_control,
                        make_positive_invertible)

SCENARIO_VERSION = 1
REPORT_VERSION = 1

# ---------------------------------------------------------------- emitter


def _fmt_number(x) -> str:
    if isinstance(x, int):
        return str(x)
    v = float(x)
    if not math.isfinite(v):
        raise ValueError("non-finite number in JSON output")
    return format(v, ".17g")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _pairs(a: np.ndarray) -> str:
    """Inline text of an array as its flat row-major list of ``[re, im]``
    pairs, in one ``%`` call.  ``'%.17g' % v`` equals ``format(v, '.17g')``
    for every float, so these are the bytes of the pair list itself."""
    if not np.isfinite(a).all():
        raise ValueError("non-finite number in JSON output")
    flat = tuple(np.ascontiguousarray(a, dtype=np.complex128)
                 .reshape(-1).view(np.float64).tolist())
    return ("[" + ", ".join(["[%.17g, %.17g]"] * (len(flat) // 2)) + "]") % flat


def _emit(obj, out: list, level: int) -> None:
    pad = "  " * level
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif _is_number(obj):
        out.append(_fmt_number(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (list, tuple, np.ndarray)):
        if (text := _inline(obj)) is not None:
            out.append(text)
        else:
            out.append("[\n")
            for i, v in enumerate(obj):
                out.append(pad + "  ")
                _emit(v, out, level + 1)
                out.append(",\n" if i + 1 < len(obj) else "\n")
            out.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
        else:
            out.append("{\n")
            items = list(obj.items())
            for i, (k, v) in enumerate(items):
                if not isinstance(k, str):
                    raise TypeError(f"JSON keys must be strings, got {k!r}")
                out.append(pad + "  " + json.dumps(k, ensure_ascii=False) + ": ")
                _emit(v, out, level + 1)
                out.append(",\n" if i + 1 < len(items) else "\n")
            out.append(pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _inline(obj) -> str | None:
    """One-line text of a number or an array, or of a list or tuple of them
    nested to any depth; None at the first entry that is neither."""
    if _is_number(obj):
        return _fmt_number(obj)
    if isinstance(obj, np.ndarray):
        return _pairs(obj)
    if not isinstance(obj, (list, tuple)):
        return None
    parts = []
    for v in obj:
        if (text := _inline(v)) is None:
            return None
        parts.append(text)
    return "[" + ", ".join(parts) + "]"


def dumps(obj) -> str:
    """Canonical text: insertion-ordered keys, 17-significant-digit floats,
    each array as its pair list, trailing newline."""
    out: list[str] = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


# ------------------------------------------------------------ validation


def _want(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise SchemaError(path, msg)


def _get(obj: dict, key: str, path: str):
    _want(isinstance(obj, dict), path, "expected an object")
    _want(key in obj, path, f"missing required key {key!r}")
    return obj[key]


def _as_int(v, path: str, minimum: int | None = None) -> int:
    _want(isinstance(v, int) and not isinstance(v, bool), path, "expected an integer")
    if minimum is not None:
        _want(v >= minimum, path, f"must be >= {minimum}")
    return v


def _as_real(v, path: str) -> float:
    _want(_is_number(v), path, "expected a real number")
    try:
        f = float(v)
    except OverflowError:  # an int beyond the largest double
        f = math.inf
    _want(math.isfinite(f), path, "must be finite")
    return f


def _sweep(mats: list) -> dict | None:
    """The entries of every list in ``mats`` as a flat complex128 array,
    keyed by the list's ``id``, or None unless each list holds only finite
    ``[re, im]`` pairs of exact ``float`` / ``int`` numbers.

    All lists take one type scan, one ``np.array`` and one finiteness check,
    and each array is a view of that one array.  The type scan comes first
    because ``np.array`` turns strings, bools and None into floats.  Each
    entry keeps its list, so no other live object can have its ``id``.
    """
    pairs = list(chain.from_iterable(mats))
    if set(map(type, pairs)) - {list} or set(map(len, pairs)) - {2}:
        return None
    flat = list(chain.from_iterable(pairs))
    if set(map(type, flat)) - {float, int}:
        return None
    try:
        arr = np.array(flat, dtype=np.float64)
    except OverflowError:  # an int beyond the doubles
        return None
    if not np.isfinite(arr).all():
        return None
    # a view, not arithmetic: -0.0 and every other bit pattern survive
    entries = arr.view(np.complex128)
    swept, at = {}, 0
    for m in mats:
        swept[id(m)] = (m, entries[at:at + len(m)])
        at += len(m)
    return swept


def matrix_from_obj(obj, rows: int, cols: int, path: str,
                    swept: dict | None = None) -> np.ndarray:
    """Parse a flat row-major list of [re, im] pairs, keeping every bit.

    A list in ``swept``, the result of a ``_sweep`` over a whole document,
    is read from it; any other takes a sweep of its own.  Input no sweep
    takes goes through the per-entry loop, whose only job is to raise
    ``SchemaError`` at the first bad entry.
    """
    _want(isinstance(obj, list), path, "expected a list of [re, im] pairs")
    _want(len(obj) == rows * cols, path,
          f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(obj)}")
    if swept is None or id(obj) not in swept:
        swept = _sweep([obj])
    if swept is None:
        for i, pair in enumerate(obj):
            at = f"{path}[{i}]"
            _want(isinstance(pair, list) and len(pair) == 2, at,
                  "expected an [re, im] pair")
            for v in pair:
                _as_real(v, at)
                # numpy scalars and int / float subclasses are no JSON numbers
                _want(type(v) in (float, int), at, "expected a real number")
        raise AssertionError(f"{path}: rejected matrix with no bad entry")
    return swept[id(obj)][1].reshape(rows, cols)


# ------------------------------------------------------- object schemas


def vector_to_obj(x: ModuleVector) -> dict:
    """The document of ``x`` for ``dumps``: each block is its array."""
    return {"n": x.algebra_dim, "d": x.rank,
            "blocks": [x.block(i).entries for i in range(x.rank)]}


def vector_from_obj(obj, path: str = "") -> ModuleVector:
    p = path or "vector"
    n = _as_int(_get(obj, "n", p), f"{p}.n", 1)
    d = _as_int(_get(obj, "d", p), f"{p}.d", 1)
    blocks_obj = _get(obj, "blocks", p)
    _want(isinstance(blocks_obj, list) and len(blocks_obj) == d, f"{p}.blocks",
          f"expected {d} blocks")
    swept = _sweep([b for b in blocks_obj if isinstance(b, list)])
    blocks = [matrix_from_obj(b, n, n, f"{p}.blocks[{i}]", swept)
              for i, b in enumerate(blocks_obj)]
    return ModuleVector.from_blocks(blocks)


# ------------------------------------------------------- scenario files


def scenario_to_obj(s: ControlledScenario) -> dict:
    """The document of ``s`` for ``dumps``: each point action and explicit
    control is its array.  ``scenario_from_obj`` reads the parsed file."""
    f = s.family
    n, d = f.algebra_dim, f.module_rank
    obj = {"version": SCENARIO_VERSION, "n": n, "d": d,
           "points": [{"weight": p.weight, "dw": p.codomain_rank,
                       "lambda": p.lam.action} for p in f.points]}
    for key, ctrl in (("C", s.pair.c), ("Cprime", s.pair.cp)):
        obj[key] = "identity" if ctrl.is_identity else ctrl.base.action
    return obj


def scenario_from_obj(obj, tol: float = DEFAULT_TOL) -> ControlledScenario:
    """Schema-validate a scenario document, then build it with controls
    certified at ``tol``.

    Shape errors raise ``SchemaError`` naming the offending path; semantic
    control failures (not Hermitian, not positive definite) surface from the
    certification step.  The first error in document order is the one
    raised.  Every ``lambda`` and control matrix is read from one
    ``_sweep`` of them all, gathered before any is checked.
    """
    _want(isinstance(obj, dict), "", "expected a scenario object")
    version = _as_int(_get(obj, "version", ""), "version")
    _want(version == SCENARIO_VERSION, "version",
          f"unsupported version {version}, expected {SCENARIO_VERSION}")
    n = _as_int(_get(obj, "n", ""), "n", 1)
    d = _as_int(_get(obj, "d", ""), "d", 1)
    pts_obj = _get(obj, "points", "")
    _want(isinstance(pts_obj, list) and len(pts_obj) >= 1, "points",
          "expected a nonempty list")
    swept = _sweep([m for m in chain(
        (po.get("lambda") for po in pts_obj if isinstance(po, dict)),
        (obj.get("C"), obj.get("Cprime"))) if isinstance(m, list)])
    points = []
    for i, po in enumerate(pts_obj):
        pp = f"points[{i}]"
        _want(isinstance(po, dict), pp, "expected an object")
        weight = _as_real(_get(po, "weight", pp), f"{pp}.weight")
        _want(weight > 0, f"{pp}.weight", "must be positive")
        dw = _as_int(_get(po, "dw", pp), f"{pp}.dw", 1)
        mat = matrix_from_obj(_get(po, "lambda", pp), d * n, dw * n,
                              f"{pp}.lambda", swept)
        points.append(MeasurePoint(weight, ModuleOperator(n, d, dw, mat)))
    family = GFrameFamily(n, d, tuple(points))
    # two identity controls are one object, as the generators build them
    controls, eye = [], None
    for key in ("C", "Cprime"):
        v = _get(obj, key, "")
        if v == "identity":
            eye = eye or identity_control(n, d)
            controls.append(eye)
        else:
            mat = matrix_from_obj(v, d * n, d * n, key, swept)
            controls.append(make_positive_invertible(ModuleOperator(n, d, d, mat)))
    return ControlledScenario(family, ControlPair(controls[0], controls[1], tol))


# ------------------------------------------------------ generator specs


def spec_to_obj(spec: GeneratorSpec) -> dict:
    return {"seed": spec.seed, "n": spec.n, "d": spec.d, "m": spec.m,
            "dw_range": [spec.dw_range[0], spec.dw_range[1]],
            "spectrum_range": [spec.spectrum_range[0], spec.spectrum_range[1]],
            "flavor": spec.flavor}


def spec_from_obj(obj, path: str = "") -> GeneratorSpec:
    p = path or "spec"
    _want(isinstance(obj, dict), p, "expected an object")
    seed = _as_int(_get(obj, "seed", p), f"{p}.seed", 0)
    n = _as_int(_get(obj, "n", p), f"{p}.n", 1)
    d = _as_int(_get(obj, "d", p), f"{p}.d", 1)
    m = _as_int(_get(obj, "m", p), f"{p}.m", 1)
    kwargs = {}
    for key, read in (("dw_range", lambda v, at: _as_int(v, at, 1)),
                      ("spectrum_range", _as_real)):
        if key in obj:
            v = obj[key]
            _want(isinstance(v, list) and len(v) == 2, f"{p}.{key}",
                  "expected a [lo, hi] pair")
            kwargs[key] = (read(v[0], f"{p}.{key}[0]"), read(v[1], f"{p}.{key}[1]"))
    if "flavor" in obj:
        v = obj["flavor"]
        _want(isinstance(v, str), f"{p}.flavor", "expected a string")
        kwargs["flavor"] = v
    return GeneratorSpec(seed=seed, n=n, d=d, m=m, **kwargs)


def batch_from_obj(obj) -> list:
    _want(isinstance(obj, list), "", "expected a list of generator specs")
    return [spec_from_obj(v, f"[{i}]") for i, v in enumerate(obj)]


# -------------------------------------------------------------- reports


def check_result_to_obj(r) -> dict:
    return {"check_id": r.check_id,
            "scenarios_run": r.scenarios_run,
            "passes": r.passes,
            "failures": [{"seed": f.seed, "residual": f.residual, "detail": f.detail}
                         for f in r.failures],
            "status": r.status}
