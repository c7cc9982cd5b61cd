"""Shared fixtures."""

import json
import sys

import numpy as np
import orjson
import pytest

import gframes.algebra as algebra_mod
import gframes.cli as cli_mod
import gframes.controlled as controlled_mod
import gframes.frames as frames_mod
import gframes.operators as operators_mod
from gframes import serialization as ser
from gframes.algebra import AlgebraElement
from gframes.module_space import ModuleVector


def file_form(doc):
    """``doc`` as a file holds it: its emitted text, parsed.  A document
    built for output holds each matrix as its array; the reader takes the
    parsed pair lists."""
    return orjson.loads(ser.dumps(doc))


def pair_list(a) -> list:
    """The flat row-major list of ``[re, im]`` float pairs of the entries
    of ``a``, the form a file gives a matrix."""
    return [[float(z.real), float(z.imag)]
            for z in np.asarray(a, dtype=np.complex128).reshape(-1)]


@pytest.fixture(autouse=True)
def no_held_scenario(monkeypatch):
    """Each test starts with no scenario held by the CLI, so no test reads
    one that an earlier test built or wrote for a file of the same bytes."""
    monkeypatch.setattr(cli_mod, "_held", None)


# Counted library functions and the module that defines each.
COUNTED = {
    "validate_commutation": controlled_mod,
    "decide_commutation": controlled_mod,
    "frame_operator": frames_mod,
    "controlled_frame_operator": controlled_mod,
    "synthesis_operator": controlled_mod,
    "cross_operator": controlled_mod,
    "op_norm": operators_mod,
    "spectral_norm": algebra_mod,
}


# Counted functions that certify controls against a family.
CERTIFYING = ("validate_commutation", "decide_commutation")

# Counted ``numpy.linalg`` routines, when a ``gframes`` module calls them.
LINALG = ("svd", "eigvalsh", "qr")

# Counted JSON parsers, when a ``gframes`` module calls them.
PARSERS = {"json.loads": json, "orjson.loads": orjson}


def _counting(real, *logs):
    def counting(first, *args, **kwargs):
        for log in logs:
            log.append(first)
        return real(first, *args, **kwargs)
    return counting


def _counting_from_gframes(real, log):
    def counting(a, *args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__", "").split(".")[0] == "gframes":
            log.append(a)
        return real(a, *args, **kwargs)
    return counting


@pytest.fixture
def calls(monkeypatch):
    """First arguments of every call to each ``COUNTED`` function, in call
    order, through every ``gframes`` module that binds the name; under
    ``ModuleVector`` and ``AlgebraElement``, every instance constructed; under
    ``norm2``, the matrix of every ``spectral_norm``; under
    ``certificates``, every call of a ``CERTIFYING`` function; and under
    each ``LINALG`` name, the matrix or stack of every call a ``gframes``
    module makes, so a stacked call that takes many norms counts once and a
    ``spectral_norm`` counts under both ``norm2`` and ``svd``; and under
    each ``PARSERS`` name, the text of every call a ``gframes`` module
    makes."""
    record = {"certificates": []}
    for name, home in COUNTED.items():
        real = getattr(home, name)
        record[name] = []
        logs = [record[name]]
        if name in CERTIFYING:
            logs.append(record["certificates"])
        counting = _counting(real, *logs)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "gframes" \
                    and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counting)
    for cls in (ModuleVector, AlgebraElement):
        record[cls.__name__] = []
        monkeypatch.setattr(cls, "__post_init__",
                            _counting(cls.__post_init__, record[cls.__name__]))
    record["norm2"] = record.pop("spectral_norm")
    for name in LINALG:
        record[name] = []
        monkeypatch.setattr(np.linalg, name, _counting_from_gframes(
            getattr(np.linalg, name), record[name]))
    for name, home in PARSERS.items():
        record[name] = []
        monkeypatch.setattr(home, "loads", _counting_from_gframes(
            home.loads, record[name]))
    return record


@pytest.fixture
def certificate_calls(calls):
    """Families passed to ``validate_commutation`` or ``decide_commutation``,
    in call order."""
    return calls["certificates"]
