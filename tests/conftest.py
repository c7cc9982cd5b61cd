"""Shared fixtures."""

import sys

import pytest

import gframes.algebra as algebra_mod
import gframes.controlled as controlled_mod
import gframes.frames as frames_mod
import gframes.operators as operators_mod
from gframes.algebra import AlgebraElement
from gframes.module_space import ModuleVector

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


def _counting(real, *logs):
    def counting(first, *args, **kwargs):
        for log in logs:
            log.append(first)
        return real(first, *args, **kwargs)
    return counting


@pytest.fixture
def calls(monkeypatch):
    """First arguments of every call to each ``COUNTED`` function, in call
    order, through every ``gframes`` module that binds the name; under
    ``ModuleVector`` and ``AlgebraElement``, every instance constructed; under
    ``norm2``, the matrix of every ``spectral_norm``; under
    ``certificates``, every call of a ``CERTIFYING`` function.  Stacked SVDs
    that take many norms in one call are not counted."""
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
    return record


@pytest.fixture
def certificate_calls(calls):
    """Families passed to ``validate_commutation`` or ``decide_commutation``,
    in call order."""
    return calls["certificates"]
