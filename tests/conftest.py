"""Shared fixtures."""

import sys

import pytest

import gframes.controlled as controlled_mod


@pytest.fixture
def certificate_calls(monkeypatch):
    """Families passed to ``validate_commutation``, in call order, through
    every ``gframes`` module that binds the name."""
    calls = []
    real = controlled_mod.validate_commutation

    def counting(family, *args, **kwargs):
        calls.append(family)
        return real(family, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "gframes" \
                and getattr(mod, "validate_commutation", None) is real:
            monkeypatch.setattr(mod, "validate_commutation", counting)
    return calls
