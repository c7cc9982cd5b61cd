"""Counter-based random streams.

Every random draw in the library comes from a Philox generator keyed by
(seed, stream index), so any point of any scenario can be regenerated in
isolation and results do not depend on draw interleaving, thread count, or
call order.

Philox is counter-based: its whole state is a key, a counter and a buffer
of unread output.  So one instance re-keyed with (seed, index), a zero
counter and an empty buffer draws exactly what a new ``stream(seed,
index)`` draws, and a sweep over many streams can re-key one generator
instead of building one per stream.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# A new Philox's counter and buffer, and the read position of an empty
# buffer; the state setter copies them.
_ZEROS = np.zeros(4, dtype=np.uint64)
_ZEROS.flags.writeable = False
_EMPTY = 4


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Generator for sub-stream ``index`` of ``seed``; streams never overlap."""
    key = ((seed & _MASK64) << 64) | (index & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def _rekey(rng: np.random.Generator, seed: int, index: int) -> np.random.Generator:
    """``rng``, a Philox generator, put in the state of a new
    ``stream(seed, index)``: the same key, a zero counter, an empty buffer."""
    key = np.array([index & _MASK64, seed & _MASK64], dtype=np.uint64)
    rng.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS, "buffer_pos": _EMPTY, "has_uint32": 0, "uinteger": 0}
    return rng


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex normal array: unit variance, independent entries."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)
