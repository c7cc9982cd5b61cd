"""Span tracing of gframes from outside the package.

``Tracer.install`` swaps every public function of every ``gframes`` module
for a recording wrapper, in each module namespace that bound it (so
``from .controlled import reconstruct`` in the CLI is covered too).  It also
wraps the dataclass ``__post_init__`` methods, the ``numpy.linalg`` entry
points the package calls, and ``json.loads`` as called from the CLI.
``uninstall`` puts every original back.

A span is (id, parent id, name, item id, start ns, end ns).  Spans are kept
in one flat in-memory array and written out by ``save``.  Self time is a
span's duration minus the time of its direct children, computed as spans
close.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

# numpy.linalg functions gframes calls; ``norm`` is traced only with ord=2.
_LINALG = ("norm", "svd", "eigvalsh", "eigh", "solve", "qr")


def _is_ord2(args, kwargs) -> bool:
    return (len(args) > 1 and args[1] == 2) or kwargs.get("ord") == 2


def _triple_key(args, kwargs):
    """Content digest of the (family, c, c') triple a certificate is asked for."""
    family, c, cp = (list(args) + [kwargs.get("c"), kwargs.get("cp")])[:3]
    h = hashlib.blake2b(digest_size=16)
    for p in family.points:
        h.update(np.float64(p.weight).tobytes())
        h.update(p.lam.action.tobytes())
    for ctrl in (c, cp):
        h.update(b"|")
        h.update(ctrl.base.action.tobytes())
    return h.digest()


class Tracer:
    """Records spans for one traced section of a benchmark run."""

    def __init__(self):
        self.names: list[str] = []
        self.modules: list[str] = []
        self._ids: dict[str, int] = {}
        self.rows = array("q")  # id, parent, name, item, start, end per span
        self.stack: list[list[int]] = []
        self.next_id = 0
        self.item = -1
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.bytes: Counter = Counter()
        self.triples: set = set()
        self._undo: list = []

    def _name_id(self, name: str, module: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.modules.append(module)
        return self._ids[name]

    def wrap(self, fn, name: str, module: str, caller: str | None = None,
             select=None, arg_bytes=None, result_bytes=None, key=None):
        """Recording wrapper around ``fn``.

        ``caller``: record only calls whose calling module name starts with
        it.  ``select(args, kwargs)``: record only calls it accepts.
        ``arg_bytes`` / ``result_bytes``: byte counts to add under ``name``.
        ``key(args, kwargs)``: a value whose distinct count is kept.  Hook
        time is charged to no span.
        """
        nid = self._name_id(name, module)
        tracer, stack, rows = self, self.stack, self.rows

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if caller is not None and not sys._getframe(1).f_globals.get(
                    "__name__", "").startswith(caller):
                return fn(*args, **kwargs)
            if select is not None and not select(args, kwargs):
                return fn(*args, **kwargs)
            if arg_bytes is not None or key is not None:
                h0 = perf_counter_ns()
                if arg_bytes is not None:
                    tracer.bytes[nid] += arg_bytes(args)
                if key is not None:
                    tracer.triples.add(key(args, kwargs))
                if stack:
                    stack[-1][1] += perf_counter_ns() - h0
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                rows.extend((sid, parent, nid, tracer.item, t0, t1))
                tracer.calls[nid] += 1
                tracer.self_ns[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if result_bytes is not None:
                tracer.bytes[nid] += result_bytes(result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap ``package`` (the imported ``gframes``) and its submodules."""
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == package.__name__
                                      or n.startswith(package.__name__ + "."))]
        wrappers = {}
        for mod in mods:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    hooks = {}
                    if mod.__name__.endswith(".serialization") and attr == "dumps":
                        hooks["result_bytes"] = len
                    if mod.__name__.endswith(".controlled") \
                            and attr == "validate_commutation":
                        hooks["key"] = _triple_key
                    wrappers[obj] = self.wrap(obj, f"{short}.{attr}", short, **hooks)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                        and "__post_init__" in vars(obj):
                    self._set(obj, "__post_init__",
                              self.wrap(vars(obj)["__post_init__"],
                                        f"{short}.{attr}.constructed", short))
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
        prefix = package.__name__ + "."
        for fname in _LINALG:
            fn = getattr(np.linalg, fname)
            if fname == "norm":
                w = self.wrap(fn, "linalg.norm2", "linalg", caller=prefix,
                              select=_is_ord2)
            else:
                w = self.wrap(fn, f"linalg.{fname}", "linalg", caller=prefix)
            self._set(np.linalg, fname, w)
        self._set(json, "loads", self.wrap(json.loads, "json.loads", "json",
                                           caller=prefix + "cli",
                                           arg_bytes=lambda a: len(a[0])))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------ results

    def calls_of(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def self_s_of(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_ns[nid] / 1e9

    def bytes_of(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.bytes[nid]

    def module_self_s(self, module: str) -> float:
        return sum(self.self_ns[i] for i, m in enumerate(self.modules)
                   if m == module) / 1e9

    def save(self, path: str, items: list) -> None:
        """Write every span plus the name and item tables as ``.npz``."""
        spans = np.frombuffer(self.rows, dtype=np.int64).reshape(-1, 6)
        np.savez_compressed(
            path, spans=spans,
            columns=np.array(["id", "parent", "name", "item", "start_ns", "end_ns"]),
            names=np.array(self.names), items=np.array(items))
