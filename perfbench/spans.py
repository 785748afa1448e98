"""Timing spans recorded from outside the program.

``SpanRecorder.installed()`` wraps every public function of every ``vlaad``
module, and every public method of the classes those modules define, then
rebinds each wrapper on every name that refers to the original: a module
that did ``from .model import adapter_forward`` calls the wrapper through its
own binding, not only through ``model.adapter_forward``.  Leaving the
context restores every original binding, so untraced passes run the
unmodified program.

Each span records name, start, end and parent in flat arrays; self time is
the span's duration minus the time its child spans cover.  Generator
functions (``inference.stream_tokens``) get one span per resumption, so the
time the generator body spends between yields is attributed to it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import pkgutil
import time
from array import array

import numpy as np


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _adapter_rows(args, kwargs, result):
    snips = _arg(args, kwargs, 0, "snips")
    params = _arg(args, kwargs, 1, "params")
    rows = int(snips.shape[0])
    dim, hidden = params.w1.shape
    # two matmuls of (rows, D) x (D, H) and (rows, H) x (H, D)
    return {"rows": rows, "gflop": 4.0 * rows * dim * hidden / 1e9}


def _backward_rows(args, kwargs, result):
    return {"rows": int(np.shape(_arg(args, kwargs, 5, "dz"))[0])}


# Work counts taken at the layer boundary, keyed by span name.
WORK = {
    "model.adapter_forward": _adapter_rows,
    "model.heads_backward": _backward_rows,
    "embeddings.read_embedding_cache": _file_bytes,
    "datakit.read_manifest": _file_bytes,
    "model.save_checkpoint": _file_bytes,
}


def vlaad_modules(package):
    """The package itself plus every submodule, imported."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


class SpanRecorder:
    """Flat, append-only span store plus per-name call and work counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.calls: list[int] = []
        self.work: dict[tuple[str, str], float] = {}

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, func):
        nid = self._nid(name)
        calls = self.calls
        opener, closer = self._open, self._close
        work = WORK.get(name)

        if inspect.isgeneratorfunction(func):
            @functools.wraps(func)
            def gen_wrapper(*args, **kwargs):
                calls[nid] += 1
                gen = func(*args, **kwargs)
                while True:
                    idx = opener(nid)
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    finally:
                        closer(idx)
                    yield value
            return gen_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            idx = opener(nid)
            try:
                result = func(*args, **kwargs)
            finally:
                closer(idx)
            if work is not None:
                for stat, value in work(args, kwargs, result).items():
                    key = (name, stat)
                    self.work[key] = self.work.get(key, 0.0) + value
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self, package):
        """Wrap the package's public callables for the duration."""
        mods = vlaad_modules(package)
        prefix = package.__name__ + "."
        restore = []  # (owner, attribute, original value)
        wrappers = {}  # id(original function) -> wrapper
        for mod in mods[1:]:
            short = mod.__name__[len(prefix):]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and not getattr(obj, "_is_protocol", False):
                    for meth, val in list(vars(obj).items()):
                        if meth.startswith("_"):
                            continue
                        name = f"{short}.{attr}.{meth}"
                        if inspect.isfunction(val):
                            new = self._wrap(name, val)
                        elif isinstance(val, (classmethod, staticmethod)):
                            new = type(val)(self._wrap(name, val.__func__))
                        else:
                            continue
                        restore.append((obj, meth, val))
                        setattr(obj, meth, new)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                new = wrappers.get(id(obj))
                if new is not None:
                    restore.append((mod, attr, obj))
                    setattr(mod, attr, new)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def table(self) -> dict[str, dict[str, float]]:
        """Per-name calls, total_ms, self_ms and work counts."""
        n = len(self.start)
        out = {name: {"calls": self.calls[i], "total_ms": 0.0, "self_ms": 0.0}
               for i, name in enumerate(self.names)}
        if n:
            start = np.frombuffer(self.start, dtype=np.int64)
            end = np.frombuffer(self.end, dtype=np.int64)
            parent = np.frombuffer(self.parent, dtype=np.int32)
            nid = np.frombuffer(self.name_id, dtype=np.int32)
            dur = (end - start).astype(np.float64)
            child = np.zeros(n)
            has_parent = parent >= 0
            np.add.at(child, parent[has_parent], dur[has_parent])
            k = len(self.names)
            total = np.bincount(nid, weights=dur, minlength=k) / 1e6
            self_ms = np.bincount(nid, weights=dur - child, minlength=k) / 1e6
            for i, name in enumerate(self.names):
                out[name]["total_ms"] = float(total[i])
                out[name]["self_ms"] = float(self_ms[i])
        for (name, stat), value in self.work.items():
            out[name][stat] = value
        return out
