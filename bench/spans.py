"""Span tracing from outside the program.

`Tracer.install` replaces named callables of the orf modules with wrappers
that record one span per call: name, start, end (perf_counter_ns) and the
index of the enclosing span. Spans are kept in flat arrays, about 24 bytes
each, until `Tracer.totals` turns them into per-name calls, total time and
self time (a span's duration minus the durations of its direct children).
A target may name a count key and an increment(args, result), taken after
the span closes.

A target that no longer exists is recorded in `missing` and its span label
and count key stay absent, so that the metrics it feeds read as missing
rather than as zero.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts: dict[str, float] = {}
        self.missing: set[str] = set()
        self._undo: list = []

    def _wrap(self, label: str, fn, counter=None):
        nid = len(self.names)
        self.names.append(label)
        if counter is not None:
            key, increment = counter
            self.counts[key] = 0
        end, stack, counts = self.end, self.stack, self.counts
        add_name, add_parent = self.name.append, self.parent.append
        add_start, add_end = self.start.append, end.append
        push, pop, clock = stack.append, stack.pop, time.perf_counter_ns
        spans = self.name

        def traced(*args, **kwargs):
            i = len(spans)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0)
            push(i)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                pop()
            if counter is not None:
                counts[key] += increment(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict, targets) -> None:
        """Wrap each (label, module, attribute path, counter) target, where
        counter is None or (count key, increment(args, result)).

        A function is replaced in every orf module that imported it by
        name; a method, classmethod or staticmethod on its class.
        """
        for label, mod_name, path, counter in targets:
            owner = modules.get(mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = (owner.__dict__.get(attr)
                   if owner is not None and hasattr(owner, "__dict__")
                   else None)
            if raw is None:
                self.missing.add(label)
                continue
            if isinstance(owner, type):
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(label, raw.__func__, counter))
                else:
                    new = self._wrap(label, raw, counter)
                self._set(owner, attr, raw, new)
            else:
                new = self._wrap(label, raw, counter)
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._set(mod, key, raw, new)

    def hook(self, modules: dict, label: str, mod_name: str, cls_name: str,
             attr: str, setup, keys) -> None:
        """After each `cls_name.__init__`, call setup(self.counts, obj),
        which sets the instance attribute `attr` (a slot) and counts under
        `keys`."""
        cls = getattr(modules.get(mod_name), cls_name, None)
        if attr not in getattr(cls, "__slots__", ()):
            self.missing.add(label)
            return
        self.counts.update(dict.fromkeys(keys, 0))
        init, counts = cls.__init__, self.counts

        def hooked_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            setup(counts, obj)

        self._set(cls, "__init__", init, hooked_init)

    def _set(self, owner, attr, old, new) -> None:
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def totals(self) -> dict[str, dict]:
        """Per label: calls, total_s and self_s over all recorded spans."""
        n = len(self.name)
        name = np.frombuffer(self.name, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        dur = (np.frombuffer(self.end, dtype=np.int64, count=n)
               - np.frombuffer(self.start, dtype=np.int64, count=n))
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_ = np.bincount(name, weights=dur - child, minlength=k)
        return {label: {"calls": int(calls[nid]),
                        "total_s": float(total[nid]) / 1e9,
                        "self_s": float(self_[nid]) / 1e9}
                for nid, label in enumerate(self.names)}

    @property
    def span_count(self) -> int:
        return len(self.name)


def orf_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "orf" or name.startswith("orf.")}
