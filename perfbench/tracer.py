"""Outside-in span tracer for brwlab.

The tracer wraps public functions and methods where callers look them up, so
no file of the program changes: a module-level function is replaced in every
``brwlab`` module whose namespace holds it (``brwlab.ldp.evolve`` is the same
object as ``brwlab.engine.evolve``), and a method is replaced on its class.

Spans stay in memory as parallel arrays (name, parent, start, end) and are
written out once, when the run ends.  Everything runs in one thread of
one process, so a plain stack gives each span its parent.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from typing import Callable, Optional

import numpy as np


class Tracer:
    """Records one span per call of every installed target."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(amount)

    def wrap(self, name: str, fn: Callable,
             on_return: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span called ``name``.

        ``on_return(tracer, args, kwargs, result)`` derives exact counts from
        the call's arguments and return value.
        """
        nid = self._name_id(name)
        stack = self._stack
        names_a, parent_a, start_a, end_a = self.name, self.parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start_a)
            names_a.append(nid)
            parent_a.append(stack[-1] if stack else -1)
            start_a.append(0.0)
            end_a.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start_a[idx] = t0
                end_a[idx] = t1
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return traced

    # -- installing ------------------------------------------------------------

    def install(self, targets) -> "Tracer":
        """Patch every ``(span name, owner, attribute, on_return)`` target.

        ``owner`` is a module or a class.  For a module, every loaded
        ``brwlab`` module that imported the same object gets the wrapper too.
        """
        for name, owner, attr, on_return in targets:
            if inspect.isclass(owner):
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self.wrap(name, raw.__func__, on_return))
                else:
                    wrapped = self.wrap(name, raw, on_return)
                self._patch(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, on_return)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "brwlab" and not mod_name.startswith("brwlab."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds.

        Busy time sums the spans of a name; no traced function calls itself,
        directly or through another, so no time is counted twice.  Self time
        is a span's duration minus the durations of its direct children.
        """
        a = self.arrays()
        size = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        calls = np.bincount(a["name"], minlength=size)
        busy = np.bincount(a["name"], weights=dur, minlength=size)
        own = np.bincount(a["name"], weights=dur - child, minlength=size)
        return {name: {"calls": int(calls[i]), "s": float(busy[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
