"""Spans around apamix's public functions, recorded from outside ``src/``.

:class:`Tracer` wraps every public function of the traced modules (the
names in each module's ``__all__``, plus the public methods of the classes
listed there) and rebinds every reference other apamix modules hold to
them, such as the names ``harness`` imports from ``signals`` and
``filters``. A span is ``(name, start_ns, end_ns, parent, run_id)``; spans
stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

MODULES = ("signals", "filters", "combination", "linalg", "harness")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.run_id = ""
        self._stack: list[int] = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[sid] = (name, start, clock(), parent, self.run_id)
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the public functions of every module in MODULES."""
        wrappers = {}  # id(original) -> wrapper
        for short in MODULES:
            mod = importlib.import_module(f"apamix.{short}")
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in vars(obj).items():
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            setattr(obj, meth, self._wrap(fn, f"{short}.{attr}.{meth}"))
        for modname, mod in list(sys.modules.items()):
            if modname != "apamix" and not modname.startswith("apamix."):
                continue
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])

    def write(self, path) -> None:
        """One JSON array per line: name, start_ns, end_ns, parent index, run id."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class SpanTree:
    """Self times and per-module totals of recorded spans."""

    def __init__(self, spans):
        self.spans = spans
        self.children = defaultdict(list)
        for sid, (_, _, _, parent, _) in enumerate(spans):
            if parent >= 0:
                self.children[parent].append(sid)

    def duration(self, sid) -> float:
        _, start, end, _, _ = self.spans[sid]
        return (end - start) * 1e-9

    def self_time(self, sid) -> float:
        return self.duration(sid) - sum(self.duration(c) for c in self.children[sid])

    def find(self, name, run_id) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] == name and s[4] == run_id]

    def descendants(self, sid) -> list[int]:
        out, todo = [], list(self.children[sid])
        while todo:
            c = todo.pop()
            out.append(c)
            todo.extend(self.children[c])
        return out

    def module_self_times(self, roots) -> dict[str, float]:
        """Self time per module over the subtrees of ``roots``, roots included.

        The values add up to the roots' total duration.
        """
        out = defaultdict(float)
        for root in roots:
            for sid in [root, *self.descendants(root)]:
                out[self.spans[sid][0].split(".")[0]] += self.self_time(sid)
        return dict(out)

    def per_call(self, name, run_id) -> tuple[int, float]:
        """Number of calls of ``name`` in ``run_id`` and their total duration."""
        sids = self.find(name, run_id)
        return len(sids), sum(self.duration(i) for i in sids)
