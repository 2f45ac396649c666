"""In-memory spans around every call into the package's public functions.

``Tracer.install`` replaces each public function of the traced modules with
a wrapper, in every ``ptresonance`` module namespace that refers to it, so
calls from one module into another are recorded too.  A span is
``[name, start, end, parent, job]``; ``parent`` is the index of the
enclosing span (-1 for none) and ``job`` the id of the benchmark job that
caused it.  ``Tracer.remove`` restores the original functions.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "ptresonance"
TRACED_MODULES = ("linalg", "symmetry", "metric", "evolution", "response", "odes", "cli")
JOB = "job"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job_labels: list[str] = []
        self._stack: list[int] = []
        self._job = -1
        self._patches: list[tuple[types.ModuleType, str, object]] = []

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._job])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def job(self, label: str):
        """A root span for one benchmark job."""
        self._job = len(self.job_labels)
        self.job_labels.append(label)
        idx = self._enter(JOB)
        try:
            yield
        finally:
            self._exit(idx)
            self._job = -1

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(idx)

        return traced

    def install(self) -> None:
        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def remove(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def self_times(self):
        """``{(name, job_label): [self seconds, calls]}`` over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[str, str], list] = defaultdict(lambda: [0.0, 0])
        for (name, start, end, _, job), inner in zip(self.spans, child):
            label = self.job_labels[job] if job >= 0 else ""
            entry = out[(name, label)]
            entry[0] += (end - start) - inner
            entry[1] += 1
        return dict(out)

    def job_seconds(self):
        """``{job_label: total wall seconds}`` of the job spans."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, job in self.spans:
            if name == JOB:
                out[self.job_labels[job]] += end - start
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "job"],
                    "job_labels": self.job_labels,
                    "spans": self.spans,
                },
                fh,
            )
