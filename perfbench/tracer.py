"""Spans around the program's public functions, installed from outside.

`Tracer.install` wraps every public function defined in the traced
modules and patches each `ladrating` namespace that holds it, so a call is
caught whether it goes through the defining module (`binarize.binarize`
inside `minimize_cutpoints`), an importing module (`cascade.minimize_cutpoints`
inside `train_cascade`) or the package. Spans stay in memory as
(id, parent, run, name, start, end, excluded), times in process CPU
seconds, and are written out by `write`. Counters run after a span closes; their time is excluded from every
open span, so they do not inflate any self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import process_time as clock

MODULES = ("data", "binarize", "patterns", "cascade", "treetext", "evaluate", "cli")

ID, PARENT, RUN, NAME, START, END, EXCLUDED = range(7)


class Tracer:
    def __init__(self, hooks=None):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.notes: set[str] = set()
        self._hooks = hooks or {}
        self._stack: list[list] = []
        self._runs = 0
        self._patched: list[tuple] = []

    def install(self, modules=MODULES) -> int:
        """Wrap the public functions of `ladrating.<module>`; returns how many."""
        namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "ladrating"]
        wrapped = 0
        for short in modules:
            mod = importlib.import_module(f"ladrating.{short}")
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapper)
                            self._patched.append((ns, key, fn))
                wrapped += 1
        return wrapped

    def uninstall(self) -> None:
        """Put every original function back."""
        for ns, key, fn in reversed(self._patched):
            setattr(ns, key, fn)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        signature = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                parent = stack[-1]
                span = [len(spans), parent[ID], parent[RUN], name, 0.0, 0.0, 0.0]
            else:
                self._runs += 1
                span = [len(spans), -1, self._runs, name, 0.0, 0.0, 0.0]
            spans.append(span)
            stack.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                began = clock()
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self.counts, bound.arguments, result)
                except Exception as exc:  # a counter must never fail the call
                    self.notes.add(f"{name} counter: {type(exc).__name__}: {exc}")
                spent = clock() - began
                for open_span in stack:
                    open_span[EXCLUDED] += spent
            return result

        return wrapper

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per span name.

        Inclusive time counts only outermost spans of a name, so a function
        that calls itself is not counted twice.
        """
        net = [s[END] - s[START] - s[EXCLUDED] for s in self.spans]
        children = defaultdict(float)
        for s in self.spans:
            if s[PARENT] >= 0:
                children[s[PARENT]] += net[s[ID]]
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for s in self.spans:
            own[s[NAME]] += net[s[ID]] - children[s[ID]]
            parent = s[PARENT]
            while parent >= 0 and self.spans[parent][NAME] != s[NAME]:
                parent = self.spans[parent][PARENT]
            if parent < 0:
                inclusive[s[NAME]] += net[s[ID]]
        return dict(inclusive), dict(own)

    def write(self, path) -> None:
        """One JSON array per line: id, parent, run, name, start, end, excluded."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
