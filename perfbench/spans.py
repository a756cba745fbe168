"""Span tracing from outside the program.

``Tracer.install`` wraps every public function of the given modules, plus a
few public methods, at their module attributes. Every other module attribute
that holds one of those functions (name imports such as
``training.nm_mean``) is pointed at the same wrapper, so a call is traced
whichever name it goes through. ``uninstall`` puts the originals back.

A span is ``[name, start, end, parent, run_id, work]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``run_id`` the benchmark
stage that made the call, and ``work`` a count the span carries (forward
FLOPs for matmul). Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time

import numpy as np

NAME, START, END, PARENT, RUN, WORK = range(6)


def matmul_flops(a, b) -> float:
    """Forward FLOPs of ``a @ b`` from the operand shapes."""
    a_shape = np.shape(getattr(a, "data", a))
    b_shape = np.shape(getattr(b, "data", b))
    return 2.0 * float(np.prod(a_shape)) * float(b_shape[-1])


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.run_id,
                   work(*args) if work is not None else 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()

        return traced

    def install(self, modules, methods, work=None):
        """Wrap the public functions of ``modules`` and the ``methods``
        (pairs of class and method name); ``work`` maps a span name to a
        function of the call's arguments."""
        work = work or {}
        wrappers: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in vars(mod).items():
                # contextmanager factories are skipped: their span would
                # close before the block they guard runs
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or hasattr(fn, "__wrapped__")):
                    continue
                name = f"{short}.{attr}"
                wrappers[id(fn)] = (fn, self._wrap(name, fn, work.get(name)))
        for cls, attr in methods:
            fn = vars(cls)[attr]
            short = cls.__module__.rsplit(".", 1)[-1]
            name = f"{short}.{cls.__name__}.{attr}"
            self._patch(cls, attr, self._wrap(name, fn, work.get(name)))
        package = modules[0].__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != package:
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # --- summaries -----------------------------------------------------

    def table(self) -> "SpanTable":
        return SpanTable(self.spans)

    def write(self, path, header: dict):
        """Write the header and every span as JSON lines, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


class SpanTable:
    """Column view of the spans with self times."""

    def __init__(self, spans: list[list]):
        self.name = np.array([s[NAME] for s in spans], dtype=object)
        self.run = np.array([s[RUN] for s in spans], dtype=object)
        self.work = np.array([s[WORK] for s in spans], dtype=np.float64)
        parent = np.array([s[PARENT] for s in spans], dtype=np.int64)
        self.dur = np.array([s[END] - s[START] for s in spans], dtype=np.float64)
        has_parent = parent >= 0
        # a layer's self time is its duration minus its children's
        self.self_time = self.dur.copy()
        np.subtract.at(self.self_time, parent[has_parent], self.dur[has_parent])
        self.module = np.array([n.split(".", 1)[0] for n in self.name], dtype=object)
        # a numeric span that calls no other numeric function is one tape op
        numeric_child = np.zeros(len(spans), dtype=bool)
        numeric_child[parent[has_parent & (self.module == "numeric")]] = True
        self.is_op = (self.module == "numeric") & ~numeric_child

    def select(self, names=None, runs=None, exclude=None) -> np.ndarray:
        mask = np.ones(len(self.name), dtype=bool)
        if names is not None:
            mask &= np.isin(self.name, list(names))
        if exclude is not None:
            mask &= ~np.isin(self.name, list(exclude))
        if runs is not None:
            mask &= np.isin(self.run, list(runs))
        return mask

    def summary(self, top: int = 25) -> list[str]:
        """Self-time table: the ``top`` span names by total self time."""
        names = sorted(set(self.name))
        rows = []
        for n in names:
            m = self.name == n
            rows.append((float(self.self_time[m].sum()), float(self.dur[m].sum()),
                         int(m.sum()), n))
        rows.sort(reverse=True)
        grand = sum(r[0] for r in rows) or 1.0
        out = [f"{'span':<40} {'calls':>9} {'total_s':>9} {'self_s':>9} {'self%':>6}"]
        for self_s, total_s, calls, n in rows[:top]:
            out.append(f"{n:<40} {calls:>9} {total_s:>9.3f} {self_s:>9.3f} "
                       f"{100 * self_s / grand:>6.1f}")
        return out
