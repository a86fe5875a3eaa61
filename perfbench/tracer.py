"""In-memory span tracing installed from outside the program.

The program under test carries no benchmark hooks.  :class:`Tracer`
wraps public functions and methods of each ``repro`` layer for the
duration of a traced run, records one span per call (name, start, end,
span id, parent span id, thread) and restores every original object
afterwards.

A function bound into other modules by ``from ... import`` is patched
in every ``repro`` module that holds the same object, because a call
looks the name up in the caller's module: wrapping only
``repro.mitigation.reconstruction.bayesian_reconstruct`` would miss
``repro.core.varsaw.bayesian_reconstruct``.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

#: Marker attribute carried by every wrapper, so a scan can prove that
#: no wrapper outlives :meth:`Tracer.restore`.
WRAPPER_MARK = "__perfbench_wrapper__"

# Span tuple layout (tuples keep the traced hot path cheap).
NAME, START, END, SPAN_ID, PARENT, THREAD, OUTERMOST, EXTRA = range(8)


class Tracer:
    """Patch layer entry points, record spans, and undo the patches."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # (owner, attribute, original raw value) in patch order.
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, name, extra=None):
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.active = defaultdict(int)
            active = local.active
            parent = stack[-1] if stack else 0
            span_id = next(ids)
            outermost = active[name] == 0
            info = extra(args) if extra is not None else None
            stack.append(span_id)
            active[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                spans.append((
                    name, start, end, span_id, parent,
                    threading.get_ident(), outermost, info,
                ))

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, WRAPPER_MARK, name)
        return wrapper

    def patch_function(self, module_name: str, attr: str, name: str) -> None:
        """Wrap a module-level function at every ``repro`` binding site."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        wrapper = self._wrap(original, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            namespace = getattr(mod, "__dict__", {})
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls: type, attr: str, name: str,
                     extra=None) -> None:
        """Wrap a method defined in ``cls``'s own namespace."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            patched = classmethod(self._wrap(raw.__func__, name, extra))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(self._wrap(raw.__func__, name, extra))
        else:
            patched = self._wrap(raw, name, extra)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, patched)

    def restore(self) -> None:
        """Put every original object back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ analysis

    def clear(self) -> None:
        """Drop recorded spans (patches stay installed)."""
        self.spans.clear()

    def summary(self, regions, length) -> dict:
        """Per-name calls, busy and self time, plus attribution.

        ``length(start, end)`` measures an interval.  ``busy`` sums the
        lengths of spans with no ancestor of the same name (recursion
        and ``super()`` chains count once); ``self`` is each span's
        length minus its direct children's.  ``covered_s`` is the length
        of the part of ``regions`` (the timed intervals) during which any
        span was open on any thread.
        """
        spans = list(self.spans)
        lengths = [length(s[START], s[END]) for s in spans]
        child_time: dict[int, float] = defaultdict(float)
        for span, span_length in zip(spans, lengths):
            if span[PARENT]:
                child_time[span[PARENT]] += span_length
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        for span, span_length in zip(spans, lengths):
            calls[span[NAME]] += 1
            self_time[span[NAME]] += (
                span_length - child_time[span[SPAN_ID]]
            )
            if span[OUTERMOST]:
                busy[span[NAME]] += span_length
        covered = _covered([(s[START], s[END]) for s in spans], regions)
        return {
            "calls": dict(calls),
            "busy": dict(busy),
            "self": dict(self_time),
            "covered_s": sum(length(a, b) for a, b in covered),
        }


def _covered(intervals, regions) -> list[tuple[float, float]]:
    """Pieces of the union of ``intervals`` that fall inside ``regions``."""
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    ends = [end for _, end in merged]
    pieces = []
    for r_start, r_end in regions:
        i = bisect.bisect_right(ends, r_start)
        while i < len(merged) and merged[i][0] < r_end:
            start, end = merged[i]
            pieces.append((max(start, r_start), min(end, r_end)))
            i += 1
    return pieces


def leftover_wrappers() -> list[str]:
    """Every wrapper still reachable from a ``repro`` module or class."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (
            mod_name == "repro" or mod_name.startswith("repro.")
        ):
            continue
        for key, value in list(getattr(mod, "__dict__", {}).items()):
            if hasattr(value, WRAPPER_MARK):
                found.append(f"{mod_name}.{key}")
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, raw in list(value.__dict__.items()):
                    target = getattr(raw, "__func__", raw)
                    if hasattr(target, WRAPPER_MARK):
                        found.append(f"{mod_name}.{key}.{attr}")
    return found
