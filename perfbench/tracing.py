"""Spans, per-layer summaries and allocation peaks for the traced run.

The traced run wraps every public function of each qkdlink layer and
records one span per call: name, start, end, the span that caused it, and
the pass (run id) it belongs to.  Spans stay in memory and are summarised
or dumped once the run ends.

A wrapper must be installed at every module attribute through which some
caller looks the function up, not only on its home module.  ``cli`` does
``from .calibrate import calibrate``, so ``calibrate`` must be wrapped as
``qkdlink.cli.calibrate`` too; wrapping ``qkdlink.calibrate.calibrate``
alone would never see a CLI call.  :class:`Patch` therefore scans every
loaded ``qkdlink`` module for attributes that are the original function.
Calls inside a layer that go through a module global (``click_probabilities``
calling ``link_timing``) see the wrapper as well, because the global *is*
the module attribute.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
import types
from collections import Counter, defaultdict
from dataclasses import dataclass

PACKAGE = "qkdlink"
LAYERS = (
    "cli",
    "config",
    "montecarlo",
    "protocol",
    "linkbudget",
    "keyrate",
    "calibrate",
    "sweeps",
)

_MB = float(1 << 20)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the causing span in the same list
    run_id: int


def public_functions(module) -> dict:
    """Functions defined in ``module`` and exported by it (``__all__``)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in vars(module) if not name.startswith("_")]
    found = {}
    for name in names:
        obj = getattr(module, name, None)
        if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
            found[name] = obj
    return found


def layer_functions() -> dict:
    """``{"layer.function": function}`` over every layer's public functions."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, fn in public_functions(module).items():
            found[f"{layer}.{name}"] = fn
    return found


class Patch:
    """Context manager that swaps functions wherever a qkdlink module holds them.

    ``replacements`` maps each original function to its wrapper.  On exit
    every swapped attribute gets its original back, in reverse order.
    """

    def __init__(self, replacements: dict):
        self._by_id = {id(fn): (fn, wrapper) for fn, wrapper in replacements.items()}
        self._undo: list = []

    def __enter__(self) -> "Patch":
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == PACKAGE or module_name.startswith(PACKAGE + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._by_id.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._undo.append((module, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)


class Recorder:
    """Collects spans and counts from wrapped layer functions.

    ``observers`` maps a span name to ``observe(counts, args, kwargs, result)``,
    which adds counts measured at that boundary (tags emitted, bytes
    written, fit iterations) to the current run's :class:`Counter`.
    """

    def __init__(self, observers: dict | None = None):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.run_id = 0
        self._observers = observers or {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent, self.run_id)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(self.counts[span.run_id], args, kwargs, result)
            return result

        return traced

    def patch(self, functions: dict) -> Patch:
        """A :class:`Patch` that traces ``{"layer.fn": fn}``."""
        return Patch({fn: self.wrap(name, fn) for name, fn in functions.items()})

    def dump(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "run_id": s.run_id,
            }
            for s in self.spans
        ]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            start = max(span.start, parent.start)
            end = min(span.end, parent.end)
            if end > start:
                children[span.parent].append((start, end))
    return [
        (span.end - span.start) - _covered(children.get(i, []))
        for i, span in enumerate(spans)
    ]


def summarize(spans: list[Span]) -> dict[int, dict[str, dict[str, float]]]:
    """Per run id and span name: inclusive seconds, self seconds, calls.

    Inclusive time counts only the outermost span of a name, so a
    function that re-enters itself is not counted twice.
    """
    own = self_times(spans)
    out: dict[int, dict[str, dict[str, float]]] = defaultdict(dict)
    for i, span in enumerate(spans):
        row = out[span.run_id].setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["calls"] += 1
        row["self_s"] += own[i]
        outer = span.parent
        while outer is not None and spans[outer].name != span.name:
            outer = spans[outer].parent
        if outer is None:
            row["s"] += span.end - span.start
    return dict(out)


def calls_within(spans: list[Span], name: str, ancestor: str) -> int:
    """Number of ``name`` spans caused, directly or not, by an ``ancestor`` span."""
    found = 0
    for span in spans:
        if span.name != name:
            continue
        outer = span.parent
        while outer is not None and spans[outer].name != ancestor:
            outer = spans[outer].parent
        found += outer is not None
    return found


class PeakTracker:
    """Peak traced allocation above the entry level, per wrapped call.

    ``tracemalloc`` keeps a single peak, so entering a nested call folds
    the peak reached so far into every open frame before resetting it.
    Only for a separate, untimed pass: tracing allocations slows the event
    engine several-fold.
    """

    def __init__(self):
        self.peak_mb: dict[str, float] = {}
        self._frames: list[list[float]] = []  # [entry_bytes, highest_seen]

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def tracked(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            for frame in self._frames:
                frame[1] = max(frame[1], peak)
            tracemalloc.reset_peak()
            self._frames.append([current, current])
            try:
                return fn(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                entry, seen = self._frames.pop()
                top = max(seen, peak)
                for frame in self._frames:
                    frame[1] = max(frame[1], top)
                mb = (top - entry) / _MB
                self.peak_mb[name] = max(self.peak_mb.get(name, 0.0), mb)

        return tracked

    def patch(self, functions: dict) -> Patch:
        return Patch({fn: self.wrap(name, fn) for name, fn in functions.items()})
