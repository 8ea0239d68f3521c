"""Span tracing of sdvkit's layers, installed from outside the package.

`Tracer.install` replaces each public function of the layer modules with a
wrapper that records a span (name, start, end, parent) and rebinds the wrapper
under every ``sdvkit`` module attribute that holds the original function, so
that names imported with ``from .x import f`` are traced as well.  Functions
called once per vector element only get a call counter, because timing each of
them would cost as much as the work it measures.  `Tracer.uninstall` puts every
original back.

A span's self time is its duration minus the durations of its direct children.
Spans are single-threaded and properly nested, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("workloads", "vstream", "isa", "emulator", "tracefile", "timing",
          "analysis", "prv", "scheduler")

# Called once per vector element: counted, never timed.
COUNT_ONLY_FUNCTIONS = {("emulator", "fused_madd")}
COUNT_ONLY_METHODS = {("emulator", "Memory"): ("read_u64", "write_u64",
                                               "read_bytes", "write_bytes")}


def _first_len(args, kwargs, result):
    return len(args[0])


def _result_len(args, kwargs, result):
    return len(result)


def _run_records(args, kwargs, result):
    return len(result[1])


# How many records (or stream items) one call of a layer function handles.
RECORD_COUNTS = {
    "timing.simulate": _first_len,
    "timing.emit_timeline": _first_len,
    "tracefile.write_trace": _first_len,
    "tracefile.read_trace": _result_len,
    "prv.to_prv": _first_len,
    "analysis.phase_metrics": _first_len,
    "emulator.run": _run_records,
}
ITEM_COUNTS = {
    "vstream.parse_vstream": _result_len,
    "vstream.write_vstream": _first_len,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index or -1]
        self.calls: Counter = Counter()  # count-only functions
        self.records: Counter = Counter()
        self.items: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        record = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _timed(self, name: str, fn):
        records = RECORD_COUNTS.get(name)
        items = ITEM_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if records is not None:
                self.records[name] += records(args, kwargs, result)
            if items is not None:
                self.items[name] += items(args, kwargs, result)
            return result
        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        replacements = {}
        for layer in LAYERS:
            module = importlib.import_module(f"sdvkit.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if (layer, attr) in COUNT_ONLY_FUNCTIONS:
                    replacements[obj] = self._counted(name, obj)
                else:
                    replacements[obj] = self._timed(name, obj)
        for (layer, cls_name), methods in COUNT_ONLY_METHODS.items():
            cls = getattr(importlib.import_module(f"sdvkit.{layer}"), cls_name)
            for method in methods:
                original = vars(cls)[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._counted(f"{layer}.{cls_name}.{method}", original))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "sdvkit"
                                      or module_name.startswith("sdvkit.")):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = replacements.get(obj) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s and self_s, summed over all spans."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        stats: dict[str, dict[str, float]] = {}
        for (name, start, end, _), children in zip(self.spans, child_s):
            entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children
        for name, count in self.calls.items():
            stats.setdefault(name, {})["calls"] = count
        for name, count in self.records.items():
            stats[name]["records"] = count
        for name, count in self.items.items():
            stats[name]["items"] = count
        return stats
