"""Layer tracer: spans around the public functions of the package modules.

Used only in a traced run. It rebinds every public function of the layer
modules, wherever a layer module or the package namespace holds a reference
to it (so re-imported names such as overlay.estimate_dimension and the
module attributes cli calls through are covered), and wraps the CellSet
constructor. Each call records a span: name, start, end, parent span and run
id, plus work counts read from the call's arguments and result. Spans stay in
memory; the worker writes them out when it finishes. Leaving the context
restores every rebound name to the original object.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "cvtfractals"
LAYERS = ("table", "dimension", "overlay", "raster", "melody", "cli")


def _file_bytes(args, result):
    return {"bytes_written": os.path.getsize(args["path"])}


# work counts recorded at the span boundary, from the call's arguments and result
COUNTERS = {
    "table.CellSet": lambda args, result: {"cells": len(args["self"])},
    "table.write_cells_csv": _file_bytes,
    "table.write_table_csv": _file_bytes,
    "dimension.box_count": lambda args, result: {"boxes": result},
    "raster.write_pnm": lambda args, result: {
        "pixels": args["image"].width * args["image"].height,
        **_file_bytes(args, result),
    },
    "melody.cells_to_notes": lambda args, result: {"notes": len(result)},
    "melody.write_midi": lambda args, result: {"midi_bytes": os.path.getsize(args["path"])},
}
# ratios of a self time and a count, not measurements of their own
COMPUTED = ("table.CellSet.ns_per_cell", "raster.write_pnm.ns_per_pixel")
COUNT_NAMES = ("table.cells", "table.bytes_written", "dimension.boxes", "raster.pixels",
               "raster.bytes_written", "melody.notes", "melody.midi_bytes")


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """Collects spans while installed; `run` labels the spans of one invocation."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.names: set[str] = set()
        self.run = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack
        self.names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": perf_counter(), "end": None,
                    "parent": stack[-1] if stack else None, "run": self.run, "error": None}
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = perf_counter()
                stack.pop()
            if counter is not None:
                span["counts"] = counter(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        namespaces = [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS]
        namespaces.append(importlib.import_module(PACKAGE))
        wrappers = {}
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                layer = value.__module__.rpartition(".")[2]
                if value.__module__ != f"{PACKAGE}.{layer}" or layer not in LAYERS:
                    continue
                if value.__name__.startswith("_"):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(f"{layer}.{value.__name__}", value)
                self._patch(namespace, attr, wrappers[value])
        cellset = importlib.import_module(f"{PACKAGE}.table").CellSet
        self._patch(cellset, "__init__", self._wrap("table.CellSet", cellset.__init__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def layer_metrics(spans: list[dict], names, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run of a plan.

    A span's self time is its duration minus the durations of its direct
    children (calls are nested on one thread, so children never overlap).
    `<layer>.errors` counts exceptions that leave the layer: raised by a span
    whose parent belongs to another layer or which has no parent.
    """
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    metrics: dict[str, float] = {f"{name}.s": 0.0 for name in names}
    metrics.update({f"{layer}.s": 0.0 for layer in LAYERS})
    metrics.update({f"{layer}.errors": 0 for layer in LAYERS})
    metrics.update({name: 0 for name in COUNT_NAMES})
    for i, span in enumerate(spans):
        name, layer = span["name"], _layer(span["name"])
        self_s = span["end"] - span["start"] - child_time[i]
        metrics[f"{name}.s"] += self_s
        metrics[f"{layer}.s"] += self_s
        for counter, value in span.get("counts", {}).items():
            metrics[f"{layer}.{counter}"] += value
        parent = span["parent"]
        if span["error"] and (parent is None or _layer(spans[parent]["name"]) != layer):
            metrics[f"{layer}.errors"] += 1
    metrics["dimension.box_count.calls"] = sum(s["name"] == "dimension.box_count" for s in spans)
    metrics["table.CellSet.ns_per_cell"] = (
        metrics["table.CellSet.s"] * 1e9 / metrics["table.cells"] if metrics["table.cells"] else 0.0)
    metrics["raster.write_pnm.ns_per_pixel"] = (
        metrics["raster.write_pnm.s"] * 1e9 / metrics["raster.pixels"]
        if metrics["raster.pixels"] else 0.0)
    metrics["trace.wall_s"] = wall_s
    metrics["bench.s"] = wall_s - sum(metrics[f"{layer}.s"] for layer in LAYERS)
    return metrics
