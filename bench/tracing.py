"""In-memory spans around the public functions of each chebymargin layer.

The benchmark installs the wrappers from its own files; the library is not
changed.  Each public function is replaced at the module where its caller
looks it up: ``toytrain`` binds ``loss_forward`` and ``CosineBatch`` with
``from .losses import``, and ``cli`` binds ``train`` the same way, so those
names are wrapped in the importing module; ``losses``, ``landscape`` and
``cli`` reach ``cheby_core``, ``verif_metrics`` and ``landscape`` through
the module attribute, so those are wrapped on the module itself.

A span records its op id, its own id, its parent's id, the layer-qualified
name, start and end, the work counts of the call, and (only while memory
tracing is on) the peak of traced allocations above the level at entry.
"""

from __future__ import annotations

import functools
import json
import os
import time
import tracemalloc
from collections import defaultdict

CHEBY_POINT_FUNCS = ("clenshaw_eval", "series_derivative", "series_hessian")
CHEBY_EXACT_FUNCS = ("exact_psi", "exact_psi_grad", "exact_psi_hessian")
CHEBY_FUNCS = CHEBY_POINT_FUNCS + CHEBY_EXACT_FUNCS


class _Frame:
    __slots__ = ("span", "mem_start", "peak_seen")

    def __init__(self, span, mem_start):
        self.span = span
        self.mem_start = mem_start
        self.peak_seen = 0


class Tracer:
    """Collects spans for ops numbered by :attr:`op_id`."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op_id = 0
        self.memory = False
        self._stack: list[_Frame] = []

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``count(args, kwargs, result)`` returns the work counts of the call;
        it runs after the span has ended.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = {
                "op": self.op_id,
                "id": len(self.spans),
                "parent": parent.span["id"] if parent else None,
                "name": name,
            }
            self.spans.append(span)
            mem_start = 0
            if self.memory:
                current, peak = tracemalloc.get_traced_memory()
                if parent:
                    parent.peak_seen = max(parent.peak_seen, peak)
                tracemalloc.reset_peak()
                mem_start = current
            frame = _Frame(span, mem_start)
            self._stack.append(frame)
            span["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                self._stack.pop()
                if self.memory:
                    peak = max(frame.peak_seen, tracemalloc.get_traced_memory()[1])
                    span["peak_bytes"] = peak - frame.mem_start
                    if parent:
                        parent.peak_seen = max(parent.peak_seen, peak)
            if count is not None:
                span["counts"] = count(args, kwargs, result)
            return result

        return traced

    def op_summary(self, op_id: int) -> dict:
        """Per-name calls, total time, self time, counts and peak for one op.

        Self time is a span's duration minus the durations of its direct
        children; the program is single-threaded, so children never overlap.
        """
        spans = [s for s in self.spans if s["op"] == op_id]
        child_time = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["t1"] - s["t0"]
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "peak_bytes": 0})
        counts: dict = defaultdict(float)
        for s in spans:
            entry = out[s["name"]]
            duration = s["t1"] - s["t0"]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - child_time[s["id"]]
            entry["peak_bytes"] = max(entry["peak_bytes"], s.get("peak_bytes", 0))
            for key, value in s.get("counts", {}).items():
                counts[key] += value
        return {"spans": dict(out), "counts": dict(counts)}

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def layer_patches(tracer: Tracer, modules) -> list[tuple]:
    """``(module, attribute, original, traced)`` for each wrapped public function.

    ``modules`` maps layer names to the imported chebymargin modules.
    Nothing is replaced until :func:`set_traced` is called.
    """
    import numpy as np

    cheby_core, losses, toytrain = modules["cheby_core"], modules["losses"], modules["toytrain"]
    verif_metrics, landscape, cli = modules["verif_metrics"], modules["landscape"], modules["cli"]
    patches = []

    def add(module, attribute, name, count=None):
        original = getattr(module, attribute)
        patches.append((module, attribute, original, tracer.wrap(name, original, count)))

    def points_at(index):
        return lambda args, kwargs, result: {"cheby_core.points": np.size(args[index])}

    for fname in CHEBY_FUNCS:
        index = 1 if fname in CHEBY_POINT_FUNCS else 0
        add(cheby_core, fname, f"cheby_core.{fname}", points_at(index))

    def cells(args, kwargs, result):
        return {"losses.cells": args[1].cosines.size}

    for module in (losses, toytrain):
        add(module, "loss_forward", "losses.loss_forward", cells)
        add(module, "CosineBatch", "losses.CosineBatch")
    add(toytrain, "make_sphere_clusters", "toytrain.make_sphere_clusters")
    add(cli, "train", "toytrain.train",
        lambda args, kwargs, result: {"toytrain.steps": len(result.records)})

    def trials_read(args, kwargs, result):
        return {
            "verif_metrics.trials": len(result),
            "verif_metrics.bytes_read": sum(os.path.getsize(p) for p in args[:2]),
        }

    add(verif_metrics, "parse_trials", "verif_metrics.parse_trials", trials_read)
    for fname in ("compute_eer", "compute_min_dcf"):
        add(verif_metrics, fname, f"verif_metrics.{fname}")

    def rows_written(rows_of, out_index):
        def count(args, kwargs, result):
            return {
                "landscape.rows_written": rows_of(result),
                "landscape.bytes_written": os.path.getsize(args[out_index]),
            }

        return count

    add(landscape, "export_surfaces", "landscape.export_surfaces",
        rows_written(lambda b: sum(s.size for s in b.surfaces.values()), 2))
    add(landscape, "export_curves", "landscape.export_curves",
        rows_written(lambda b: b.x.size, 3))
    return patches


def set_traced(patches, on: bool) -> None:
    """Install the traced wrappers, or put the originals back."""
    for module, attribute, original, traced in patches:
        setattr(module, attribute, traced if on else original)
