"""In-memory spans around the benchmark's calls into halfcross, and the
per-layer metrics derived from them.

A span records a name (``<module>.<function>``), start and end times from
``time.perf_counter``, the index of its parent span, the trace id of the
request it belongs to, and counts attached by the caller (bytes written,
search nodes, cells verified).  Spans stay in memory and are written out once
the run ends.  A disabled tracer records nothing, so the untraced run pays
only the cost of entering a no-op context manager.
"""

from __future__ import annotations

import json
import math
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

#: per-layer metrics reported by a traced run, with their units; every
#: workload reports all of them, and a layer the workload never calls reads 0
PER_LAYER = {
    "tiling.verify.s": "s",
    "tiling.verify.cells": "count",
    "tiling.verify.peak_mb": "MB",
    "tiling.verify.uncovered": "count",
    "tiling.verify.multiply_covered": "count",
    "tiling.read_tiling.s": "s",
    "tiling.write_tiling.s": "s",
    "tiling.write_tiling.bytes": "bytes",
    "tiling.normalize.s": "s",
    "tiling.structural_audit.s": "s",
    "tiling.PeriodicTiling.s": "s",
    "lattice.is_lattice_tiling.s": "s",
    "constructions.from_ternary_perfect.s": "s",
    "codes.ternary_hamming.s": "s",
    "codes.binary_hamming.s": "s",
    "codes.is_perfect.s": "s",
    "constructions.locate_tile_ternary.calls": "count",
    "constructions.locate_tile_ternary.p50_us": "us",
    "constructions.locate_tile_ternary.p99_us": "us",
    "constructions.locate_tile_binary.calls": "count",
    "constructions.locate_tile_binary.p50_us": "us",
    "constructions.locate_tile_binary.p99_us": "us",
    "search.search_tilings.s": "s",
    "search.search_tilings.nodes": "count",
    "search.search_tilings.nodes_per_s": "1/s",
    "search.search_tilings.solutions": "count",
    "svgout.svg_document.s": "s",
    "svgout.svg_document.bytes": "bytes",
    "trace.overhead_s": "s",
}

# span name -> the counts summed into "<name>.<count>" metrics
_SUMMED_COUNTS = {
    "tiling.verify": ("cells", "uncovered", "multiply_covered"),
    "tiling.write_tiling": ("bytes",),
    "search.search_tilings": ("nodes", "solutions"),
    "svgout.svg_document": ("bytes",),
}
_LATENCY_SPANS = ("constructions.locate_tile_ternary", "constructions.locate_tile_binary")


class Tracer:
    """Collects spans when enabled; a disabled tracer is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._traces = 0

    @contextmanager
    def span(self, name: str, *, new_trace: bool = False, memory: bool = False):
        """Time the enclosed call as a span; yields a dict for its counts.

        ``new_trace`` starts a new request (trace id); otherwise the span
        joins the request of the innermost open span.  ``memory`` records the
        tracemalloc peak of the enclosed call as ``peak_mb``.
        """
        counts: dict = {}
        if not self.enabled:
            yield counts
            return
        if new_trace or not self._open:
            self._traces += 1
            trace_id, parent = self._traces, None
        else:
            parent = self._open[-1]
            trace_id = self.spans[parent]["trace"]
        record = {"name": name, "trace": trace_id, "parent": parent, "counts": counts}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        if memory:
            tracemalloc.start()
        record["start"] = time.perf_counter()
        try:
            yield counts
        finally:
            record["end"] = time.perf_counter()
            if memory:
                counts["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            self._open.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}) + "\n", encoding="ascii")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 1]) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def layer_metrics(spans: list[dict], overhead_s: float) -> dict[str, float]:
    """Every metric of PER_LAYER, from the spans of one traced pass and set-up."""
    durations: dict[str, list[float]] = {}
    sums: dict[str, float] = {}
    peaks: dict[str, float] = {}
    for s in spans:
        name = s["name"]
        durations.setdefault(name, []).append(s["end"] - s["start"])
        for key in _SUMMED_COUNTS.get(name, ()):
            sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0) + s["counts"][key]
        if "peak_mb" in s["counts"]:
            peaks[name] = max(peaks.get(name, 0.0), s["counts"]["peak_mb"])

    out: dict[str, float] = {}
    for metric in PER_LAYER:
        if metric.endswith(".s"):
            out[metric] = sum(durations.get(metric[: -len(".s")], ()))
        elif metric in sums:
            out[metric] = sums[metric]
        else:
            out[metric] = 0
    out["tiling.verify.peak_mb"] = peaks.get("tiling.verify", 0.0)
    for name in _LATENCY_SPANS:
        times = durations.get(name, [])
        out[f"{name}.calls"] = len(times)
        out[f"{name}.p50_us"] = percentile(times, 0.5) * 1e6 if times else 0.0
        out[f"{name}.p99_us"] = percentile(times, 0.99) * 1e6 if times else 0.0
    search_s = out["search.search_tilings.s"]
    out["search.search_tilings.nodes_per_s"] = (
        out["search.search_tilings.nodes"] / search_s if search_s else 0.0
    )
    out["trace.overhead_s"] = overhead_s
    return out
