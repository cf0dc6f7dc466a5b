"""In-memory span recorder for the traced benchmark run.

A span has a name, start and end (``perf_counter_ns``), the index of its
parent span, the run id of the CLI step it belongs to, and counts computed
from the call's arguments. Spans stay in memory and are written when the
run ends. Untraced children never import this module, so they patch nothing.
"""
from __future__ import annotations

import math
import os
import time
from functools import wraps


class SpanRecorder:
    def __init__(self):
        self.spans: list[dict] = []
        self.run_id: str | None = None
        self._stack: list[int] = []

    def call(self, name: str, fn, args=(), kwargs=None, count=None):
        kwargs = kwargs or {}
        span = {"name": name, "run": self.run_id,
                "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter_ns()
            self._stack.pop()
        if count is not None:
            span["counts"] = count(result, *args, **kwargs)
        return result

    def wrap(self, name: str, fn, count=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)
        return traced


# counts are computed from the call's arguments (and, for written bytes and
# oracle draws, from what the call returned), never read from the program

def _generate_counts(result, spec, length, replications, rep_offset=0):
    dim = spec.dimension if spec.kind == "gaussian_copula_vector" else 1
    return {"values": int(replications) * int(length) * dim}


def _inversion_counts(result, rows, base=16):
    n_rows, width = (1, len(rows)) if rows.ndim == 1 else rows.shape
    return {"rows": int(n_rows), "elements": int(n_rows) * int(width)}


def _pair_counts(result, data, pair_chunk=1024):
    p = len(data[0])
    return {"pairs": p * (p - 1) // 2}


def _term_counts(result, data, kernel, max_terms=None):
    length = data.length if hasattr(data, "length") else len(data)
    return {"terms": math.comb(length, kernel.order)}


def _draw_counts(result, cfg):
    return {"draws": cfg.theta_draws if result[2] == "mc" else 0}


def _tuple_counts(result, states, H):
    return {"tuples": math.comb(len(states), H.ndim)}


def _byte_counts(result, result_obj, out_dir):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


def install(recorder: SpanRecorder) -> list[str]:
    """Wrap each layer entry point in every module that looks its name up.

    Returns the span names no module holds any more; those layers read 0.
    """
    from tsustat import cli, harness, hidim, processes, ustat

    targets = [
        # span name, attribute, modules holding the name, count function
        ("processes.generate_batch", "generate_batch", [processes, harness, hidim],
         _generate_counts),
        ("ustat.count_inversions", "_count_inversions_batch", [ustat, hidim],
         _inversion_counts),
        ("ustat.kendall_tau_batch", "kendall_tau_batch", [harness], None),
        ("hidim.kendall_matrix", "kendall_matrix", [hidim], _pair_counts),
        ("hidim.max_norm_deviation", "max_norm_deviation", [hidim], None),
        ("ustat.u_statistic", "u_statistic", [ustat, harness], _term_counts),
        ("harness.estimate_theta", "_estimate_theta", [harness], _draw_counts),
        ("harness.u_table_path", "_u_table_path", [harness], _tuple_counts),
        ("ustat.decompose", "decompose", [harness], None),
        ("ustat.check_zero_conditional_means", "check_zero_conditional_means", [harness],
         None),
        # run_bias_curve imports theta_star from ustat at call time
        ("ustat.theta_star", "theta_star", [ustat], None),
        ("harness.map_replication_blocks", "map_replication_blocks", [harness], None),
        ("harness.emit_outputs", "emit_outputs", [cli], _byte_counts),
        ("bounds.calibrate_constants", "calibrate_constants", [cli, harness], None),
    ]
    missing = []
    for name, attr, modules, count in targets:
        wrapped = {}  # id of the original function -> its wrapper
        for module in modules:
            original = getattr(module, attr, None)
            if original is None:
                continue
            if id(original) not in wrapped:
                wrapped[id(original)] = recorder.wrap(name, original, count)
            setattr(module, attr, wrapped[id(original)])
        if not wrapped:
            missing.append(name)
    return missing


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per span name, each span minus the time its child spans cover.

    Spans come from one thread, so the children of a span never overlap.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for s, inner in zip(spans, child_ns):
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"] - inner) / 1e9
    return out


def total_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per span name, child spans included."""
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) / 1e9
    return out


def counts(spans: list[dict]) -> dict[str, int]:
    """Per ``<span name>.<count>``, summed; ``<span name>.calls`` counts spans."""
    out: dict[str, int] = {}
    for s in spans:
        key = f"{s['name']}.calls"
        out[key] = out.get(key, 0) + 1
        for k, v in s.get("counts", {}).items():
            key = f"{s['name']}.{k}"
            out[key] = out.get(key, 0) + v
    return out
