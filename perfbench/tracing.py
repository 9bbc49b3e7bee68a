"""Span tracing of l1lattice from outside the package.

The traced run wraps public functions of the package modules named in
``TRACED``. Every module namespace that binds a traced function gets the
wrapper, because ``cli`` and ``operators`` import functions by name while
``extension`` reaches ``lp.solve`` through the module. Spans (name, start,
end, parent span, request id) are kept in memory, written out when the run
ends, and reduced to per-request self times and counts.

Self time is a span's duration minus the durations of its direct children.
Spans nest strictly because the benchmark runs one request at a time on one
thread, so the children's durations are exactly the time they cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# module -> public functions wrapped in the traced run
TRACED = {
    "decompose": ("decompose_real", "decompose_complex", "prune",
                  "verify_decomposition", "verify_cell_decomposition",
                  "refine_to_constant_coeffs", "eps_net_coeffs",
                  "optimal_k_search"),
    "operators": ("proof_trace_real", "proof_trace_complex",
                  "check_grothendieck"),
    "tensor": ("tensor_norm", "canonical_rep"),
    "extension": ("alpha_via_lp", "verify_extension_theorem",
                  "check_condition_b"),
    "lp": ("solve",),
    "oracle": ("solve_exact",),
    "jsonio": ("read_json", "write_json",
               "family_from_json", "operator_from_json", "tensor_from_json",
               "subspace_from_json", "images_from_json", "fn_from_json",
               "family_to_json", "operator_to_json", "tensor_to_json",
               "subspace_to_json", "images_to_json", "fn_to_json",
               "decomposition_to_json", "cell_decomposition_to_json"),
    "cli": ("main",),
}


class Tracer:
    """In-memory span recorder plus counters taken at the same boundaries."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.request = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- counters ---------------------------------------------------------
    def add(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def high(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0.0), value)

    # -- spans ------------------------------------------------------------
    def wrap(self, name: str, fn, after=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def install(self, lib) -> None:
        """Wrap every function in ``TRACED`` wherever a package module
        binds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "l1lattice" or n.startswith("l1lattice.")]
        for mod_name, names in TRACED.items():
            mod = getattr(lib, mod_name)
            for fn_name in names:
                orig = getattr(mod, fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", orig,
                                    _AFTER.get(f"{mod_name}.{fn_name}"))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._undo.append((m, attr, orig))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._undo):
            setattr(m, attr, orig)
        self._undo.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, req in self.spans:
                fh.write(json.dumps([name, start, end, parent, req]) + "\n")

    # -- reduction --------------------------------------------------------
    def self_times(self) -> dict[str, tuple[float, int]]:
        """Total self seconds and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, [0.0, 0])
            entry[0] += (end - start) - child[i]
            entry[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}


# -- counters recorded after a traced call returns ------------------------

def _after_decompose(tr, args, kwargs, d):
    tr.add("decompose.parts_emitted", d.k)


def _after_prune(tr, args, kwargs, d):
    tr.add("decompose.prune_before", args[0].k)
    tr.add("decompose.prune_kept", d.k)


def _after_cells(tr, args, kwargs, cd):
    tr.add("decompose.cells", len(cd.cells))


def _after_optimal_k(tr, args, kwargs, res):
    tr.add("decompose.optimal_k_candidates", res.candidates_tried)


def _after_solve(tr, args, kwargs, sol):
    p = args[0]
    tr.high("lp.vars_max", p.n_vars)
    tr.high("lp.rows_max", p.n_eq + p.n_ub)
    tr.add("lp.optimal", 1.0 if sol.status == "optimal" else 0.0)


def _after_write(tr, args, kwargs, result):
    tr.add("jsonio.bytes_written", os.path.getsize(args[0]))


_AFTER = {
    "decompose.decompose_real": _after_decompose,
    "decompose.decompose_complex": _after_decompose,
    "decompose.prune": _after_prune,
    "decompose.refine_to_constant_coeffs": _after_cells,
    "decompose.eps_net_coeffs": _after_cells,
    "decompose.optimal_k_search": _after_optimal_k,
    "lp.solve": _after_solve,
    "jsonio.write_json": _after_write,
}

# per-layer metric -> span names whose self time it sums
SELF_MS = {
    "decompose.split_ms": ("decompose.decompose_real",
                           "decompose.decompose_complex"),
    "decompose.verify_ms": ("decompose.verify_decomposition",
                            "decompose.verify_cell_decomposition"),
    "decompose.refine_ms": ("decompose.refine_to_constant_coeffs",
                            "decompose.eps_net_coeffs"),
    "decompose.optimal_k_ms": ("decompose.optimal_k_search",),
    "operators.trace_ms": ("operators.proof_trace_real",
                           "operators.proof_trace_complex"),
    "operators.check_ms": ("operators.check_grothendieck",),
    "tensor.norm_ms": ("tensor.tensor_norm",),
    "tensor.canonical_ms": ("tensor.canonical_rep",),
    "extension.alpha_self_ms": ("extension.alpha_via_lp",),
    "extension.verify_self_ms": ("extension.verify_extension_theorem",),
    "extension.condition_b_ms": ("extension.check_condition_b",),
    "lp.solve_ms": ("lp.solve",),
    "oracle.solve_ms": ("oracle.solve_exact",),
    "jsonio.decode_ms": ("jsonio.read_json",) + tuple(
        f"jsonio.{n}" for n in TRACED["jsonio"] if n.endswith("_from_json")),
    "jsonio.encode_ms": tuple(
        f"jsonio.{n}" for n in TRACED["jsonio"] if n.endswith("_to_json")),
    "jsonio.write_ms": ("jsonio.write_json",),
    "cli.self_ms": ("cli.main",),
}

# per-layer metric -> span names whose calls it counts
CALLS = {
    "decompose.split_calls": ("decompose.decompose_real",
                              "decompose.decompose_complex"),
    "tensor.norm_calls": ("tensor.tensor_norm",),
    "extension.alpha_calls": ("extension.alpha_via_lp",),
    "lp.solve_calls": ("lp.solve",),
    "oracle.calls": ("oracle.solve_exact",),
}

# per-request counters
PER_REQUEST = ("decompose.parts_emitted", "decompose.cells",
               "decompose.optimal_k_candidates", "jsonio.bytes_written")

LAYERS = tuple(TRACED)

# every per-layer metric with its unit, in report order
PER_LAYER = {
    **{m: "ms" for m in SELF_MS},
    **{m: "count" for m in CALLS},
    "decompose.parts_emitted": "count",
    "decompose.cells": "count",
    "decompose.optimal_k_candidates": "count",
    "jsonio.bytes_written": "bytes",
    "decompose.parts_kept_ratio": "ratio",
    "lp.ms_per_call": "ms",
    "lp.optimal_ratio": "ratio",
    "lp.vars_max": "count",
    "lp.rows_max": "count",
    **{f"share.{layer}": "fraction" for layer in LAYERS + ("untraced",)},
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(tracer: Tracer, requests: int, busy_s: float,
                  untraced_rps: float, traced_rps: float) -> dict[str, float]:
    """Reduce the spans and counters of the traced phase to the per-layer
    metrics, per request where the name says so."""
    st = tracer.self_times()
    out: dict[str, float] = {}
    per = 1.0 / requests
    for metric, names in SELF_MS.items():
        out[metric] = 1e3 * per * sum(st.get(n, (0.0, 0))[0] for n in names)
    for metric, names in CALLS.items():
        out[metric] = per * sum(st.get(n, (0.0, 0))[1] for n in names)
    for key in PER_REQUEST:
        out[key] = per * tracer.counts.get(key, 0.0)
    before = tracer.counts.get("decompose.prune_before", 0.0)
    out["decompose.parts_kept_ratio"] = (
        tracer.counts.get("decompose.prune_kept", 0.0) / before if before else 0.0)
    calls = st.get("lp.solve", (0.0, 0))[1]
    out["lp.ms_per_call"] = (1e3 * st["lp.solve"][0] / calls) if calls else 0.0
    out["lp.optimal_ratio"] = (tracer.counts.get("lp.optimal", 0.0) / calls
                               if calls else 0.0)
    out["lp.vars_max"] = tracer.maxima.get("lp.vars_max", 0.0)
    out["lp.rows_max"] = tracer.maxima.get("lp.rows_max", 0.0)
    # share of request time spent as self time in each module; the rest is
    # the benchmark's own glue and the untraced core/generate modules
    for layer in LAYERS:
        out[f"share.{layer}"] = sum(
            v[0] for k, v in st.items() if k.split(".")[0] == layer) / busy_s
    out["share.untraced"] = max(
        0.0, 1.0 - sum(out[f"share.{layer}"] for layer in LAYERS))
    out["trace.overhead_ratio"] = traced_rps / untraced_rps
    return out
