"""Spans around calls into crowdcast's public functions, for the traced run.

A ``Tracer`` swaps each wrapped function for a timing wrapper in the
namespace its caller looks it up in (``crowdcast.model.spatial_forward``,
``crowdcast.train.best_of_k``, ...) and restores the originals on
``uninstall``.  Spans (name, start, end, parent) stay in memory until the
run writes them out.  The tape-node hook wraps ``autodiff._make``: it counts
every op by kind and by the stage whose span is open, and wraps each
recorded node's backward closure so backward time is charged to the stage
whose forward created the node.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter, defaultdict

from crowdcast import autodiff, cvae, data, hypergraph, model, optim

# The package re-exports the function ``train`` under the submodule's name.
train = importlib.import_module("crowdcast.train")

UNSTAGED = "autodiff.unstaged"

# Stages whose forward, backward and node counts are reported per window.
STAGES = ("transformer.spatial", "transformer.temporal", "hypergraph.groups", "fusion.fuse", "cvae.head")

# (owning namespace, attribute, span name, stage or None).  Functions are
# wrapped where their callers look them up, so a module that imported a
# name with ``from ... import`` is patched, not the defining module.
WRAPPED = (
    (model, "spatial_forward", "transformer.spatial", "transformer.spatial"),
    (model, "temporal_forward", "transformer.temporal", "transformer.temporal"),
    (model, "multiscale_group_features", "hypergraph.groups", "hypergraph.groups"),
    (hypergraph, "build_hyperedges_knn", "hypergraph.knn", None),
    (model, "fuse", "fusion.fuse", "fusion.fuse"),
    (cvae, "observed_embedding", "cvae.observed_embedding", "cvae.head"),
    (cvae, "encode_posterior", "cvae.encode_posterior", "cvae.head"),
    (cvae, "decode_trajectories", "cvae.decode", "cvae.head"),
    (cvae, "loss_total", "cvae.loss_total", "cvae.head"),
    (train, "best_of_k", "cvae.best_of_k", None),
    (model.CrowdForecaster, "features", "model.features", None),
    (model, "init_params", "model.init", None),
    (model.CrowdForecaster, "save", "checkpoint.save", None),
    (model.CrowdForecaster, "load", "checkpoint.load", None),
    (optim.Adam, "step", "optim.step", None),
    (autodiff, "backward", "autodiff.backward", None),
    (train, "normalize_window", "data.normalize", None),
    (data, "normalize_window", "data.normalize", None),
    (train, "gaussian_jitter", "train.jitter", None),
    (data, "parse_scene", "data.parse_scene", None),
    (data, "window_scene", "data.window_scene", None),
)

# Op kinds reported one by one; any other kind still counts in the totals.
OP_KINDS = ("matmul", "add", "sub", "mul", "relu", "exp", "sqrt", "atan2", "reshape",
            "transpose", "concat", "getitem", "boolean_select", "sum", "mean",
            "masked_softmax", "softmax_rows", "layer_norm")

# Per-layer metrics averaged per call of the named span: (metric, span).
PER_CALL = (
    ("cvae.decode_ms", "cvae.decode"),
    ("cvae.best_of_k_ms", "cvae.best_of_k"),
    ("model.features_ms", "model.features"),
    ("optim.step_ms", "optim.step"),
    ("checkpoint.save_ms", "checkpoint.save"),
    ("checkpoint.load_ms", "checkpoint.load"),
    ("data.normalize_ms", "data.normalize"),
    ("train.jitter_ms", "train.jitter"),
    ("data.parse_scene_ms", "data.parse_scene"),
    ("data.window_scene_ms", "data.window_scene"),
    ("model.init_ms", "model.init"),
)


class Tracer:
    """In-memory spans and node counters for one phase of a run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._open = []
        self._stages = []
        self.ops = Counter()  # (stage, op kind) -> ops created
        self.tape_nodes = 0
        self.bwd_s = defaultdict(float)  # stage -> seconds in node backward closures
        self.saved_bytes = []
        self._originals = []

    # -- installation ----------------------------------------------------

    def install(self):
        for owner, attr, name, stage in WRAPPED:
            fn = owner.__dict__.get(attr)
            if fn is None:  # the program no longer has this entry point
                continue
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, stage))
        make = autodiff.__dict__.get("_make")
        if make is not None:
            self._originals.append((autodiff, "_make", make))
            autodiff._make = self._wrap_make(make)
        return self

    def uninstall(self):
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)

    def _wrap(self, fn, name, stage):
        spans, open_, stages = self.spans, self._open, self._stages
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            rec = [name, clock(), None, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(rec)
            if stage is not None:
                stages.append(stage)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()
                if stage is not None:
                    stages.pop()
            if name == "checkpoint.save":
                path = args[1] if len(args) > 1 else kwargs["path"]
                self.saved_bytes.append(os.path.getsize(path))
            return out

        return wrapped

    def _wrap_make(self, make):
        ops, stages, bwd_s = self.ops, self._stages, self.bwd_s
        clock = time.perf_counter

        def traced_make(data_, op, *rest, **kwargs):
            out = make(data_, op, *rest, **kwargs)
            stage = stages[-1] if stages else UNSTAGED
            ops[(stage, op)] += 1
            inner = out._backward
            if inner is not None:
                self.tape_nodes += 1

                def timed_backward(g):
                    t0 = clock()
                    inner(g)
                    bwd_s[stage] += clock() - t0

                out._backward = timed_backward
            return out

        return traced_make

    # -- summaries -------------------------------------------------------

    def span_summary(self):
        """Calls, total and self milliseconds per span name.

        Self time is a span's duration minus the time its direct children
        cover; children never outlive their parent, so their durations sum.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child_s):
            row = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - inner) * 1e3
        return out

    def stage_forward_s(self):
        """Seconds inside each stage, counting only its outermost spans."""
        stage_of = {name: stage for _, _, name, stage in WRAPPED if stage is not None}
        out = defaultdict(float)
        for name, start, end, parent in self.spans:
            stage = stage_of.get(name)
            if stage is None:
                continue
            p = parent
            while p >= 0 and stage_of.get(self.spans[p][0]) != stage:
                p = self.spans[p][3]
            if p < 0:
                out[stage] += end - start
        return out


def per_layer_metrics(setup_tracer, phase_tracer, windows):
    """Per-layer metrics: per window from the timed phase, per call elsewhere."""
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": float(value), "unit": unit}

    per_window = 1.0 / max(windows, 1)
    phase = phase_tracer.span_summary()
    put("autodiff.tape_nodes", phase_tracer.tape_nodes * per_window, "count")
    by_kind = Counter()
    by_stage = Counter()
    for (stage, op), count in phase_tracer.ops.items():
        by_kind[op] += count
        by_stage[stage] += count
    for op in OP_KINDS:
        put(f"autodiff.nodes.{op}", by_kind[op] * per_window, "count")
    put("autodiff.backward_ms", phase.get("autodiff.backward", {}).get("total_ms", 0.0) * per_window, "ms")

    fwd = phase_tracer.stage_forward_s()
    for stage in STAGES:
        put(f"{stage}.fwd_ms", fwd[stage] * 1e3 * per_window, "ms")
        put(f"{stage}.bwd_ms", phase_tracer.bwd_s[stage] * 1e3 * per_window, "ms")
        put(f"{stage}.nodes", by_stage[stage] * per_window, "count")
    put(f"{UNSTAGED}.bwd_ms", phase_tracer.bwd_s[UNSTAGED] * 1e3 * per_window, "ms")
    put(f"{UNSTAGED}.nodes", by_stage[UNSTAGED] * per_window, "count")
    put("hypergraph.knn_ms", phase.get("hypergraph.knn", {}).get("total_ms", 0.0) * per_window, "ms")

    calls = setup_tracer.span_summary()
    for name, row in phase.items():
        merged = calls.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        merged["calls"] += row["calls"]
        merged["total_ms"] += row["total_ms"]
    for metric, span in PER_CALL:
        row = calls.get(span)
        put(metric, row["total_ms"] / row["calls"] if row else 0.0, "ms")
    saved = setup_tracer.saved_bytes + phase_tracer.saved_bytes
    put("checkpoint.bytes", sum(saved) / len(saved) if saved else 0.0, "B")
    return metrics
