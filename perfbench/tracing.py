"""Spans around the public functions of each spsr module, installed from outside.

Each wrapper is patched in wherever the function is looked up at call time
(``spsr.pipeline.reselect`` as well as ``spsr.tensor.reselect``,
``spsr.metrics.box_iou`` for ``geometry.iou``), so the program itself is not
changed. Spans are kept in memory and written out when the traced phase ends.
A span's self time is its duration minus the part of it that child spans cover.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import os
import threading
import time
from collections import defaultdict

# layer metric name -> places the function is looked up ("module:attr.path")
SPANS = {
    "cli.main": ["spsr.cli:main"],
    "io.load_rois": ["spsr.io:load_rois"],
    "io.load_ref_masks": ["spsr.io:load_ref_masks"],
    "io.masks_to_dict": ["spsr.io:masks_to_dict"],
    "io.dump_json": ["spsr.io:dump_json"],
    "io.load_eval_entries": ["spsr.io:load_eval_entries"],
    "io.load_panoptic": ["spsr.io:load_panoptic"],
    "pipeline.run_refinement": ["spsr.cli:run_refinement", "spsr.pipeline:run_refinement"],
    "pipeline.PipelineWeights": ["spsr.pipeline:PipelineWeights"],
    "pipeline.NeckFeatures.synthesize": ["spsr.pipeline:NeckFeatures.synthesize"],
    "pipeline.NeckFeatures.sample": ["spsr.pipeline:NeckFeatures.sample"],
    "pipeline.select_active": ["spsr.pipeline:select_active"],
    "pipeline.make_targets": ["spsr.pipeline:make_targets"],
    "pipeline.assemble": ["spsr.pipeline:assemble_mask", "spsr.pipeline:assemble_grid"],
    "ops.conv2d_sparse": ["spsr.ops:conv2d_sparse"],
    "ops.sfm": ["spsr.ops:sfm"],
    "ops.fuse_external": ["spsr.ops:fuse_external"],
    "ops.halve_features": ["spsr.ops:halve_features"],
    "ops.apply_chain": ["spsr.ops:apply_chain"],
    "ops.dense_bilinear": ["spsr.ops:dense_bilinear"],
    "ops.dense_conv2d": ["spsr.ops:dense_conv2d"],
    "ops.dense_sfm": ["spsr.ops:dense_sfm"],
    "ops.dense_fuse": ["spsr.ops:dense_fuse"],
    "ops.dense_chain": ["spsr.ops:dense_chain"],
    "ops.dense_pointwise": ["spsr.ops:dense_pointwise"],
    "ops.dense_subdivide": ["spsr.ops:dense_subdivide"],
    "tensor.reselect": ["spsr.pipeline:reselect", "spsr.tensor:reselect"],
    "tensor.subdivide": ["spsr.pipeline:subdivide", "spsr.tensor:subdivide"],
    "tensor.SpsTensor": ["spsr.tensor:SpsTensor.__post_init__"],
    "cost.compare": ["spsr.cli:compare", "spsr.cost:compare"],
    "metrics.ap_suite": ["spsr.cli:ap_suite", "spsr.metrics:ap_suite"],
    "metrics.match_predictions": ["spsr.metrics:match_predictions"],
    "metrics.rle_decode": ["spsr.io:rle_decode", "spsr.metrics:rle_decode"],
    "metrics.rle_encode": ["spsr.io:rle_encode", "spsr.metrics:rle_encode"],
    "metrics.mask_iou": ["spsr.metrics:mask_iou", "spsr.pipeline:mask_iou"],
    "metrics.boundary_iou": ["spsr.metrics:boundary_iou"],
    "metrics.pq": ["spsr.cli:pq", "spsr.metrics:pq"],
    "geometry.iou": ["spsr.metrics:box_iou", "spsr.geometry:iou"],
}

# Functions wrapped only to count what passes through them, without a span.
COUNTERS = {
    "io.bytes_read": ["spsr.io:load_json"],
    "io.bytes_written": ["spsr.io:write_atomic"],
    "metrics.iou_evaluations": ["spsr.metrics:geometry_iou_fn"],
}

# Ledger op -> (span that does it on the sparse route, on the dense route), as
# (span name, direct): direct restricts to spans called straight from
# run_refinement, which separates the head chains from the chains inside
# subdivide and fusion. The sparse ingest projection is a bare
# LinearTransform.apply call inside the engine, so it has no span of its own.
OP_FUNCTIONS = {
    "neck_sample": (("pipeline.NeckFeatures.sample", False), ("pipeline.NeckFeatures.sample", False)),
    "ingest": (None, ("ops.dense_pointwise", True)),
    "query_fuse": (("ops.fuse_external", False), ("ops.dense_fuse", False)),
    "fcn": (("ops.conv2d_sparse", False), ("ops.dense_conv2d", True)),
    "seg_head": (("ops.apply_chain", True), ("ops.dense_chain", False)),
    "refine_head": (("ops.apply_chain", True), ("ops.dense_chain", False)),
    "subdivide": (("tensor.subdivide", False), ("ops.dense_subdivide", False)),
    "neck_fuse": (("ops.fuse_external", False), ("ops.dense_fuse", False)),
    "halve": (("ops.halve_features", False), ("ops.dense_pointwise", True)),
    "sfm": (("ops.sfm", False), ("ops.dense_sfm", False)),
}
STAGE0_OPS = {"ingest", "query_fuse", "fcn"}
EVERY_STAGE_OPS = {"neck_sample", "seg_head", "refine_head"}
# spans whose call counts are reported beside their self time
COUNTED_CALLS = {"tensor.SpsTensor", "metrics.rle_decode", "metrics.mask_iou",
                 "metrics.match_predictions", "metrics.boundary_iou", "geometry.iou",
                 "pipeline.NeckFeatures.sample"}
LEDGER_OPS = tuple(OP_FUNCTIONS)
STAGES = (1, 2, 3)
F64 = 8  # bytes per gathered feature value


def _resolve(target: str):
    """'pkg.mod:Cls.attr' -> (owner object, attribute name)."""
    module, path = target.split(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory span recorder. ``call_id`` is set by the caller per CLI call."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, call_id, stage, route)
        self.counts = defaultdict(float)
        self.call_id = 0
        self.stage = 0
        self.route = ""
        self._root = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name: str, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            if before:
                before(args, kwargs)
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else self._root
            if name == "cli.main":
                self._root = sid
            stage, route = self.stage, self.route
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, self.call_id, stage, route))
            if after:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        count = getattr(self, "_count_" + name.replace(".", "_"))

        def wrapper(*args, **kwargs):
            return count(fn, args, kwargs)

        return wrapper

    # hooks: stage and route bookkeeping, and counts read off arguments and results

    def _before_pipeline_run_refinement(self, args, kwargs):
        self.stage = 0
        self.route = "sparse" if kwargs.get("sparse", True) else "dense"

    def _after_pipeline_run_refinement(self, args, kwargs, result):
        for e in result.ledger.entries:
            self.counts[f"macs.{self.route}.{e.op}.{e.stage}"] += e.macs

    def _before_pipeline_select_active(self, args, kwargs):
        self.stage += 1
        scores, top_n = args[0], args[1] if len(args) > 1 else kwargs["top_n"]
        parents = sum(g.size for g in scores)
        self.counts[f"budget_binding.s{self.stage}"] += int(top_n is not None and parents > top_n)

    def _before_ops_dense_subdivide(self, args, kwargs):
        from spsr.pipeline import BASE_GRID
        self.stage = max(self.stage, int(round(math.log2(args[0].shape[1] / BASE_GRID))) + 1)

    def _after_tensor_subdivide(self, args, kwargs, result):
        self.counts[f"active_rows.s{self.stage}"] += result.n_active
        self.counts[f"passive_rows.s{self.stage}"] += result.n_passive

    def _before_ops_conv2d_sparse(self, args, kwargs):
        s, k = args[0], args[1]
        self.counts["gather_bytes"] += s.n_active * k.k * k.k * s.f * F64

    def _before_ops_sfm(self, args, kwargs):
        s = args[0]
        self.counts["gather_bytes"] += 3 * s.n_active * 9 * s.f * F64

    def _before_pipeline_NeckFeatures_sample(self, args, kwargs):
        self.counts["neck_samples"] += len(args[2])

    def _before_metrics_ap_suite(self, args, kwargs):
        preds, gts = args[0], args[1]
        n_pred, n_gt = defaultdict(int), defaultdict(int)
        for p in preds:
            n_pred[(p.image_id, p.class_id)] += 1
        for g in gts:
            n_gt[(g.image_id, g.class_id)] += 1
        self.counts["iou_pairs"] += sum(n * n_gt[key] for key, n in n_pred.items())

    def _count_io_bytes_read(self, fn, args, kwargs):
        result = fn(*args, **kwargs)
        self.counts["io.bytes_read"] += os.path.getsize(args[0])
        return result

    def _count_io_bytes_written(self, fn, args, kwargs):
        self.counts["io.bytes_written"] += len(args[1])
        return fn(*args, **kwargs)

    def _count_metrics_iou_evaluations(self, fn, args, kwargs):
        iou_fn = fn(*args, **kwargs)

        def counted(p, g):
            self.counts["iou_evaluations"] += 1
            return iou_fn(p, g)

        return counted

    # -- installation -----------------------------------------------------------

    def install(self):
        for table, make in ((SPANS, self._wrap), (COUNTERS, self._counter)):
            for name, targets in table.items():
                for target in targets:
                    owner, attr = _resolve(target)
                    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                    if isinstance(raw, classmethod):
                        patched = classmethod(make(name, raw.__func__))
                    else:
                        patched = make(name, raw)
                    self._patched.append((owner, attr, raw))
                    setattr(owner, attr, patched)

    def uninstall(self):
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as f:
            for sid, name, start, end, parent, call, stage, route in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                    "parent": parent, "call": call, "stage": stage,
                                    "route": route}) + "\n")

    # -- analysis -----------------------------------------------------------------

    def self_times(self) -> dict:
        """span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for sid, _, start, end, parent, *_ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for sid, _, start, end, *_ in self.spans:
            covered, cursor = 0.0, start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, cursor), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    cursor = c1
            out[sid] = (end - start) - covered
        return out

    def op_times(self) -> dict:
        """(route, op, stage) -> seconds in the span that does the op (inclusive of children)."""
        names, by_name = {}, defaultdict(list)
        for sp in self.spans:
            names[sp[0]] = sp[1]
            by_name[sp[1]].append(sp)
        out = defaultdict(float)
        for op, routes in OP_FUNCTIONS.items():
            for route, spec in zip(("sparse", "dense"), routes):
                if spec is None:
                    continue
                span, direct = spec
                for sid, name, start, end, parent, _, stage, r in by_name[span]:
                    if r != route:
                        continue
                    if direct and names.get(parent) != "pipeline.run_refinement":
                        continue
                    if op not in EVERY_STAGE_OPS and (stage == 0) != (op in STAGE0_OPS):
                        continue
                    out[(route, op, stage)] += end - start
        return out

    def layer_metrics(self, requests: int) -> dict:
        """Per-layer metrics, per request (one CLI call, or one eval round)."""
        selfs = self.self_times()
        self_s, calls = defaultdict(float), defaultdict(int)
        for sid, name, *_ in self.spans:
            self_s[name] += selfs[sid]
            calls[name] += 1
        per = 1.0 / max(requests, 1)
        m = {}
        for name in SPANS:
            key = name + (".self_s" if name in ("cli.main", "pipeline.run_refinement") else ".s")
            m[key] = self_s[name] * per
            if name in COUNTED_CALLS:
                m[name + ".calls"] = calls[name] * per
        c = self.counts
        m["io.bytes_read"] = c["io.bytes_read"] * per
        m["io.bytes_written"] = c["io.bytes_written"] * per
        m["pipeline.NeckFeatures.sample.samples"] = c["neck_samples"] * per
        m["ops.gather_bytes_computed"] = c["gather_bytes"] * per
        ops_time = self.op_times()
        for span, ops in (("ops.conv2d_sparse", ("fcn",)), ("ops.sfm", ("sfm",)),
                          ("ops.fuse_external", ("query_fuse", "neck_fuse"))):
            macs = sum(v for k, v in c.items() if k.startswith("macs.sparse.")
                       and k.split(".")[2] in ops)
            secs = sum(v for (r, op, _), v in ops_time.items() if r == "sparse" and op in ops)
            m[span + ".gmac_per_s"] = macs / secs / 1e9 if secs else 0.0
        for op in LEDGER_OPS:
            m[f"cost.macs.{op}"] = sum(v for k, v in c.items()
                                       if k.startswith(f"macs.sparse.{op}.")) * per
        for s in STAGES:
            m[f"pipeline.budget_binding.s{s}"] = c[f"budget_binding.s{s}"] * per
            m[f"tensor.active_rows.s{s}"] = c[f"active_rows.s{s}"] * per
            m[f"tensor.passive_rows.s{s}"] = c[f"passive_rows.s{s}"] * per
        m["metrics.iou_useful_ratio"] = (c["iou_pairs"] / c["iou_evaluations"]
                                         if c["iou_evaluations"] else 0.0)
        return m

    def op_table(self, requests: int) -> list[str]:
        """Ledger MACs beside the time of the function doing each op, per request."""
        if not any(k.startswith("macs.") for k in self.counts):
            return []
        times = self.op_times()
        per = 1.0 / max(requests, 1)
        lines = [f"{'route':<7}{'op':<13}{'stage':>6}{'MACs':>16}  {'function':<31}"
                 f"{'time_s':>10}{'GMAC/s':>9}"]
        for key in sorted(k for k in self.counts if k.startswith("macs.")):
            _, route, op, stage = key.split(".")
            macs = self.counts[key] * per
            secs = times.get((route, op, int(stage)), 0.0) * per
            spec = OP_FUNCTIONS[op][route == "dense"]
            label = "(no span)" if spec is None else spec[0] + ("*" if spec[1] else "")
            rate = f"{macs / secs / 1e9:9.2f}" if secs else f"{'-':>9}"
            lines.append(f"{route:<7}{op:<13}{stage:>6}{macs:>16.0f}  {label:<31}{secs:>10.4f}{rate}")
        lines.append("* direct calls from run_refinement only; seg_head and refine_head share "
                     "their spans, so each shows the time of both")
        return lines
