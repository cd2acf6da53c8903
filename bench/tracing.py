"""Spans around calls into metafew's public functions, and the per-module
metrics computed from them.

Tracing rebinds each listed function, in every metafew module that holds
the name, to a wrapper that records a span: id, name, start, end, parent
span and run id, plus counts read from the return value. The program's
own files are not edited, and the names are restored when tracing stops.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import json
import os
import re
import statistics
import sys
import threading
import time
import warnings
from collections import defaultdict

# Public functions traced, by module. A function's span is named
# `<module>.<function>`.
TRACED = {
    "partition": ("kmeans", "partition_by_hyperplanes", "hyperplane_partition",
                  "save_partition", "load_partition"),
    "data": ("load_dataset", "save_dataset"),
    "tasks": ("sample_task_from_partition", "make_task_stream",
              "write_task_manifest", "read_task_manifest"),
    "network": ("grad_through_adaptation", "hvp_xent", "apply_adam",
                "xent_loss_grad", "apply_sgd", "forward", "backprop_from_output",
                "save_checkpoint", "load_checkpoint"),
    "metalearn": ("meta_train", "maml_predict", "maml_adapt",
                  "protonet_loss_grad", "protonet_predict"),
    "baselines": ("knn_classify", "linear_fit", "mlp_dropout_fit",
                  "cluster_matching_classify", "train_from_scratch"),
    "evaluation": ("evaluate", "write_report_csv", "read_report_csv", "compare"),
}

# The predict function `make_learner` returns is traced as one evaluation
# task, so its span measures per-task latency.
TASK_SPAN = "evaluation.task"

_EXCLUDED = re.compile(r"(\d+) of (\d+) partitions")

# (name, unit, better): every per-module metric the traced run prints.
PER_LAYER = [
    ("partition.kmeans.calls", "count", "lower"),
    ("partition.kmeans.s", "s", "lower"),
    ("partition.kmeans.iters", "count", "lower"),
    ("partition.kmeans.ms_per_iter", "ms", "lower"),
    ("partition.partition_by_hyperplanes.calls", "count", "lower"),
    ("partition.hyperplane.accept_ratio", "ratio", "higher"),
    ("partition.hyperplane.kept_frac", "ratio", "higher"),
    ("partition.save_partition.calls", "count", "lower"),
    ("partition.save_partition.s", "s", "lower"),
    ("partition.load_partition.calls", "count", "lower"),
    ("partition.load_partition.s", "s", "lower"),
    ("data.load_dataset.calls", "count", "lower"),
    ("data.load_dataset.s", "s", "lower"),
    ("data.load_dataset.mb", "MB", "lower"),
    ("data.save_dataset.calls", "count", "lower"),
    ("data.save_dataset.s", "s", "lower"),
    ("tasks.sample_task_from_partition.calls", "count", "lower"),
    ("tasks.sample_task_from_partition.s", "s", "lower"),
    ("tasks.write_task_manifest.calls", "count", "lower"),
    ("tasks.write_task_manifest.s", "s", "lower"),
    ("tasks.read_task_manifest.calls", "count", "lower"),
    ("tasks.read_task_manifest.s", "s", "lower"),
    ("tasks.partition_usable_ratio", "ratio", "higher"),
    ("network.grad_through_adaptation.calls", "count", "lower"),
    ("network.grad_through_adaptation.s", "s", "lower"),
    ("network.hvp_xent.calls", "count", "lower"),
    ("network.hvp_xent.s", "s", "lower"),
    ("network.apply_adam.calls", "count", "lower"),
    ("network.apply_adam.s", "s", "lower"),
    ("network.xent_loss_grad.calls", "count", "lower"),
    ("network.xent_loss_grad.s", "s", "lower"),
    ("network.apply_sgd.calls", "count", "lower"),
    ("network.apply_sgd.s", "s", "lower"),
    ("network.forward.calls", "count", "lower"),
    ("network.forward.s", "s", "lower"),
    ("network.backprop_from_output.calls", "count", "lower"),
    ("network.backprop_from_output.s", "s", "lower"),
    ("network.save_checkpoint.s", "s", "lower"),
    ("network.load_checkpoint.s", "s", "lower"),
    ("metalearn.meta_train.calls", "count", "lower"),
    ("metalearn.meta_train.s", "s", "lower"),
    ("metalearn.maml_predict.calls", "count", "lower"),
    ("metalearn.maml_predict.s", "s", "lower"),
    ("metalearn.maml_adapt.calls", "count", "lower"),
    ("metalearn.maml_adapt.s", "s", "lower"),
    ("metalearn.protonet_loss_grad.calls", "count", "lower"),
    ("metalearn.protonet_loss_grad.s", "s", "lower"),
    ("metalearn.protonet_predict.calls", "count", "lower"),
    ("metalearn.protonet_predict.s", "s", "lower"),
    ("baselines.knn_classify.calls", "count", "lower"),
    ("baselines.knn_classify.s", "s", "lower"),
    ("baselines.linear_fit.calls", "count", "lower"),
    ("baselines.linear_fit.s", "s", "lower"),
    ("baselines.linear_fit.iters", "count", "lower"),
    ("baselines.linear_fit.capped_frac", "ratio", "lower"),
    ("baselines.mlp_dropout_fit.calls", "count", "lower"),
    ("baselines.mlp_dropout_fit.s", "s", "lower"),
    ("baselines.cluster_matching_classify.calls", "count", "lower"),
    ("baselines.cluster_matching_classify.s", "s", "lower"),
    ("baselines.train_from_scratch.calls", "count", "lower"),
    ("baselines.train_from_scratch.s", "s", "lower"),
    ("evaluation.evaluate.calls", "count", "lower"),
    ("evaluation.evaluate.s", "s", "lower"),
    ("evaluation.task_ms.p50", "ms", "lower"),
    ("evaluation.task_ms.tail", "ms", "lower"),
    ("evaluation.task_ms.tail_pct", "%", "higher"),
    ("evaluation.task_ms.samples", "count", "higher"),
    ("evaluation.pool_efficiency", "ratio", "higher"),
    ("evaluation.write_report_csv.s", "s", "lower"),
    ("evaluation.read_report_csv.s", "s", "lower"),
    ("evaluation.compare.s", "s", "lower"),
    ("share.network_metalearn", "ratio", "lower"),
    ("share.partition_kmeans", "ratio", "lower"),
    ("share.baselines_evaluation", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def _attrs_kmeans(result, bound):
    return {"iters": len(result.objective_trace)}


def _attrs_hyperplanes(result, bound):
    return {"kept": int((result.assignment >= 0).sum()), "n": int(result.n)}


def _attrs_load_dataset(result, bound):
    return {"bytes": os.path.getsize(bound.arguments["path"])}


def _attrs_linear_fit(result, bound):
    return {"iters": int(result.n_iter),
            "capped": result.n_iter >= bound.arguments["max_iter"]}


# Counts read from a traced call's arguments and return value.
ATTRS = {
    "partition.kmeans": _attrs_kmeans,
    "partition.partition_by_hyperplanes": _attrs_hyperplanes,
    "data.load_dataset": _attrs_load_dataset,
    "baselines.linear_fit": _attrs_linear_fit,
}


class Tracer:
    """Installs span-recording wrappers into the loaded metafew modules."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.run_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]):
        # a call on a pool thread belongs to the span the main thread has open
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block; the block may add counts to
        the dict it is given."""
        stack = self._stack()
        parent = self._parent(stack)
        sid = next(self._ids)
        attrs: dict = {}
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield attrs
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self.run_id,
                               attrs or None))

    def _wrap(self, name: str, fn):
        attrs_fn = ATTRS.get(name)
        signature = inspect.signature(fn) if attrs_fn else None

        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                if name == "tasks.make_task_stream":
                    result = self._call_recording_warnings(fn, args, kwargs, attrs)
                else:
                    result = fn(*args, **kwargs)
                if attrs_fn is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    attrs.update(attrs_fn(result, bound))
                if name == "learners.make_learner":
                    result = self._wrap(TASK_SPAN, result)
                return result

        traced.__wrapped__ = fn
        return traced

    @staticmethod
    def _call_recording_warnings(fn, args, kwargs, attrs):
        # make_task_stream reports excluded partitions only as a warning;
        # count it, then pass it on unchanged
        offered = len(args[1]) if len(args) > 1 else len(kwargs["partitions"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args, **kwargs)
        excluded = 0
        for w in caught:
            match = _EXCLUDED.search(str(w.message))
            if match:
                excluded += int(match.group(1))
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        attrs.update(offered=offered, usable=offered - excluded)
        return result

    # -- installing ---------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, run_id):
        """Trace calls made inside the block; restore every name after."""
        self.run_id = run_id
        self._main_stack = self._stack()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "metafew" or n.startswith("metafew."))]
        targets = [(f"{mod}.{fn}", mod, fn) for mod, fns in TRACED.items()
                   for fn in fns]
        targets.append(("learners.make_learner", "learners", "make_learner"))
        try:
            for name, mod, fn in targets:
                original = getattr(sys.modules[f"metafew.{mod}"], fn)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(self._saved):
                setattr(module, attr, original)
            self._saved.clear()
            self.run_id = None

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, run_id, attrs in self.spans:
                fh.write(json.dumps([sid, name, start, end, parent, run_id, attrs])
                         + "\n")


# -- metrics from spans -------------------------------------------------------------

def _covered_ns(intervals, start: int, end: int) -> int:
    """Length of the union of intervals, clipped to [start, end]."""
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the time its child spans cover (ns)."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {sid: (end - start) - _covered_ns(children.get(sid, ()), start, end)
            for sid, _, start, end, _, _, _ in spans}


def tail_percentile(count: int) -> float:
    """Highest listed percentile with at least ten samples beyond it."""
    best = 0.0
    for pct in TAIL_PERCENTILES:
        if count * (1.0 - pct / 100.0) >= 10:
            best = pct
    return best


def percentile(values, pct: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = pct / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, wall_s: float, workers: int) -> dict[str, float]:
    """Per-module metrics of one traced pass. Ratios with no attempts read 0.
    A share is self time summed over threads per second of wall_s, so pool
    threads can lift it above 1."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    by_name = defaultdict(list)
    for span in spans:
        sid, name = span[0], span[1]
        calls[name] += 1
        self_s[name] += selfs[sid] / 1e9
        by_name[name].append(span)
    out: dict[str, float] = {}
    for mod, fns in TRACED.items():
        for fn in fns:
            out[f"{mod}.{fn}.calls"] = calls[f"{mod}.{fn}"]
            out[f"{mod}.{fn}.s"] = self_s[f"{mod}.{fn}"]

    def attr_sum(name, key):
        return sum((s[6] or {}).get(key, 0) for s in by_name[name])

    iters = attr_sum("partition.kmeans", "iters")
    out["partition.kmeans.iters"] = iters
    out["partition.kmeans.ms_per_iter"] = _ratio(1e3 * self_s["partition.kmeans"], iters)
    accepted = sum(1 for s in by_name["partition.hyperplane_partition"]
                   if not (s[6] or {}).get("error"))
    out["partition.hyperplane.accept_ratio"] = _ratio(
        accepted, calls["partition.partition_by_hyperplanes"])
    out["partition.hyperplane.kept_frac"] = _ratio(
        attr_sum("partition.partition_by_hyperplanes", "kept"),
        attr_sum("partition.partition_by_hyperplanes", "n"))
    out["data.load_dataset.mb"] = attr_sum("data.load_dataset", "bytes") / 1e6
    out["tasks.partition_usable_ratio"] = _ratio(
        attr_sum("tasks.make_task_stream", "usable"),
        attr_sum("tasks.make_task_stream", "offered"))
    out["baselines.linear_fit.iters"] = attr_sum("baselines.linear_fit", "iters")
    out["baselines.linear_fit.capped_frac"] = _ratio(
        attr_sum("baselines.linear_fit", "capped"), calls["baselines.linear_fit"])

    task_ms = [(s[3] - s[2]) / 1e6 for s in by_name[TASK_SPAN]]
    tail = tail_percentile(len(task_ms))
    out["evaluation.task_ms.p50"] = percentile(task_ms, 50.0)
    out["evaluation.task_ms.tail"] = percentile(task_ms, tail)
    out["evaluation.task_ms.tail_pct"] = tail
    out["evaluation.task_ms.samples"] = len(task_ms)
    evaluate_s = sum((s[3] - s[2]) / 1e9 for s in by_name["evaluation.evaluate"])
    out["evaluation.pool_efficiency"] = _ratio(sum(task_ms) / 1e3, evaluate_s * workers)

    def share(*prefixes):
        return _ratio(sum(v for k, v in self_s.items() if k.startswith(prefixes)),
                      wall_s)

    out["share.network_metalearn"] = share("network.", "metalearn.")
    out["share.partition_kmeans"] = share("partition.kmeans")
    out["share.baselines_evaluation"] = share("baselines.", "evaluation.")
    return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
