"""Outside-in tracing: spans around calls into the program's public functions.

Each hook replaces a function where the program looks it up (a module
global or a class attribute) with a wrapper that records a span: name,
start, end and the span that was open when it started.  Spans stay in
memory; ``Tracer.write`` dumps them when the run ends.  A layer's self
time is its duration minus the time covered by its direct children.

Hooks whose target is missing (renamed or removed by a later change) are
skipped and reported, so the benchmark keeps running; their metrics then
read zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """In-memory span recorder plus counters keyed by metric name."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, pass_id]
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.distinct: dict[int, dict[str, set]] = defaultdict(lambda: defaultdict(set))
        self.pass_id = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording ----------------------------------------------------------
    def add(self, key: str, value: float) -> None:
        self.counts[self.pass_id][key] += value

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter_ns(), 0, parent, self.pass_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                try:
                    count(self, args, result)
                except (IndexError, TypeError, AttributeError, OSError):
                    # A changed call signature must not fail the stage.
                    self.missing.append(f"{name} counter")
            return result

        return traced

    def wrap_batches(self, fn):
        """Generator hook: the time a consumer holds each batch is one step."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for batch in fn(*args, **kwargs):
                self.add("data.make_batches.batches", 1)
                start = time.perf_counter_ns()
                yield batch
                self.samples["training.step_ms"].append((time.perf_counter_ns() - start) / 1e6)

        return traced

    # -- hook installation ------------------------------------------------
    def install(self) -> None:
        for target, name, count in HOOKS:
            module_name, _, attr_path = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = attr_path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            wrapper = (
                self.wrap_batches(original)
                if name == "data.make_batches"
                else self.wrap(name, original, count)
            )
            self._installed.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- aggregation --------------------------------------------------------
    def per_pass(self) -> dict[int, dict[str, float]]:
        """busy_s, self_s and calls per span name plus counters, per traced pass."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, pass_id) in enumerate(self.spans):
            agg = out[pass_id]
            agg[f"{name}.busy_s"] += (end - start) / 1e9
            agg[f"{name}.self_s"] += (end - start - child_ns[i]) / 1e9
            agg[f"{name}.calls"] += 1
        for pass_id, counts in self.counts.items():
            out[pass_id].update(counts)
        for pass_id, sets in self.distinct.items():
            for key, values in sets.items():
                out[pass_id][key] = len(values)
        return out

    def durations_ms(self, name: str) -> list[float]:
        return [(s[2] - s[1]) / 1e6 for s in self.spans if s[0] == name]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, pass_id in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "pass": pass_id}
                    )
                    + "\n"
                )


def tail(values: list[float]) -> tuple[float, float, float]:
    """(median, tail value, tail percentile) for a sample list.

    The tail is the highest of the listed percentiles that still has at
    least ten samples beyond it; with fewer than twenty samples there is
    no such percentile and the tail reads zero.
    """
    if not values:
        return 0.0, 0.0, 0.0
    arr = np.asarray(values)
    median = float(np.percentile(arr, 50))
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if arr.size * (1.0 - pct / 100.0) >= 10:
            return median, float(np.percentile(arr, pct)), pct
    return median, 0.0, 0.0


# -- counters: (tracer, call args, result) -> tracer.add(...) ----------------

def _count_rows(key: str, arg: int):
    def count(tr: Tracer, args, result) -> None:
        tr.add(key, len(args[arg]))

    return count


def _count_file_bytes(key: str):
    def count(tr: Tracer, args, result) -> None:
        tr.add(key, os.path.getsize(args[1]))

    return count


def _count_sparse_adam(tr: Tracer, args, result) -> None:
    param, _, rows = args[:3]
    tr.add("tensor.adam_step_sparse.rows_updated", len(rows))
    tr.add("tensor.adam_step_sparse.table_rows", param.value.shape[0])


def _count_topk(tr: Tracer, args, result) -> None:
    tr.add("metrics.topk_retrieve.candidates", len(args[1]))
    tr.distinct[tr.pass_id]["metrics.topk_retrieve.users"].add(np.asarray(args[0]).tobytes())


def _count_gauc(tr: Tracer, args, result) -> None:
    tr.add("metrics.gauc.users", np.unique(np.asarray(args[2])).size)


def _count_task_scores(tr: Tracer, args, result) -> None:
    tr.add("models.task_scores.rows", np.asarray(result).shape[0])


def _count_task_scores_all(tr: Tracer, args, result) -> None:
    tr.add("models.task_scores.computed", np.asarray(result).size)


# (where the program looks the function up, span name, counter)
HOOKS = (
    ("gnolr.cli:build_bundle", "data.build_bundle", None),
    ("gnolr.cli:save_bundle", "data.save_bundle", _count_file_bytes("data.save_bundle.bytes")),
    ("gnolr.cli:load_bundle", "data.load_bundle", None),
    ("gnolr.cli:save_checkpoint", "training.save_checkpoint",
     _count_file_bytes("training.save_checkpoint.bytes")),
    ("gnolr.cli:load_checkpoint", "training.load_checkpoint", None),
    ("gnolr.cli:write_embeddings", "encoders.write_embeddings", None),
    ("gnolr.cli:topk_retrieve", "metrics.topk_retrieve", _count_topk),
    ("gnolr.metrics:topk_retrieve", "metrics.topk_retrieve", _count_topk),
    ("gnolr.metrics:auc", "metrics.auc", _count_rows("metrics.auc.rows", 0)),
    ("gnolr.training:auc", "metrics.auc", _count_rows("metrics.auc.rows", 0)),
    ("gnolr.training:gauc", "metrics.gauc", _count_gauc),
    ("gnolr.training:train", "training.train", None),
    ("gnolr.training:retrieval_recalls", "training.retrieval_recalls", None),
    ("gnolr.training:make_batches", "data.make_batches", None),
    ("gnolr.training:adam_step", "tensor.adam_step", None),
    ("gnolr.training:adam_step_sparse", "tensor.adam_step_sparse", _count_sparse_adam),
    ("gnolr.training:estimate_thresholds", "feedback.estimate_thresholds", None),
    ("gnolr.models:gnolr_batch", "losses.gnolr_batch", _count_rows("losses.gnolr_batch.rows", 0)),
    ("gnolr.models:GnolrModel.loss_and_grad", "models.loss_and_grad", None),
    ("gnolr.models:GnolrModel.task_scores", "models.task_scores", _count_task_scores),
    ("gnolr.models:GnolrModel.task_scores_all", "models.task_scores_all", _count_task_scores_all),
    ("gnolr.models:_TwinBase.user_embeddings", "models.embeddings", None),
    ("gnolr.models:_TwinBase.item_embeddings", "models.embeddings", None),
    ("gnolr.encoders:EmbeddingTableSet.lookup", "encoders.lookup",
     _count_rows("encoders.lookup.rows", 1)),
    ("gnolr.encoders:EmbeddingTableSet.backward", "encoders.table_backward", None),
    ("gnolr.encoders:Tower.forward", "encoders.tower_forward", None),
    ("gnolr.encoders:Tower.backward", "encoders.tower_backward", None),
    ("gnolr.encoders:leaky_relu", "tensor.leaky_relu", None),
    ("gnolr.encoders:leaky_relu_backward", "tensor.leaky_relu_backward", None),
    ("gnolr.encoders:l2_normalize", "tensor.l2_normalize", None),
    ("gnolr.encoders:l2_normalize_backward", "tensor.l2_normalize_backward", None),
)
