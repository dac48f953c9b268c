"""Spans around the program's layers, recorded from outside the program.

Each wrapped callable is replaced where its caller looks it up (a module
global or a class attribute) by a wrapper that records one span: name,
start, end, parent span, workload item and stage. Parent links follow the
calling thread; tasks handed to the batch layer are wrapped so their spans
hang under the batch span that ran them and carry one item id per task.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

# (module, class or None, attribute, span name)
WRAPPED = (
    ("evoloop.backends.cache", "ContentCache", "get", "cache.get"),
    ("evoloop.backends.cache", "ContentCache", "put", "cache.put"),
    ("evoloop.backends.transport", "HttpTransport", "post", "transport.post"),
    ("evoloop.backends.mock", "MockScorer", "score", "mock"),
    ("evoloop.backends.clients", "TtsClient", "synthesize", "clients"),
    ("evoloop.backends.clients", "TranslateClient", "translate", "clients"),
    ("evoloop.backends.clients", "ScoreClient", "score", "clients"),
    ("evoloop.evolution.loop", None, "run_acquisition", "phases.acquisition"),
    ("evoloop.evolution.loop", None, "run_refinement", "phases.refinement"),
    ("evoloop.evolution.loop", None, "partition_and_emit", "phases.partition"),
    ("evoloop.evolution.loop", None, "run_evaluation", "phases.evaluation"),
    ("evoloop.evolution.journal", "Journal", "phase_done", "journal.phase_done"),
    ("evoloop.evolution.journal", "Journal", "record_phase", "journal.record"),
    ("evoloop.evolution.loop", None, "load_manifest", "corpus.load_manifest"),
    ("evoloop.cli", None, "load_manifest", "corpus.load_manifest"),
    ("evoloop.evolution.loop", None, "save_manifest", "corpus.save_manifest"),
    ("evoloop.cli", None, "run_loop", "loop"),
    ("evoloop.evolution", None, "run_loop", "loop"),
    ("evoloop.cli", None, "load_piece_table", "metrics.load_piece_table"),
    ("evoloop.cli", None, "corpus_spbleu", "metrics.spbleu"),
    ("evoloop.metrics.bleu", None, "sp_segment", "metrics.segment"),
    ("evoloop.metrics.bleu", None, "ngram_stats", "metrics.ngram"),
)

# what a span keeps of its call's result
NOTES = {
    "cache.get": lambda result: result is not None,
    "corpus.load_manifest": lambda result: len(result) if result is not None else 0,
}

# layers whose span time is reported whole; every other layer reports
# self time, its span time minus the part its child spans cover
INCLUSIVE = frozenset({"batch", "phases.acquisition", "phases.refinement",
                       "phases.partition", "phases.evaluation"})

PER_LAYER = (
    "cache.get_s", "cache.gets", "cache.hits", "cache.put_s", "cache.puts",
    "batch.runs", "batch.tasks", "batch.wall_s", "batch.queue_wait_s",
    "transport.posts", "transport.post_s", "transport.post_p50_ms",
    "transport.post_p99_ms",
    "service.requests", "service.busy_s", "service.peak_in_flight",
    "mock.calls", "mock.s",
    "clients.calls", "clients.s", "clients.retries",
    "phases.acquisition_s", "phases.refinement_s", "phases.partition_s",
    "phases.evaluation_s",
    "journal.phase_done_s", "journal.phase_done_calls", "journal.record_s",
    "journal.records",
    "corpus.load_manifest_s", "corpus.load_rows", "corpus.save_manifest_s",
    "loop.self_s",
    "metrics.load_piece_table_s", "metrics.spbleu_s", "metrics.segment_s",
    "metrics.segments", "metrics.ngram_s", "metrics.ngram_calls",
    "host.ref_s", "trace.overhead_s",
)


def _resolve(module_name, class_name):
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, name, item, start, end, stage, note)
        self.stage = ""
        self._ids = itertools.count(1)
        self._batches = itertools.count(1)
        self._local = threading.local()
        self._retry_lock = threading.Lock()
        self.retries = 0
        self._undo = []

    # --- recording -------------------------------------------------------

    def _enter(self):
        local = self._local
        parent = getattr(local, "span", 0)
        sid = next(self._ids)
        local.span = sid
        return sid, parent, getattr(local, "item", None)

    def _leave(self, sid, parent, name, item, start, note=None):
        end = time.perf_counter()
        self._local.span = parent
        self.spans.append((sid, parent, name, item, start, end, self.stage, note))

    def wrap(self, name, fn, note=None, own_item=False):
        """Span per call; `own_item` gives each call its own item id, which
        the spans beneath it inherit."""
        tracer = self
        calls = itertools.count(1)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, item = tracer._enter()
            outer_item = item
            if own_item:
                item = tracer._local.item = f"{name}#{next(calls)}"
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._local.item = outer_item
                tracer._leave(sid, parent, name, item, start,
                              note(result) if note else None)

        return traced

    def wrap_run_batch(self, run_batch):
        tracer = self

        @functools.wraps(run_batch)
        def traced(tasks, *args, **kwargs):
            endpoint = kwargs.get("endpoint", args[0] if args else "batch")
            batch_item = f"{endpoint}#{next(tracer._batches)}"
            sid, parent, item = tracer._enter()
            start = time.perf_counter()

            def wrap_task(index, task):
                def run():
                    local = tracer._local
                    local.span, local.item = sid, f"{batch_item}/{index}"
                    tid, _, task_item = tracer._enter()
                    t0 = time.perf_counter()
                    try:
                        return task()
                    finally:
                        tracer._leave(tid, sid, "batch.task", task_item, t0,
                                      note=t0 - start)
                        local.span, local.item = 0, None

                return run

            try:
                return run_batch([wrap_task(i, t) for i, t in enumerate(tasks)],
                                 *args, **kwargs)
            finally:
                tracer._leave(sid, parent, "batch", item, start)

        return traced

    def wrap_with_retry(self, with_retry):
        tracer = self

        @functools.wraps(with_retry)
        def counted(*args, **kwargs):
            try:
                value, attempts = with_retry(*args, **kwargs)
            except Exception as exc:
                attempts = getattr(exc, "attempts", 1)
                raise
            finally:
                with tracer._retry_lock:
                    tracer.retries += attempts - 1
            return value, attempts

        return counted

    # --- installation ------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        for module_name, class_name, attr, name in WRAPPED:
            owner = _resolve(module_name, class_name)
            self._patch(owner, attr, self.wrap(name, owner.__dict__[attr], NOTES.get(name),
                                               own_item=name == "metrics.spbleu"))
        phases = _resolve("evoloop.evolution.phases", None)
        self._patch(phases, "run_batch", self.wrap_run_batch(phases.run_batch))
        clients = _resolve("evoloop.backends.clients", None)
        self._patch(clients, "with_retry", self.wrap_with_retry(clients.with_retry))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --- output --------------------------------------------------------------

    def write(self, path, cycle: int) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for sid, parent, name, item, start, end, stage, note in self.spans:
                fh.write(json.dumps({
                    "cycle": cycle, "stage": stage, "id": sid, "parent": parent,
                    "name": name, "item": item, "start": start, "end": end,
                }))
                fh.write("\n")


def _union(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans, retries: int) -> dict:
    """Per-layer counts and busy seconds over one cycle's spans."""
    children = defaultdict(list)
    for sid, parent, _name, _item, start, end, _stage, _note in spans:
        children[parent].append((start, end))
    busy = defaultdict(float)
    count = defaultdict(int)
    notes = defaultdict(list)
    durations = defaultdict(list)
    for sid, _parent, name, _item, start, end, _stage, note in spans:
        span_s = end - start
        if name not in INCLUSIVE:
            inner = [(max(a, start), min(b, end)) for a, b in children.get(sid, ())]
            span_s -= _union([(a, b) for a, b in inner if b > a])
        busy[name] += span_s
        count[name] += 1
        durations[name].append(end - start)
        if note is not None:
            notes[name].append(note)

    def pct(name, q):
        values = sorted(durations[name])
        if not values:
            return 0.0
        if len(values) == 1:
            return values[0] * 1000.0
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000.0

    return {
        "cache.get_s": busy["cache.get"],
        "cache.gets": count["cache.get"],
        "cache.hits": sum(notes["cache.get"]),
        "cache.put_s": busy["cache.put"],
        "cache.puts": count["cache.put"],
        "batch.runs": count["batch"],
        "batch.tasks": count["batch.task"],
        "batch.wall_s": busy["batch"],
        "batch.queue_wait_s": sum(notes["batch.task"]),
        "transport.posts": count["transport.post"],
        "transport.post_s": busy["transport.post"],
        "transport.post_p50_ms": pct("transport.post", 50),
        "transport.post_p99_ms": pct("transport.post", 99),
        "mock.calls": count["mock"],
        "mock.s": busy["mock"],
        "clients.calls": count["clients"],
        "clients.s": busy["clients"],
        "clients.retries": retries,
        "phases.acquisition_s": busy["phases.acquisition"],
        "phases.refinement_s": busy["phases.refinement"],
        "phases.partition_s": busy["phases.partition"],
        "phases.evaluation_s": busy["phases.evaluation"],
        "journal.phase_done_s": busy["journal.phase_done"],
        "journal.phase_done_calls": count["journal.phase_done"],
        "journal.record_s": busy["journal.record"],
        "journal.records": count["journal.record"],
        "corpus.load_manifest_s": busy["corpus.load_manifest"],
        "corpus.load_rows": sum(notes["corpus.load_manifest"]),
        "corpus.save_manifest_s": busy["corpus.save_manifest"],
        "loop.self_s": busy["loop"],
        "metrics.load_piece_table_s": busy["metrics.load_piece_table"],
        "metrics.spbleu_s": busy["metrics.spbleu"],
        "metrics.segment_s": busy["metrics.segment"],
        "metrics.segments": count["metrics.segment"],
        "metrics.ngram_s": busy["metrics.ngram"],
        "metrics.ngram_calls": count["metrics.ngram"],
    }
