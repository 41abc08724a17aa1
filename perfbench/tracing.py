"""Spans around calls into the aufusion modules, recorded from outside.

``instrument`` swaps the module attributes through which the package calls
its own public functions (``aufusion.evaluate.fit_em``,
``aufusion.rankpool.solve_rank_kernel``, ...) for wrappers that record one
span per call, and restores them on exit. Nothing under ``src/`` changes.

Spans are kept in memory. Worker processes forked by the ``evaluate``
process pool inherit the wrappers; each worker keeps its own spans and
writes them to a spool file when it exits, and ``Tracer.collect`` merges
those files into the parent's list. ``time.perf_counter`` reads the
system-wide monotonic clock on Linux, so spans from all processes share one
timeline.
"""

from __future__ import annotations

import functools
import json
import math
import multiprocessing.util
import os
import time
from contextlib import contextmanager
from pathlib import Path

from aufusion import evaluate, fusion, ingest, rankpool


class Tracer:
    """Spans of one process, plus those collected from its workers.

    A span is a dict with ``id``, ``parent``, ``name``, ``layer``, ``t0``,
    ``t1`` and any counts the wrapper attaches.
    """

    def __init__(self, spool: Path):
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._pid = os.getpid()
        self._count = 0

    def _claim_process(self):
        # The first span in a forked worker drops the copy of the parent's
        # spans and arranges for this worker's own spans to be written out
        # when the worker exits. The inherited stack is kept, so worker spans
        # name the parent-side span that was open at fork time.
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self.spans = []
            self._count = 0
            multiprocessing.util.Finalize(None, self._flush, exitpriority=10)

    def _flush(self):
        path = self.spool / f"spans-{self._pid}.json"
        path.write_text(json.dumps(self.spans), encoding="utf-8")

    def collect(self):
        """Merge and remove the spool files that finished workers wrote."""
        for path in sorted(self.spool.glob("spans-*.json")):
            self.spans.extend(json.loads(path.read_text(encoding="utf-8")))
            path.unlink()

    @contextmanager
    def span(self, name: str, layer: str):
        self._claim_process()
        self._count += 1
        rec = {
            "id": f"{self._pid}.{self._count}",
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "layer": layer,
        }
        self._stack.append(rec["id"])
        rec["t0"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["t1"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def wrap(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer):
                return fn(*args, **kwargs)

        return traced


def _traced_parse(tracer: Tracer, fn):
    @functools.wraps(fn)
    def parse_au_csv(*args, **kwargs):
        with tracer.span("parse_au_csv", "ingest") as rec:
            clip = fn(*args, **kwargs)
            rec["frames"] = clip.n_frames
        return clip

    return parse_au_csv


def _traced_solve(tracer: Tracer, fn):
    @functools.wraps(fn)
    def solve_rank_kernel(frames, config):
        with tracer.span("solve_rank_kernel", "rankpool") as rec:
            d, trace = fn(frames, config)
            rec["epochs"] = len(trace) - 1
            rec["cap_hit"] = len(trace) - 1 == config.max_epochs
        return d, trace

    return solve_rank_kernel


def _traced_fit_em(tracer: Tracer, fn):
    @functools.wraps(fn)
    def fit_em(frames, config, return_trace=False):
        with tracer.span("fit_em", "gmm") as rec:
            model, traces = fn(frames, config, return_trace=True)
            # A restart hit the cap when it ran max_iters iterations and its
            # last step still improved by at least the relative tolerance.
            rec["iters"] = [len(t) - 1 for t in traces]
            rec["cap_hits"] = sum(
                1
                for t in traces
                if len(t) - 1 == config.max_iters and t[-1] - t[-2] >= config.tol * abs(t[-2])
            )
        return (model, traces) if return_trace else model

    return fit_em


def _traced_train(tracer: Tracer, fn):
    @functools.wraps(fn)
    def train_mlp(descriptors, labels, config):
        with tracer.span("train_mlp", "mlp") as rec:
            model = fn(descriptors, labels, config)
            rec["sgd_steps"] = config.epochs * math.ceil(len(labels) / config.batch_size)
        return model

    return train_mlp


def _traced_sweep(tracer: Tracer, fn):
    @functools.wraps(fn)
    def sweep_omega(records, omegas, *args, **kwargs):
        with tracer.span("sweep_omega", "fusion") as rec:
            table = fn(records, omegas, *args, **kwargs)
            rec["refusions"] = len(records) * len(omegas)
        return table

    return sweep_omega


@contextmanager
def instrument(tracer: Tracer):
    """Route the package's calls into each layer through span wrappers."""
    patches = [
        (ingest, "read_corpus", tracer.wrap("read_corpus", "ingest", ingest.read_corpus)),
        (ingest, "parse_au_csv", _traced_parse(tracer, ingest.parse_au_csv)),
        (evaluate, "pool_clip", tracer.wrap("pool_clip", "rankpool", evaluate.pool_clip)),
        (rankpool, "solve_rank_kernel", _traced_solve(tracer, rankpool.solve_rank_kernel)),
        (evaluate, "fit_em", _traced_fit_em(tracer, evaluate.fit_em)),
        (evaluate, "score_pair", tracer.wrap("score_pair", "gmm", evaluate.score_pair)),
        (evaluate, "train_mlp", _traced_train(tracer, evaluate.train_mlp)),
        (evaluate, "predict_probs", tracer.wrap("predict_probs", "mlp", evaluate.predict_probs)),
        (evaluate, "fuse", tracer.wrap("fuse", "fusion", evaluate.fuse)),
        (fusion, "sweep_omega", _traced_sweep(tracer, fusion.sweep_omega)),
        (evaluate, "hash_gmm", tracer.wrap("hash_gmm", "evaluate", evaluate.hash_gmm)),
        (evaluate, "hash_mlp", tracer.wrap("hash_mlp", "evaluate", evaluate.hash_mlp)),
        (
            evaluate,
            "write_report_files",
            tracer.wrap("write_report_files", "evaluate", evaluate.write_report_files),
        ),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    for module, name, wrapper in patches:
        setattr(module, name, wrapper)
    try:
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of closed intervals."""
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class SpanTree:
    """Parent/child view of one iteration's spans."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.children: dict[str, list[dict]] = {}
        for s in spans:
            if s["parent"] is not None:
                self.children.setdefault(s["parent"], []).append(s)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def self_time(self, span: dict) -> float:
        """Span duration minus the part of it that child spans cover."""
        kids = [
            (max(c["t0"], span["t0"]), min(c["t1"], span["t1"]))
            for c in self.children.get(span["id"], [])
        ]
        return (span["t1"] - span["t0"]) - covered([k for k in kids if k[1] > k[0]])

    def descendants(self, span: dict) -> list[dict]:
        out, todo = [], list(self.children.get(span["id"], []))
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(self.children.get(s["id"], []))
        return out
