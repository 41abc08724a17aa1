#!/usr/bin/env python3
"""Benchmark of the aufusion pipeline: leave-one-out training and per-clip scoring.

Run from the repository root:

    python3 perfbench/run.py --workload loocv-serial --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout the script sits in; the
benchmark only calls its public functions. Every run

1. sets up ``SETUP_REPEATS`` times (synthetic corpora written as CSV, then the
   scoring models fitted on a training corpus) and reports the median;
2. repeats one iteration for ``--seconds`` seconds (at least twice). An
   iteration is a closed loop driven by this one process:
   - a leave-one-out batch: ``read_corpus`` -> ``loocv`` ->
     ``write_report_files``;
   - ``load_sidecar`` + ``sweep_from_sidecar`` over a dense omega grid on the
     batch's ``report.json``;
   - the ``aufusion score`` path on each held-out clip file, one clip at a
     time: ``parse_au_csv`` -> ``score_pair`` -> ``pool_clip`` ->
     ``segment_votes`` -> ``fuse``;
3. checks the outputs (see ``verify``) and prints one JSON line last.

Workloads differ in corpus sizes and in ``jobs``:

- ``loocv-serial``: a 6 x 500-frame leave-one-out batch at ``jobs=1``
  dominates; every EM fit is capped at ``gmm_fit_frames`` = 1000 frames.
- ``score-clips``: scoring 8 held-out 1800-frame clips dominates; its
  leave-one-out batch is a 4 x 300-frame probe.
- ``loocv-parallel``: the ``loocv-serial`` inputs at ``jobs`` = number of CPUs
  this process may run on, through the ``evaluate`` process pool, with
  whatever BLAS threading the environment gives. Two workers running
  1000-frame EM fits with multi-threaded BLAS oversubscribe the cores, and
  the batch time swings between two modes (about 5 s and 15 s on two
  cores) from batch to batch. No bound BENCHMARK.json allows holds such a
  metric, so the workload is runnable here but not listed there.

With ``--trace 0`` the end-to-end metrics are printed. With ``--trace 1``
untraced and traced iterations alternate; the traced ones record spans
around the calls into each module (see ``tracing.py``) and give the
per-layer metrics, and the untraced ones give the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_REPEATS = 5
MIN_ITERATIONS = 2
# Dense omega grid for the sweep: 0, 0.0005, ..., 10. One sweep takes about
# a second, long enough to average over the machine's speed swings.
OMEGAS = [i * 0.0005 for i in range(20001)]
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Sizes:
    """Corpus sizes of one workload: (clips, frames per clip) per corpus."""

    loocv: tuple[int, int]  # the leave-one-out corpus
    train: tuple[int, int]  # training corpus of the scoring models
    held_out: tuple[int, int]  # clips scored one at a time
    gmm_fit_frames: int
    parallel: bool


WORKLOADS = {
    "loocv-serial": Sizes((6, 500), (4, 300), (2, 1200), 1000, parallel=False),
    "loocv-parallel": Sizes((6, 500), (4, 300), (2, 1200), 1000, parallel=True),
    "score-clips": Sizes((4, 300), (4, 300), (8, 1800), 1000, parallel=False),
}

# The smoke scale keeps every call path but shrinks each solver, for tests.
SMOKE_SIZES = {"loocv": (4, 300), "train": (4, 300), "held_out": (2, 300), "gmm_fit_frames": 400}


def import_package():
    if not (SRC / "aufusion" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no aufusion package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))


def pipeline_for(sizes: Sizes, seed: int, smoke: bool):
    from aufusion.evaluate import PipelineConfig
    from aufusion.gmm import EmConfig
    from aufusion.mlp import TrainConfig
    from aufusion.rankpool import RankPoolConfig

    pipeline = PipelineConfig(seed=seed, gmm_fit_frames=sizes.gmm_fit_frames)
    if smoke:
        pipeline = replace(
            pipeline,
            em=EmConfig(n_components=4, n_init=1, max_iters=20),
            rankpool=RankPoolConfig(max_epochs=10),
            mlp=TrainConfig(epochs=10),
        )
    return pipeline


# ---------------------------------------------------------------- environment


def blas_info() -> dict:
    import numpy as np

    info: dict = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, ValueError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment(jobs: int) -> dict:
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "thread_vars": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "start_method": multiprocessing.get_start_method(),
        "jobs": jobs,
    }


# ---------------------------------------------------------------- set-up


@dataclass
class Fixture:
    loocv_dir: Path
    held_out: object  # Corpus: the in-memory held-out clips
    clip_files: list  # (path, participant_id, label) per held-out clip
    models: tuple  # (gmm_dep, gmm_ndep, mlp) fitted on the training corpus


def set_up(directory: Path, sizes: Sizes, pipeline) -> Fixture:
    """Write the corpora the program reads and fit the scoring models."""
    from aufusion import evaluate, ingest

    def synth(shape, offset):
        n, frames = shape
        return ingest.synth_corpus(
            ingest.SynthConfig(n_participants=n, frames_per_clip=frames, seed=pipeline.seed + offset)
        )

    shutil.rmtree(directory, ignore_errors=True)
    loocv_dir = directory / "loocv-corpus"
    ingest.write_corpus(synth(sizes.loocv, 0), loocv_dir)
    held_out = synth(sizes.held_out, 2_000_000)
    held_dir = directory / "held-out"
    ingest.write_corpus(held_out, held_dir)
    clip_files = [
        (held_dir / ingest.CLIP_DIR / f"{c.participant_id}.csv", c.participant_id, c.label)
        for c in held_out.clips
    ]
    # As `aufusion fit-gmm`, `pool` and `train-mlp` would: fit on every
    # training clip (no participant is held out).
    train = synth(sizes.train, 1_000_000)
    descriptors = evaluate.pool_corpus(train, pipeline, jobs=1)
    models = evaluate.train_fold_models(train, "", pipeline, descriptors)
    return Fixture(loocv_dir, held_out, clip_files, models)


# ---------------------------------------------------------------- one iteration


@dataclass
class Iteration:
    loocv_s: float
    sweep_s: float
    score_s: list
    report_bytes: bytes
    rows: list
    sweep_table: list
    scored: list  # per-clip result tuples
    spans: list


def score_clip(source, participant_id, label, models, pipeline):
    """The `aufusion score` path for one clip; returns its result tuple."""
    from aufusion import evaluate, ingest

    dep, ndep, mlp = models
    if isinstance(source, Path):
        with open(source, encoding="utf-8") as fh:
            clip = ingest.parse_au_csv(fh, participant_id, label)
    else:
        clip = source
    ll_dep, ll_ndep = evaluate.score_pair(dep, ndep, clip)
    descriptors = evaluate.pool_clip(clip, pipeline.window, pipeline.stride, pipeline.rankpool)
    votes = evaluate.segment_votes(mlp, descriptors)
    fused = evaluate.fuse(ll_dep, ll_ndep, votes, pipeline.fusion, n_frames=clip.n_frames)
    return (
        participant_id,
        label,
        ll_dep,
        ll_ndep,
        tuple(votes),
        fused.score,
        fused.decision,
    )


def run_iteration(fx: Fixture, pipeline, jobs: int, outdir: Path, tracer=None) -> Iteration:
    from aufusion import evaluate, ingest

    def span(name, layer="bench"):
        return tracer.span(name, layer) if tracer else nullcontext()

    with span("loocv_batch"):
        t0 = time.perf_counter()
        corpus = ingest.read_corpus(fx.loocv_dir)
        with span("loocv", "evaluate"):
            report = evaluate.loocv(corpus, pipeline, jobs=jobs)
        _, sidecar = evaluate.write_report_files(report, outdir)
        loocv_s = time.perf_counter() - t0
    if tracer:
        tracer.collect()

    with span("sweep"):
        t0 = time.perf_counter()
        table = evaluate.sweep_from_sidecar(evaluate.load_sidecar(sidecar), OMEGAS)
        sweep_s = time.perf_counter() - t0

    score_s, scored = [], []
    for path, pid, label in fx.clip_files:
        with span("score_clip"):
            t0 = time.perf_counter()
            scored.append(score_clip(path, pid, label, fx.models, pipeline))
            score_s.append(time.perf_counter() - t0)

    return Iteration(
        loocv_s=loocv_s,
        sweep_s=sweep_s,
        score_s=score_s,
        report_bytes=sidecar.read_bytes(),
        rows=report.rows,
        sweep_table=table,
        scored=scored,
        spans=list(tracer.spans) if tracer else [],
    )


# ---------------------------------------------------------------- checks


class Checks:
    """Output checks; every failure counts against ``error_rate``."""

    def __init__(self):
        self.made = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str):
        self.made += 1
        if not ok:
            self.failures.append(what)


def verify(checks: Checks, iterations: list, fx: Fixture, pipeline, jobs: int, sizes: Sizes):
    """Check every iteration against the first and against independent runs.

    - ``report.json``, the sweep table and the per-clip results repeat byte
      for byte (traced iterations included, so tracing changes no row);
    - leave-one-out rows at the other ``jobs`` setting are identical, as the
      ``evaluate`` docstring promises;
    - each scored clip file gives the result computed from the in-memory clip
      by the same public functions.
    """
    from aufusion import evaluate, ingest

    first = iterations[0]
    for i, it in enumerate(iterations[1:], start=1):
        checks.expect(it.report_bytes == first.report_bytes, f"report.json of iteration {i} differs")
        checks.expect(it.sweep_table == first.sweep_table, f"sweep table of iteration {i} differs")
        checks.expect(it.scored == first.scored, f"scored clips of iteration {i} differ")

    checks.expect(len(first.rows) == sizes.loocv[0], "loocv returned the wrong number of rows")
    other_jobs = 1 if jobs > 1 else 2
    other = evaluate.loocv(ingest.read_corpus(fx.loocv_dir), pipeline, jobs=other_jobs)
    checks.expect(
        other.rows == first.rows, f"loocv rows differ between jobs={jobs} and jobs={other_jobs}"
    )

    reference = [score_clip(c, c.participant_id, c.label, fx.models, pipeline) for c in fx.held_out.clips]
    checks.expect(first.scored == reference, "scored clip files differ from the in-memory reference")


# ---------------------------------------------------------------- metrics


def quantile(values, q: int):
    """The q-th percentile (inclusive method; exact for any sample count)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tallies(it: Iteration) -> dict:
    """Correct decisions per system over the batch rows and the scored clips."""
    from aufusion.evaluate import majority_vote
    from aufusion.gmm import likelihood_ratio_decision

    gmm = sum(r.gmm_decision == r.label for r in it.rows)
    votes = sum(r.rankpool_decision == r.label for r in it.rows)
    combined = sum(r.combined_decision == r.label for r in it.rows)
    for _, label, ll_dep, ll_ndep, clip_votes, _, decision in it.scored:
        gmm += likelihood_ratio_decision(ll_dep, ll_ndep) == label
        votes += majority_vote(clip_votes) == label
        combined += decision == label
    return {"gmm": gmm, "mlp": votes, "combined": combined, "n": len(it.rows) + len(it.scored)}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its waited-for
    children (the pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def end_to_end(setup_s, iterations, rss_mb) -> dict:
    score_s = [s for it in iterations for s in it.score_s]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "loocv_s": (statistics.median([it.loocv_s for it in iterations]), "s"),
        "sweep_s": (statistics.median([it.sweep_s for it in iterations]), "s"),
        "score_clip_s.p50": (statistics.median(score_s), "s"),
        "score_clip_s.p90": (quantile(score_s, 90), "s"),
        "combined_correct": (tallies(iterations[0])["combined"], "count"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


def layer_metrics(it: Iteration, jobs: int, checks: Checks, sizes_windows: int, n_folds: int) -> dict:
    """Per-layer numbers of one traced iteration."""
    from tracing import SpanTree

    tree = SpanTree(it.spans)
    dur = lambda s: s["t1"] - s["t0"]  # noqa: E731
    layers = ("ingest", "rankpool", "gmm", "mlp", "fusion", "evaluate")
    self_total = {layer: 0.0 for layer in layers}
    for s in tree.spans:
        if s["layer"] in self_total:
            self_total[s["layer"]] += tree.self_time(s)

    (batch,) = tree.named("loocv_batch")
    (loocv_span,) = tree.named("loocv")
    in_batch = tree.descendants(batch)
    batch_self = {layer: 0.0 for layer in layers}
    for s in in_batch:
        if s["layer"] in batch_self:
            batch_self[s["layer"]] += tree.self_time(s)
    batch_total = tree.self_time(batch) + sum(batch_self.values())

    clip_spans = tree.named("score_clip")
    clip_wall = sum(dur(s) for s in clip_spans)
    clip_self = {layer: 0.0 for layer in layers}
    for c in clip_spans:
        for s in tree.descendants(c):
            clip_self[s["layer"]] += tree.self_time(s)

    solves = tree.named("solve_rank_kernel")
    fits = tree.named("fit_em")
    trains = tree.named("train_mlp")
    parses = tree.named("parse_au_csv")
    restarts = [n for f in fits for n in f["iters"]]
    busy = sum(dur(s) for s in tree.children.get(loocv_span["id"], [])) + sum(
        dur(s) for s in tree.children.get(batch["id"], []) if s is not loocv_span
    )
    t = tallies(it)

    # The traced spans must cover the whole batch, workers included.
    batch_solves = [s for s in in_batch if s["name"] == "solve_rank_kernel"]
    checks.expect(len(batch_solves) == sizes_windows, "traced batch is missing rank-pool solves")
    checks.expect(
        len([s for s in in_batch if s["name"] == "fit_em"]) == 2 * n_folds,
        "traced batch is missing EM fits",
    )
    if jobs == 1:
        checks.expect(
            abs(batch_total - dur(batch)) <= 1e-6 * dur(batch),
            "layer self times do not add up to the traced batch wall time",
        )

    return {
        "ingest.read_s": (self_total["ingest"], "s"),
        "ingest.frames_per_s": (sum(p["frames"] for p in parses) / self_total["ingest"], "1/s"),
        "rankpool.pool_s": (self_total["rankpool"], "s"),
        "rankpool.window_ms.p50": (1000.0 * statistics.median([dur(s) for s in solves]), "ms"),
        "rankpool.windows": (len(solves), "count"),
        "rankpool.epochs_mean": (statistics.fmean(s["epochs"] for s in solves), "count"),
        "rankpool.cap_hit_frac": (sum(s["cap_hit"] for s in solves) / len(solves), "ratio"),
        "gmm.fit_s.p50": (statistics.median([dur(s) for s in fits]), "s"),
        "gmm.fits": (len(fits), "count"),
        "gmm.em_iters": (sum(restarts), "count"),
        "gmm.cap_hit_frac": (sum(f["cap_hits"] for f in fits) / len(restarts), "ratio"),
        "gmm.score_s": (sum(dur(s) for s in tree.named("score_pair")), "s"),
        "gmm.correct": (t["gmm"], "count"),
        "mlp.train_s.p50": (statistics.median([dur(s) for s in trains]), "s"),
        "mlp.sgd_steps": (sum(s["sgd_steps"] for s in trains), "count"),
        "mlp.predict_s": (sum(dur(s) for s in tree.named("predict_probs")), "s"),
        "mlp.correct": (t["mlp"], "count"),
        "fusion.fuse_s": (sum(dur(s) for s in tree.named("fuse")), "s"),
        "fusion.sweep_s": (sum(dur(s) for s in tree.named("sweep_omega")), "s"),
        "fusion.refusions": (sum(s["refusions"] for s in tree.named("sweep_omega")), "count"),
        "evaluate.self_s": (tree.self_time(loocv_span), "s"),
        "evaluate.hash_s": (
            sum(dur(s) for s in tree.named("hash_gmm") + tree.named("hash_mlp")),
            "s",
        ),
        "evaluate.report_write_s": (sum(dur(s) for s in tree.named("write_report_files")), "s"),
        "evaluate.worker_busy_frac": (busy / (jobs * dur(batch)), "ratio"),
        "gmm.loocv_share": (batch_self["gmm"] / batch_total, "ratio"),
        "rankpool.loocv_share": (batch_self["rankpool"] / batch_total, "ratio"),
        "mlp.loocv_share": (batch_self["mlp"] / batch_total, "ratio"),
        "rankpool.score_share": (clip_self["rankpool"] / clip_wall, "ratio"),
        "ingest.score_share": (clip_self["ingest"] / clip_wall, "ratio"),
        "trace.loocv_traced_s": (dur(batch), "s"),
    }


def per_layer(traced: list, untraced: list, jobs, checks, windows, n_folds) -> dict:
    per_iter = [layer_metrics(it, jobs, checks, windows, n_folds) for it in traced]
    out = {
        name: (statistics.median([m[name][0] for m in per_iter]), unit)
        for name, (_, unit) in per_iter[0].items()
    }
    untraced_s = statistics.median([it.loocv_s for it in untraced])
    out["trace.loocv_untraced_s"] = (untraced_s, "s")
    out["trace.overhead_frac"] = (out["trace.loocv_traced_s"][0] / untraced_s - 1.0, "ratio")
    return out


# ---------------------------------------------------------------- entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "smoke"),
        default="full",
        help="smoke: tiny corpora and solver budgets, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)

    import_package()
    from tracing import Tracer, instrument

    smoke = args.scale == "smoke"
    sizes = WORKLOADS[args.workload]
    if smoke:
        sizes = replace(sizes, **SMOKE_SIZES)
    jobs = len(os.sched_getaffinity(0)) if sizes.parallel else 1
    pipeline = pipeline_for(sizes, args.seed, smoke)
    env = environment(jobs)

    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup_s = []
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            fx = set_up(work / f"setup-{k}", sizes, pipeline)
            setup_s.append(time.perf_counter() - t0)
            if k:
                shutil.rmtree(work / f"setup-{k - 1}")

        checks = Checks()
        tracer = Tracer(work / "spool") if args.trace else None
        untraced, traced = [], []
        t_start = time.perf_counter()
        while len(untraced) + len(traced) < MIN_ITERATIONS or time.perf_counter() - t_start < args.seconds:
            outdir = work / f"report-{len(untraced) + len(traced)}"
            if tracer and len(untraced) > len(traced):
                tracer.spans.clear()
                with instrument(tracer):
                    traced.append(run_iteration(fx, pipeline, jobs, outdir, tracer))
            else:
                untraced.append(run_iteration(fx, pipeline, jobs, outdir))
            shutil.rmtree(outdir)
        rss_mb = peak_rss_mb()
        iterations = untraced + traced

        verify(checks, iterations, fx, pipeline, jobs, sizes)
        windows = sizes.loocv[0] * (sizes.loocv[1] // pipeline.window)
        if args.trace:
            metrics = per_layer(traced, untraced, jobs, checks, windows, sizes.loocv[0])
        else:
            metrics = end_to_end(setup_s, iterations, rss_mb)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    attempted_ops = sum(len(it.rows) + len(it.scored) for it in iterations)
    attempted = attempted_ops + checks.made
    failed = len(checks.failures)
    counts = tallies(iterations[0])
    print("# env " + json.dumps(env, sort_keys=True))
    print(
        f"# workload {args.workload} seed {args.seed} jobs {jobs} "
        f"iterations {len(untraced)} untraced + {len(traced)} traced, "
        f"{sum(len(it.score_s) for it in iterations)} clips scored, "
        f"{SETUP_REPEATS} set-ups"
    )
    print("# samples setup_s " + json.dumps(setup_s))
    print("# samples loocv_s " + json.dumps([it.loocv_s for it in iterations]))
    for what in checks.failures:
        print(f"# CHECK FAILED: {what}")
    print(f"error_rate {failed / attempted} ratio ({failed} failed of {attempted} attempted)")
    print(f"combined_correct_of {counts['n']} count (gmm {counts['gmm']}, votes {counts['mlp']})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
