"""Leave-one-out cross-validation harness and per-participant reporting.

Each fold holds one participant out, refits both class mixtures on the
remaining clips' pooled frames, retrains the vote classifier on their
descriptors (normalization statistics included), and scores the held-out
clip through the likelihood-ratio, majority-vote, and fused systems. The
held-out clip contributes nothing to any fold's training.

Folds are independent; ``jobs`` > 1 runs them in worker processes without
affecting results, since every fold derives its own seeds from the root
seed and its participant id.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import fusion as fusion_mod
from .fusion import FusionConfig, FusionResult, fuse
from .gmm import EmConfig, GmmModel, fit_em, likelihood_ratio_decision, score_pair
from .ingest import (
    AU_COUNT,
    DEFAULT_STRIDE,
    DEFAULT_WINDOW,
    AUClip,
    Corpus,
    Label,
    check_kinds,
    check_segmentable,
    pooled_class_frames,
    read_json,
)
from .mlp import MlpModel, TrainConfig, predict_probs, train_mlp
from .rankpool import RankPoolConfig, pool_clip

REPORT_VERSION = 1

SYSTEMS = ("gmm", "rankpool", "combined")

_DISPLAY = {Label.DEPRESSED: "Depressed", Label.NONDEPRESSED: "Non-depressed"}


class InsufficientClass(ValueError):
    """A fold's training set is missing one of the two classes."""


class ConfigIncomplete(ValueError):
    """A report is missing configuration needed to reproduce it."""


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one evaluation run needs, bundled for provenance."""

    window: int = DEFAULT_WINDOW
    stride: int = DEFAULT_STRIDE
    em: EmConfig = EmConfig()
    rankpool: RankPoolConfig = RankPoolConfig()
    mlp: TrainConfig = TrainConfig()
    fusion: FusionConfig = FusionConfig()
    seed: int = 7
    # Optional cap on pooled frames per class for mixture fitting; frames are
    # taken at an even stride, deterministically. None fits on everything.
    gmm_fit_frames: int | None = None

    def __post_init__(self):
        check_kinds(self)
        check_segmentable((), self.window, self.stride)
        if self.gmm_fit_frames is not None and self.gmm_fit_frames < 1:
            raise ValueError("gmm_fit_frames must be >= 1")


@dataclass(frozen=True)
class FoldRow:
    participant_id: str
    label: Label
    gmm_decision: Label
    rankpool_decision: Label
    combined_decision: Label
    ll_dep: float
    ll_ndep: float
    n_frames: int
    n_segments: int
    n_dep_votes: int
    fused_score: float
    tau: float
    gmm_dep_hash: str
    gmm_ndep_hash: str
    mlp_hash: str

    def as_record(self) -> dict:
        rec = asdict(self)
        for key, value in rec.items():
            if isinstance(value, Label):
                rec[key] = value.value
        return rec


@dataclass(frozen=True)
class LoocvReport:
    rows: list[FoldRow]
    configs: dict
    seed: int


def correct_count(rows: list[FoldRow], system: str) -> int:
    """Rows whose decision in one system's column matches the label."""
    if not rows:
        raise ValueError("need at least one row")
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; expected one of {SYSTEMS}")
    return sum(1 for row in rows if getattr(row, f"{system}_decision") == row.label)


def accuracy(rows: list[FoldRow], system: str) -> float:
    """Exact correct/total for one system's decision column."""
    return correct_count(rows, system) / len(rows)


def fold_seed(root_seed: int, participant_id: str) -> int:
    """Stable per-fold seed; independent of process, run, and fold order."""
    digest = hashlib.sha256(f"{root_seed}:{participant_id}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _digest(model: GmmModel | MlpModel) -> str:
    """Digest of the model's entry in the file ``save_model`` writes."""
    return hashlib.sha256(json.dumps(_model_arrays(model)).encode()).hexdigest()[:16]


def hash_gmm(model: GmmModel) -> str:
    return _digest(model)


def hash_mlp(model: MlpModel) -> str:
    return _digest(model)


def _subsample(frames: np.ndarray, cap: int | None) -> np.ndarray:
    if cap is None or frames.shape[0] <= cap:
        return frames
    idx = np.round(np.linspace(0, frames.shape[0] - 1, num=cap)).astype(int)
    return frames[idx]


def majority_vote(votes) -> Label:
    """Depressed only on a strict majority; ties go non-depressed."""
    n_dep = int(sum(votes))
    return Label.DEPRESSED if 2 * n_dep > len(votes) else Label.NONDEPRESSED


def segment_votes(model: MlpModel, descriptors: np.ndarray) -> list[int]:
    """One vote per descriptor row: 1 only when the depression probability
    strictly exceeds 0.5."""
    return [int(p > 0.5) for p in predict_probs(model, descriptors)]


def fit_models(
    clips: list[AUClip], descriptors: dict[str, np.ndarray], pipeline: PipelineConfig, seed: int
) -> tuple[GmmModel, GmmModel, MlpModel]:
    """The (depressed, non-depressed, vote) models of ``clips``: the depressed
    mixture fitted at ``seed`` and the non-depressed one at ``seed + 1``, each
    on its class's pooled frames capped at ``pipeline.gmm_fit_frames``, and
    the vote classifier trained at ``seed + 2`` on the clips' descriptors."""
    pooled = pooled_class_frames(clips)
    dep_model, ndep_model = (
        fit_em(_subsample(pooled[label], pipeline.gmm_fit_frames),
               replace(pipeline.em, seed=seed + offset))
        for offset, label in enumerate((Label.DEPRESSED, Label.NONDEPRESSED))
    )
    config = replace(pipeline.mlp, seed=seed + 2)
    return dep_model, ndep_model, train_mlp(*training_set(clips, descriptors), config)


def training_set(
    clips: list[AUClip], descriptors: dict[str, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The clips' descriptor matrices stacked in clip order, with label 1
    for depressed and 0 for non-depressed on every row."""
    matrices = [descriptors[clip.participant_id] for clip in clips]
    labels = [1 if clip.label is Label.DEPRESSED else 0 for clip in clips]
    return np.vstack(matrices), np.repeat(labels, [len(m) for m in matrices])


def train_fold_models(
    corpus: Corpus,
    held_out_id: str,
    pipeline: PipelineConfig,
    descriptors: dict[str, np.ndarray],
) -> tuple[GmmModel, GmmModel, MlpModel]:
    """Fit both mixtures and the vote classifier on everything except the
    held-out participant. Never touches the held-out clip's contents."""
    train_clips = [c for c in corpus.clips if c.participant_id != held_out_id]
    labels = {c.label for c in train_clips}
    if labels != {Label.DEPRESSED, Label.NONDEPRESSED}:
        raise InsufficientClass(
            f"training set for fold {held_out_id!r} is missing a class"
        )
    return fit_models(train_clips, descriptors, pipeline, fold_seed(pipeline.seed, held_out_id))


MODEL_VERSION = 3


def _model_arrays(model: GmmModel | MlpModel) -> dict:
    """The model's fields as JSON lists; floats keep shortest round-trip
    precision, so reloading is bit-stable."""
    return {f.name: getattr(model, f.name).tolist() for f in fields(model)}


def save_model(
    path: str | Path, models: tuple[GmmModel, GmmModel, MlpModel], pipeline: PipelineConfig
):
    """Write the (depressed, non-depressed, vote) models to one JSON file,
    each under the key of its role, with the pooling settings of
    ``pipeline`` they were trained with."""
    dep_model, ndep_model, mlp_model = models
    payload = {
        "format_version": MODEL_VERSION,
        "window": pipeline.window,
        "stride": pipeline.stride,
        "rankpool": asdict(pipeline.rankpool),
        "depressed": _model_arrays(dep_model),
        "nondepressed": _model_arrays(ndep_model),
        "mlp": _model_arrays(mlp_model),
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def load_model(
    path: str | Path, pipeline: PipelineConfig
) -> tuple[tuple[GmmModel, GmmModel, MlpModel], PipelineConfig]:
    """The models ``save_model`` wrote to ``path``, and ``pipeline`` with the
    pooling settings stored beside them. A file of another format version,
    or one missing a key or holding a value or input width that the models
    or the pipeline reject, raises a ValueError naming the file."""
    payload = read_json(path)
    version = payload.get("format_version")
    if version != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model format: {version}")
    try:
        trained = replace(
            pipeline,
            window=payload["window"],
            stride=payload["stride"],
            rankpool=RankPoolConfig(**payload["rankpool"]),
        )
        models = (
            GmmModel(**payload["depressed"]),
            GmmModel(**payload["nondepressed"]),
            MlpModel(**payload["mlp"]),
        )
        widths = (models[0].dim, models[1].dim, models[2].w1.shape[0])
        if widths != (AU_COUNT,) * 3:
            raise ValueError(f"depressed, nondepressed and mlp take {widths} inputs, not {AU_COUNT}")
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    return models, trained


def score_clip(
    clip: AUClip,
    models: tuple[GmmModel, GmmModel, MlpModel],
    pipeline: PipelineConfig,
    descriptors: np.ndarray | None = None,
) -> tuple[FusionResult, list[int]]:
    """Score one clip with the (depressed, non-depressed, vote) models and
    fuse; returns the fused result and the segment votes. The clip is pooled
    when ``descriptors`` is None."""
    dep_model, ndep_model, mlp_model = models
    ll_dep, ll_ndep = score_pair(dep_model, ndep_model, clip)
    if descriptors is None:
        descriptors = pool_clip(clip, pipeline.window, pipeline.stride, pipeline.rankpool)
    votes = segment_votes(mlp_model, descriptors)
    return fuse(ll_dep, ll_ndep, votes, pipeline.fusion, n_frames=clip.n_frames), votes


def run_fold(
    corpus: Corpus,
    held_out_id: str,
    pipeline: PipelineConfig,
    descriptors: dict[str, np.ndarray] | None = None,
) -> FoldRow:
    """Train on all other clips and score the held-out one."""
    if descriptors is None:
        descriptors = pool_corpus(corpus, pipeline)
    models = train_fold_models(corpus, held_out_id, pipeline, descriptors)
    held_out = corpus.by_id(held_out_id)
    fused, votes = score_clip(held_out, models, pipeline, descriptors[held_out_id])
    dep_model, ndep_model, mlp_model = models
    return FoldRow(
        participant_id=held_out_id,
        label=held_out.label,
        gmm_decision=likelihood_ratio_decision(fused.ll_dep, fused.ll_ndep),
        rankpool_decision=majority_vote(votes),
        combined_decision=fused.decision,
        ll_dep=fused.ll_dep,
        ll_ndep=fused.ll_ndep,
        n_frames=held_out.n_frames,
        n_segments=fused.n_segments,
        n_dep_votes=fused.n_dep_votes,
        fused_score=fused.score,
        tau=fused.tau,
        gmm_dep_hash=hash_gmm(dep_model),
        gmm_ndep_hash=hash_gmm(ndep_model),
        mlp_hash=hash_mlp(mlp_model),
    )


# Worker-process state: the task and its shared arguments, set once per
# worker through the executor initializer; read-only afterwards.
_WORKER: dict = {}


def _init_worker(task, shared):
    _WORKER["task"] = task
    _WORKER["shared"] = shared


def _worker_call(participant_id: str):
    return _WORKER["task"](participant_id, *_WORKER["shared"])


def _map_participants(task, ids: list[str], shared: tuple, jobs: int | None) -> list:
    """``[task(pid, *shared) for pid in ids]``, inline when ``jobs`` is 1,
    else in ``jobs`` worker processes (None: one per usable CPU) that receive
    ``shared`` once. A ``jobs`` below 1 raises a ValueError."""
    if jobs is None:
        jobs = len(os.sched_getaffinity(0))
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs == 1:
        return [task(pid, *shared) for pid in ids]
    with ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_worker, initargs=(task, shared)
    ) as pool:
        return list(pool.map(_worker_call, ids))


def _pool_task(participant_id: str, corpus: Corpus, pipeline: PipelineConfig):
    clip = corpus.by_id(participant_id)
    return pool_clip(clip, pipeline.window, pipeline.stride, pipeline.rankpool)


def _fold_task(
    participant_id: str,
    corpus: Corpus,
    pipeline: PipelineConfig,
    descriptors: dict[str, np.ndarray],
) -> FoldRow:
    try:
        return run_fold(corpus, participant_id, pipeline, descriptors)
    except Exception as exc:
        raise RuntimeError(f"fold {participant_id!r} failed: {exc}") from exc


def pool_corpus(
    corpus: Corpus, pipeline: PipelineConfig, jobs: int | None = 1
) -> dict[str, np.ndarray]:
    """Descriptors for every clip, keyed by participant id. Every clip's
    length is checked before the first one is pooled."""
    check_segmentable(corpus.clips, pipeline.window, pipeline.stride)
    ids = [c.participant_id for c in corpus.clips]
    return dict(zip(ids, _map_participants(_pool_task, ids, (corpus, pipeline), jobs)))


def loocv(corpus: Corpus, pipeline: PipelineConfig, jobs: int | None = None) -> LoocvReport:
    """Run every fold and assemble rows in corpus order.

    One fold per participant; 30 clips give exactly 30 folds. Deterministic
    given corpus, pipeline, and seed, regardless of ``jobs``.
    """
    corpus.require_labels()
    for label in (Label.DEPRESSED, Label.NONDEPRESSED):
        if sum(1 for c in corpus.clips if c.label is label) < 2:
            raise ValueError("need at least two clips per class for leave-one-out")
    ids = [c.participant_id for c in corpus.clips]
    descriptors = pool_corpus(corpus, pipeline, jobs=jobs)
    rows = _map_participants(_fold_task, ids, (corpus, pipeline, descriptors), jobs)
    return LoocvReport(rows=rows, configs=asdict(pipeline), seed=pipeline.seed)


_REQUIRED_CONFIG_KEYS = ("window", "stride", "em", "rankpool", "mlp", "fusion", "seed")


def _check_configs(configs: dict):
    if not isinstance(configs, dict):
        raise ConfigIncomplete("report configs must be a JSON object")
    for key in _REQUIRED_CONFIG_KEYS:
        value = configs.get(key)
        if value is None or value == {} or value == "":
            raise ConfigIncomplete(f"report config field {key!r} is missing or empty")


def render_report(report: LoocvReport) -> str:
    """Per-participant decision table plus a per-system accuracy summary."""
    _check_configs(report.configs)
    lines = ["# leave-one-out report"]
    lines.append(f"# seed: {report.seed}")
    for key in _REQUIRED_CONFIG_KEYS:
        if key == "seed":
            continue
        lines.append(f"# {key}: {json.dumps(report.configs[key])}")
    if report.configs.get("gmm_fit_frames") is not None:
        lines.append(f"# gmm_fit_frames: {report.configs['gmm_fit_frames']}")
    lines.append("")
    lines.append("participant_id\tlabel\tgmm\trank_pooling\tcombined")
    for row in report.rows:
        lines.append(
            "\t".join(
                [
                    row.participant_id,
                    _DISPLAY[row.label],
                    _DISPLAY[row.gmm_decision],
                    _DISPLAY[row.rankpool_decision],
                    _DISPLAY[row.combined_decision],
                ]
            )
        )
    lines.append("")
    lines.append("system\tcorrect\taccuracy")
    n = len(report.rows)
    for system in SYSTEMS:
        correct = correct_count(report.rows, system)
        lines.append(f"{system}\t{correct}/{n}\t{accuracy(report.rows, system):.4f}")
    lines.append("")
    lines.append("# external baseline systems are not part of this artifact")
    return "\n".join(lines) + "\n"


def report_to_sidecar(report: LoocvReport) -> dict:
    _check_configs(report.configs)
    return {
        "version": REPORT_VERSION,
        "seed": report.seed,
        "configs": report.configs,
        "rows": [row.as_record() for row in report.rows],
        "accuracies": {
            system: {
                "correct": correct_count(report.rows, system),
                "total": len(report.rows),
                "fraction": accuracy(report.rows, system),
            }
            for system in SYSTEMS
        },
    }


def write_report_files(report: LoocvReport, outdir: str | Path) -> tuple[Path, Path]:
    """Write the human table and the machine-readable sidecar; returns both
    paths. The sidecar carries everything sweep re-fusion needs."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    table_path = outdir / "report.txt"
    sidecar_path = outdir / "report.json"
    table_path.write_text(render_report(report), encoding="utf-8")
    sidecar_path.write_text(
        json.dumps(report_to_sidecar(report), indent=1) + "\n", encoding="utf-8"
    )
    return table_path, sidecar_path


_ROW_FIELDS = tuple(f.name for f in fields(FoldRow))


def report_from_sidecar(payload: dict) -> LoocvReport:
    """Rebuild a report object from its machine-readable sidecar. A row
    without exactly ``FoldRow``'s fields, or with a label that is not a
    ``Label`` value, raises a ValueError naming the row index and the
    participant."""
    rows = []
    for index, rec in enumerate(payload["rows"]):
        where = f"row {index}"
        if "participant_id" in rec:
            where += f" ({rec['participant_id']})"
        missing = [key for key in _ROW_FIELDS if key not in rec]
        unexpected = [key for key in rec if key not in _ROW_FIELDS]
        if missing or unexpected:
            raise ValueError(f"{where}: missing fields {missing}, unexpected fields {unexpected}")
        kwargs = dict(rec)
        for key in ("label", "gmm_decision", "rankpool_decision", "combined_decision"):
            try:
                kwargs[key] = Label(rec[key])
            except ValueError as exc:
                raise ValueError(f"{where}: {key}: {exc}") from None
        rows.append(FoldRow(**kwargs))
    return LoocvReport(rows=rows, configs=payload["configs"], seed=payload["seed"])


def load_sidecar(path: str | Path) -> dict:
    """The sidecar in ``path``; a payload that ``report`` or ``sweep`` cannot
    use raises a ValueError naming the file."""
    payload = read_json(path, ("seed", "configs", "rows"))
    if payload.get("version") != REPORT_VERSION:
        raise ValueError(f"{path}: unsupported report version: {payload.get('version')}")
    rows = payload["rows"]
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise ValueError(f"{path}: rows must be a list of JSON objects")
    if not rows:
        raise ValueError(f"{path}: rows is empty")
    try:
        _check_configs(payload["configs"])
        fusion = payload["configs"]["fusion"]
        FusionConfig(**fusion)
        missing = [f.name for f in fields(FusionConfig) if f.name not in fusion]
        if missing:
            raise ValueError(f"configs.fusion is missing keys {missing}")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    return payload


def sweep_from_sidecar(payload: dict, omegas) -> fusion_mod.SweepTable:
    """Re-fuse a cached run's rows per omega; no model retraining."""
    base = FusionConfig(**payload["configs"]["fusion"])
    return fusion_mod.sweep_omega(payload["rows"], omegas, base)
