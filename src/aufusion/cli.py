"""Command-line front end for the AU depression-classification pipeline.

Subcommands cover the whole workflow: ``synth`` writes a synthetic corpus,
``fit-gmm`` / ``pool`` / ``train-mlp`` build the individual artifacts,
``score`` classifies a single clip, ``loocv`` runs the leave-one-out
protocol, ``sweep`` re-fuses a cached run across vote weights, and
``report`` re-renders a cached run's table.

Every flag has a default shown in ``--help``; a JSON config file can supply
values, but explicit flags win. All randomness flows from ``--seed``. Every
run that writes outputs also writes a provenance file with the resolved
configuration. Exit codes: 0 success, 1 runtime failure, 2 usage or
validation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .evaluate import (
    PipelineConfig,
    _subsample,
    load_sidecar,
    loocv,
    pool_corpus,
    render_report,
    report_from_sidecar,
    segment_votes,
    sweep_from_sidecar,
    write_report_files,
)
from .fusion import FusionConfig, fuse
from .gmm import EmConfig, fit_em, likelihood_ratio_decision, load_gmm, save_gmm, score_pair
from .ingest import (
    Corpus,
    Label,
    SynthConfig,
    parse_au_csv,
    pooled_class_frames,
    read_corpus,
    synth_corpus,
    write_corpus,
)
from .mlp import TrainConfig, load_mlp, save_mlp, train_mlp
from .rankpool import RankPoolConfig, pool_clip, read_descriptors, write_descriptors


class ValidationError(ValueError):
    """Bad arguments or missing inputs; maps to exit code 2."""


def _add_config_flag(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="JSON file with flag defaults (explicit flags win)",
    )


def _add_pipeline_args(parser: argparse.ArgumentParser, fusion_args: bool = True):
    group = parser.add_argument_group("windowing (17 AU intensity columns per frame)")
    group.add_argument("--window", type=int, default=150, help="segment length in frames")
    group.add_argument("--stride", type=int, default=150, help="segment start spacing")

    group = parser.add_argument_group("mixture fitting")
    group.add_argument("--components", type=int, default=32, help="mixture components per class")
    group.add_argument("--em-iters", type=int, default=200, help="max EM iterations")
    group.add_argument("--em-tol", type=float, default=1e-4, help="relative improvement stop")
    group.add_argument("--variance-floor", type=float, default=1e-4)
    group.add_argument("--n-init", type=int, default=3, help="EM restarts")
    group.add_argument(
        "--gmm-fit-frames",
        type=int,
        default=None,
        help="cap pooled frames per class for EM (even-stride subsample)",
    )

    group = parser.add_argument_group("rank pooling")
    group.add_argument("--margin", type=float, default=1.0, help="required rank score gap")
    group.add_argument("--reg-c", type=float, default=1.0, help="hinge trade-off")
    group.add_argument("--rank-epochs", type=int, default=200)
    group.add_argument("--step-size", type=float, default=1.0)
    group.add_argument("--no-smooth", action="store_true", help="disable running-mean smoothing")

    group = parser.add_argument_group("segment classifier")
    group.add_argument("--hidden1", type=int, default=32)
    group.add_argument("--hidden2", type=int, default=16)
    group.add_argument("--dropout", type=float, default=0.5)
    group.add_argument("--learning-rate", type=float, default=0.01)
    group.add_argument("--mlp-epochs", type=int, default=300)
    group.add_argument("--batch-size", type=int, default=16)

    if fusion_args:
        group = parser.add_argument_group("fusion")
        group.add_argument("--omega", type=float, default=1.0, help="vote weight")
        group.add_argument(
            "--tau", type=float, default=None, help="decision threshold (default omega*N/2)"
        )
        group.add_argument(
            "--raw-ll",
            action="store_true",
            help="use the raw likelihood gap instead of the per-frame average",
        )

    parser.add_argument("--seed", type=int, default=7, help="root seed for all randomness")


def _pipeline_from_args(args) -> PipelineConfig:
    fusion = FusionConfig(
        omega=getattr(args, "omega", 1.0),
        tau=getattr(args, "tau", None),
        normalize_ll=not getattr(args, "raw_ll", False),
    )
    return PipelineConfig(
        window=args.window,
        stride=args.stride,
        em=EmConfig(
            n_components=args.components,
            max_iters=args.em_iters,
            tol=args.em_tol,
            variance_floor=args.variance_floor,
            seed=args.seed,
            n_init=args.n_init,
        ),
        rankpool=RankPoolConfig(
            margin=args.margin,
            reg_c=args.reg_c,
            max_epochs=args.rank_epochs,
            step_size=args.step_size,
            smooth=not args.no_smooth,
        ),
        mlp=TrainConfig(
            hidden1=args.hidden1,
            hidden2=args.hidden2,
            dropout=args.dropout,
            learning_rate=args.learning_rate,
            epochs=args.mlp_epochs,
            batch_size=args.batch_size,
            seed=args.seed,
        ),
        fusion=fusion,
        seed=args.seed,
        gmm_fit_frames=args.gmm_fit_frames,
    )


def _write_provenance(target: Path, command: str, args: argparse.Namespace):
    # "out" is implied by the file's own location and would break byte-level
    # reproducibility of runs targeting different directories.
    resolved = {k: v for k, v in vars(args).items() if k not in ("func", "config", "out")}
    payload = {
        "tool": "aufusion",
        "version": __version__,
        "command": command,
        "resolved_config": resolved,
    }
    if target.is_dir():
        path = target / "provenance.json"
    else:
        path = target.with_name(target.name + ".provenance.json")
    path.write_text(json.dumps(payload, indent=1, default=str) + "\n", encoding="utf-8")


def _write_output(out: Path, text: str, command: str, args: argparse.Namespace):
    """Write one command's text output and its provenance next to it."""
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text, encoding="utf-8")
    _write_provenance(out, command, args)


def _require_file(path: str | None, what: str) -> Path:
    if path is None:
        raise ValidationError(f"{what} is required")
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"{what} not found: {p}")
    return p


def _require_corpus_dir(path: str | None) -> Path:
    if path is None:
        raise ValidationError("corpus directory is required")
    p = Path(path)
    if not (p / "manifest.jsonl").is_file():
        raise ValidationError(f"corpus path missing manifest.jsonl: {p}")
    return p


def _load_labelled_corpus(path: str | None) -> Corpus:
    return read_corpus(_require_corpus_dir(path))


def cmd_synth(args) -> int:
    config = SynthConfig(
        n_participants=args.n,
        frames_per_clip=args.frames,
        class_separation=args.separation,
        noise_std=args.noise,
        seed=args.seed,
    )
    corpus = synth_corpus(config)
    out = Path(args.out)
    write_corpus(corpus, out)
    _write_provenance(out, "synth", args)
    print(f"wrote {len(corpus)} clips to {out}")
    return 0


def cmd_fit_gmm(args) -> int:
    corpus = _load_labelled_corpus(args.corpus)
    corpus.require_labels()
    pipeline = _pipeline_from_args(args)
    pooled = pooled_class_frames(corpus.clips)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for label, name, seed_offset in (
        (Label.DEPRESSED, "gmm-depressed.json", 0),
        (Label.NONDEPRESSED, "gmm-nondepressed.json", 1),
    ):
        config = dataclasses.replace(pipeline.em, seed=pipeline.seed + seed_offset)
        model = fit_em(_subsample(pooled[label], pipeline.gmm_fit_frames), config)
        save_gmm(model, out / name, config)
        print(f"fitted {label.value}: {model.n} components -> {out / name}")
    _write_provenance(out, "fit-gmm", args)
    return 0


def cmd_pool(args) -> int:
    corpus = _load_labelled_corpus(args.corpus)
    pooled = pool_corpus(corpus, _pipeline_from_args(args))
    descriptors = [desc for clip_descs in pooled.values() for desc in clip_descs]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_descriptors(descriptors, out)
    _write_provenance(out, "pool", args)
    print(f"wrote {len(descriptors)} descriptors to {out}")
    return 0


def cmd_train_mlp(args) -> int:
    corpus = _load_labelled_corpus(args.corpus)
    corpus.require_labels()
    descriptors = read_descriptors(_require_file(args.descriptors, "descriptor file"))
    pipeline = _pipeline_from_args(args)
    labels_by_id = {c.participant_id: c.label for c in corpus.clips}
    xs, ys = [], []
    for desc in descriptors:
        label = labels_by_id.get(desc.source_id)
        if label is None:
            raise ValidationError(f"descriptor source {desc.source_id!r} not in corpus")
        xs.append(desc.d)
        ys.append(1 if label is Label.DEPRESSED else 0)
    model = train_mlp(np.array(xs), np.array(ys), pipeline.mlp)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_mlp(model, out, pipeline.mlp)
    _write_provenance(out, "train-mlp", args)
    print(f"trained on {len(xs)} descriptors -> {out}")
    return 0


def cmd_score(args) -> int:
    clip_path = _require_file(args.clip, "clip CSV")
    dep_model, _ = load_gmm(_require_file(args.gmm_dep, "depressed model"))
    ndep_model, _ = load_gmm(_require_file(args.gmm_ndep, "non-depressed model"))
    mlp_model, _ = load_mlp(_require_file(args.mlp, "segment classifier model"))
    pipeline = _pipeline_from_args(args)

    with open(clip_path, encoding="utf-8") as fh:
        clip = parse_au_csv(fh, participant_id=clip_path.stem)
    ll_dep, ll_ndep = score_pair(dep_model, ndep_model, clip)
    descriptors = pool_clip(clip, pipeline.window, pipeline.stride, pipeline.rankpool)
    votes = segment_votes(mlp_model, descriptors)
    result = fuse(ll_dep, ll_ndep, votes, pipeline.fusion, n_frames=clip.n_frames)
    header = "participant_id\tll_dep\tll_ndep\tn_segments\tn_dep_votes\tscore\tdecision"
    line = "\t".join(
        [
            clip.participant_id,
            repr(ll_dep),
            repr(ll_ndep),
            str(result.n_segments),
            str(result.n_dep_votes),
            repr(result.score),
            result.decision.value,
        ]
    )
    print(header)
    print(line)
    gmm_only = likelihood_ratio_decision(ll_dep, ll_ndep)
    print(f"# gmm-only decision: {gmm_only.value}", file=sys.stderr)
    if args.out:
        _write_output(Path(args.out), header + "\n" + line + "\n", "score", args)
    return 0


def cmd_loocv(args) -> int:
    corpus = _load_labelled_corpus(args.corpus)
    pipeline = _pipeline_from_args(args)
    report = loocv(corpus, pipeline, jobs=args.jobs)
    out = Path(args.out)
    table_path, sidecar_path = write_report_files(report, out)
    _write_provenance(out, "loocv", args)
    print(Path(table_path).read_text(encoding="utf-8"))
    print(f"report: {table_path}\nsidecar: {sidecar_path}")
    return 0


def _parse_omegas(text: str) -> list[float]:
    values = [v for v in text.split(",") if v.strip()]
    if not values:
        raise ValidationError("need at least one omega value")
    try:
        return [float(v) for v in values]
    except ValueError as exc:
        raise ValidationError(f"bad omega list: {exc}") from None


def cmd_sweep(args) -> int:
    sidecar = load_sidecar(_require_file(args.report, "report sidecar"))
    omegas = _parse_omegas(args.omegas)
    table = sweep_from_sidecar(sidecar, omegas)
    lines = ["omega\taccuracy"] + [f"{repr(o)}\t{repr(a)}" for o, a in table]
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        _write_output(Path(args.out), text, "sweep", args)
    return 0


def cmd_report(args) -> int:
    sidecar = load_sidecar(_require_file(args.report, "report sidecar"))
    text = render_report(report_from_sidecar(sidecar))
    print(text, end="")
    if args.out:
        _write_output(Path(args.out), text, "report", args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aufusion",
        description=__doc__,
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"aufusion {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("synth", help="generate a balanced synthetic corpus", formatter_class=fmt)
    _add_config_flag(p)
    p.add_argument("--out", required=True, help="output corpus directory")
    p.add_argument("--n", type=int, default=30, help="participants (even)")
    p.add_argument("--frames", type=int, default=9000, help="frames per clip")
    p.add_argument("--separation", type=float, default=2.0, help="class separation")
    p.add_argument("--noise", type=float, default=0.3, help="per-frame noise std")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit-gmm", help="fit both class mixtures on a corpus", formatter_class=fmt)
    _add_config_flag(p)
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--out", required=True, help="output model directory")
    _add_pipeline_args(p, fusion_args=False)
    p.set_defaults(func=cmd_fit_gmm)

    p = sub.add_parser("pool", help="rank-pool every clip into descriptors", formatter_class=fmt)
    _add_config_flag(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="descriptor TSV path")
    _add_pipeline_args(p, fusion_args=False)
    p.set_defaults(func=cmd_pool)

    p = sub.add_parser(
        "train-mlp", help="train the segment vote classifier", formatter_class=fmt
    )
    _add_config_flag(p)
    p.add_argument("--corpus", required=True, help="corpus directory (labels)")
    p.add_argument("--descriptors", required=True, help="descriptor TSV from pool")
    p.add_argument("--out", required=True, help="model JSON path")
    _add_pipeline_args(p, fusion_args=False)
    p.set_defaults(func=cmd_train_mlp)

    p = sub.add_parser("score", help="score one clip through all systems", formatter_class=fmt)
    _add_config_flag(p)
    p.add_argument("--clip", required=True, help="clip CSV")
    p.add_argument("--gmm-dep", required=True)
    p.add_argument("--gmm-ndep", required=True)
    p.add_argument("--mlp", required=True)
    p.add_argument("--out", default=None, help="optional row output path")
    _add_pipeline_args(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("loocv", help="leave-one-out evaluation", formatter_class=fmt)
    _add_config_flag(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="report output directory")
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="parallel folds (default: the CPUs this process may run on)",
    )
    _add_pipeline_args(p)
    p.set_defaults(func=cmd_loocv)

    p = sub.add_parser("sweep", help="re-fuse a cached run across omegas", formatter_class=fmt)
    _add_config_flag(p)
    p.add_argument("--report", required=True, help="report.json sidecar")
    p.add_argument("--omegas", required=True, help="comma-separated omega values")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="re-render a cached run's table", formatter_class=fmt)
    _add_config_flag(p)
    p.add_argument("--report", required=True, help="report.json sidecar")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Load ``--config`` JSON (if any) as subcommand defaults; flags win."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise ValidationError("--config needs a file path")
    config_path = _require_file(argv[idx + 1], "config file")
    values = json.loads(config_path.read_text(encoding="utf-8"))
    if not isinstance(values, dict):
        raise ValidationError("config file must hold a JSON object")
    # Locate the subparser to validate keys and set defaults.
    command = argv[0] if argv and not argv[0].startswith("-") else None
    for action in parser._subparsers._group_actions:  # noqa: SLF001
        subparser = action.choices.get(command) if command else None
        if subparser is not None:
            known = {a.dest for a in subparser._actions}  # noqa: SLF001
            unknown = set(values) - known
            if unknown:
                raise ValidationError(f"unknown config keys: {sorted(unknown)}")
            subparser.set_defaults(**values)
            for action in subparser._actions:  # noqa: SLF001
                if action.dest in values and action.required:
                    action.required = False
            return argv
    raise ValidationError("--config requires a subcommand")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        prepared = args.func
    except AttributeError:  # pragma: no cover - argparse enforces a command
        parser.print_usage(sys.stderr)
        return 2
    try:
        return prepared(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Bad numeric settings and schema violations are configuration
        # problems, not crashes.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
