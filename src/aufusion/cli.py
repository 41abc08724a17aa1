"""Command-line front end for the AU depression-classification pipeline.

Subcommands cover the whole workflow: ``synth`` writes a synthetic corpus,
``fit-gmm`` / ``pool`` / ``train-mlp`` build the individual artifacts,
``score`` classifies a single clip, ``loocv`` runs the leave-one-out
protocol, ``sweep`` re-fuses a cached run across vote weights, and
``report`` re-renders a cached run's table.

Each subcommand takes the flags of the pipeline stages it runs, each with a
default shown in ``--help``; a JSON config file can supply values for those
flags, but explicit flags win. All randomness flows from ``--seed``. Every
run that writes outputs also writes a provenance file with the resolved
configuration. Exit codes: 0 success, 1 runtime failure, 2 usage or
validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import typing
from dataclasses import replace
from pathlib import Path

from . import __version__
from .evaluate import (
    PipelineConfig,
    fit_class_gmms,
    load_sidecar,
    loocv,
    pool_corpus,
    render_report,
    report_from_sidecar,
    score_clip,
    sweep_from_sidecar,
    training_set,
    write_report_files,
)
from .gmm import likelihood_ratio_decision, load_gmm, save_gmm
from .ingest import (
    Label, SynthConfig, read_clip, read_corpus, read_json, synth_corpus, write_corpus
)
from .mlp import load_mlp, save_mlp, train_mlp
from .rankpool import read_descriptors, write_descriptors


class ValidationError(ValueError):
    """Bad arguments or missing inputs; maps to exit code 2."""


# One row per flag that sets a config field: (stage, flag, section, field,
# help). ``stage`` names the pipeline stage that reads the flag and titles
# its help group; a subcommand takes the flags of the stages it runs.
# ``section`` names the part of PipelineConfig that holds the field ("" for
# PipelineConfig itself). The flag's default and type come from the field; a
# boolean field's flag switches it off. Row order is the order of the flags
# in usage lines and provenance files.
MIXTURE, POOLING, CLASSIFIER, FUSION, SEED = (
    "mixture fitting", "rank pooling", "segment classifier", "fusion", "seed"
)
_PIPELINE_FLAGS = (
    (POOLING, "--window", "", "window", "segment length in frames"),
    (POOLING, "--stride", "", "stride", "segment start spacing"),
    (MIXTURE, "--components", "em", "n_components", "mixture components per class"),
    (MIXTURE, "--em-iters", "em", "max_iters", "max EM iterations"),
    (MIXTURE, "--em-tol", "em", "tol", "relative improvement stop"),
    (MIXTURE, "--variance-floor", "em", "variance_floor", "floor on every component variance"),
    (MIXTURE, "--n-init", "em", "n_init", "EM restarts"),
    (MIXTURE, "--gmm-fit-frames", "", "gmm_fit_frames", "cap on pooled frames per class for EM"),
    (POOLING, "--margin", "rankpool", "margin", "required rank score gap"),
    (POOLING, "--reg-c", "rankpool", "reg_c", "hinge trade-off"),
    (POOLING, "--rank-epochs", "rankpool", "max_epochs", "max ranking-kernel solver epochs"),
    (POOLING, "--step-size", "rankpool", "step_size", "initial solver step size"),
    (POOLING, "--no-smooth", "rankpool", "smooth", "disable running-mean smoothing"),
    (CLASSIFIER, "--hidden1", "mlp", "hidden1", "first hidden layer width"),
    (CLASSIFIER, "--hidden2", "mlp", "hidden2", "second hidden layer width"),
    (CLASSIFIER, "--dropout", "mlp", "dropout", "dropout rate after each hidden layer"),
    (CLASSIFIER, "--learning-rate", "mlp", "learning_rate", "SGD step size"),
    (CLASSIFIER, "--mlp-epochs", "mlp", "epochs", "training epochs"),
    (CLASSIFIER, "--batch-size", "mlp", "batch_size", "SGD mini-batch size"),
    (FUSION, "--omega", "fusion", "omega", "vote weight"),
    (FUSION, "--tau", "fusion", "tau", "decision threshold (None: omega*N/2)"),
    (FUSION, "--raw-ll", "fusion", "normalize_ll", "use the raw, not per-frame, likelihood gap"),
    (SEED, "--seed", "", "seed", "root seed for all randomness"),
)

# The same rows for SynthConfig, which has no sections.
_SYNTH_FLAGS = (
    ("synthetic corpus", "--n", "", "n_participants", "participants (even)"),
    ("synthetic corpus", "--frames", "", "frames_per_clip", "frames per clip"),
    ("synthetic corpus", "--separation", "", "class_separation", "class separation"),
    ("synthetic corpus", "--noise", "", "noise_std", "per-frame noise std"),
    ("synthetic corpus", "--seed", "", "seed", "root seed"),
)


def _add_flags(parser: argparse.ArgumentParser, rows, config):
    """One flag per row, in one help group per stage; ``config`` supplies
    the defaults."""
    groups = {}
    for stage, flag, section, field, help_text in rows:
        if stage not in groups:
            groups[stage] = parser.add_argument_group(stage)
        owner = getattr(config, section) if section else config
        default = getattr(owner, field)
        if isinstance(default, bool):
            groups[stage].add_argument(flag, action="store_true", help=help_text)
            continue
        hint = typing.get_type_hints(type(owner))[field]
        kind = (typing.get_args(hint) or (hint,))[0]  # int | None -> int
        groups[stage].add_argument(flag, type=kind, default=default, help=help_text)


def _values_from_args(args, rows) -> dict[str, dict]:
    """Field values per section from the parsed flags the parser has."""
    values: dict[str, dict] = {}
    for _, flag, section, field, _ in rows:
        dest = flag[2:].replace("-", "_")
        if hasattr(args, dest):
            value = getattr(args, dest)
            values.setdefault(section, {})[field] = not value if isinstance(value, bool) else value
    return values


def _add_pipeline_args(parser: argparse.ArgumentParser, *stages: str):
    _add_flags(parser, [row for row in _PIPELINE_FLAGS if row[0] in stages], PipelineConfig())


def _pipeline_from_args(args) -> PipelineConfig:
    """The parsed flags over the ``PipelineConfig`` defaults."""
    values = _values_from_args(args, _PIPELINE_FLAGS)
    base = PipelineConfig()
    # The root seed also seeds every model; folds derive their own from it.
    for section in ("em", "mlp"):
        values.setdefault(section, {})["seed"] = getattr(args, "seed", base.seed)
    parts = {s: replace(getattr(base, s), **v) for s, v in values.items() if s}
    return replace(base, **values.get("", {}), **parts)


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


def cmd_synth(args) -> int:
    corpus = synth_corpus(SynthConfig(**_values_from_args(args, _SYNTH_FLAGS)[""]))
    out = Path(args.out)
    write_corpus(corpus, out)
    _write_provenance(out, "synth", args)
    print(f"wrote {len(corpus)} clips to {out}")
    return 0


def cmd_fit_gmm(args) -> int:
    corpus = read_corpus(args.corpus)
    corpus.require_labels()
    pipeline = _pipeline_from_args(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fitted = fit_class_gmms(corpus.clips, pipeline, pipeline.seed)
    for (label, name), (model, config) in zip(
        ((Label.DEPRESSED, "gmm-depressed.json"), (Label.NONDEPRESSED, "gmm-nondepressed.json")),
        fitted,
    ):
        save_gmm(model, out / name, config)
        print(f"fitted {label.value}: {model.n} components -> {out / name}")
    _write_provenance(out, "fit-gmm", args)
    return 0


def cmd_pool(args) -> int:
    corpus = read_corpus(args.corpus)
    pipeline = _pipeline_from_args(args)
    descriptors = pool_corpus(corpus, pipeline)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_descriptors(descriptors, pipeline.stride, out)
    _write_provenance(out, "pool", args)
    print(f"wrote {sum(map(len, descriptors.values()))} descriptors to {out}")
    return 0


def cmd_train_mlp(args) -> int:
    corpus = read_corpus(args.corpus)
    corpus.require_labels()
    path = _require_file(args.descriptors, "descriptor file")
    by_source = read_descriptors(path)
    if not by_source:
        raise ValidationError(f"{path}: holds no descriptor rows")
    unknown = sorted(set(by_source) - {c.participant_id for c in corpus.clips})
    if unknown:
        raise ValidationError(f"descriptor sources {unknown} not in corpus")
    pipeline = _pipeline_from_args(args)
    xs, ys = training_set([c for c in corpus.clips if c.participant_id in by_source], by_source)
    model = train_mlp(xs, ys, pipeline.mlp)
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
    clip = read_clip(clip_path, clip_path.stem)
    result, _ = score_clip(clip, (dep_model, ndep_model, mlp_model), _pipeline_from_args(args))
    header = "participant_id\tll_dep\tll_ndep\tn_segments\tn_dep_votes\tscore\tdecision"
    numbers = (result.ll_dep, result.ll_ndep, result.n_segments, result.n_dep_votes, result.score)
    line = "\t".join([clip.participant_id, *map(repr, numbers), result.decision.value])
    print(header)
    print(line)
    gmm_only = likelihood_ratio_decision(result.ll_dep, result.ll_ndep)
    print(f"# gmm-only decision: {gmm_only.value}", file=sys.stderr)
    if args.out:
        _write_output(Path(args.out), header + "\n" + line + "\n", "score", args)
    return 0


def cmd_loocv(args) -> int:
    corpus = read_corpus(args.corpus)
    pipeline = _pipeline_from_args(args)
    report = loocv(corpus, pipeline, jobs=args.jobs)
    out = Path(args.out)
    table_path, sidecar_path = write_report_files(report, out)
    _write_provenance(out, "loocv", args)
    print(Path(table_path).read_text(encoding="utf-8"))
    print(f"report: {table_path}\nsidecar: {sidecar_path}")
    return 0


_OMEGA_RANGE = "START:STOP:STEP"
_MAX_STEPS = 10**6  # a longer range is a typo, not a sweep


def _parse_omegas(text: str) -> list[float]:
    """A comma list of omegas, or one ``START:STOP:STEP`` item meaning
    ``START + i * STEP`` for ``i = 0 .. round((STOP - START) / STEP)``."""
    if ":" in text:
        try:
            start, stop, step = (float(part) for part in text.split(":"))
        except ValueError:
            raise ValidationError(f"bad omega range {text!r}: expected {_OMEGA_RANGE}") from None
        if not all(math.isfinite(x) for x in (start, stop, step)) or step <= 0 or stop < start:
            raise ValidationError(
                f"bad omega range {text!r}: {_OMEGA_RANGE} needs finite parts,"
                " STEP > 0 and STOP >= START"
            )
        steps = (stop - start) / step
        if steps > _MAX_STEPS:
            raise ValidationError(
                f"bad omega range {text!r}: {_OMEGA_RANGE} takes more than {_MAX_STEPS} steps"
            )
        return [start + i * step for i in range(round(steps) + 1)]
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
    fmt = argparse.ArgumentDefaultsHelpFormatter
    parser = argparse.ArgumentParser(prog="aufusion", description=__doc__, formatter_class=fmt)
    parser.add_argument("--version", action="version", version=f"aufusion {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = _config_parser()

    def command(name, help_text, func, description=None):
        p = sub.add_parser(
            name, help=help_text, description=description, parents=[common], formatter_class=fmt
        )
        p.set_defaults(func=func)
        return p

    p = command("synth", "generate a balanced synthetic corpus", cmd_synth)
    p.add_argument("--out", required=True, help="output corpus directory")
    _add_flags(p, _SYNTH_FLAGS, SynthConfig())

    p = command("fit-gmm", "fit both class mixtures on a corpus", cmd_fit_gmm)
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--out", required=True, help="output model directory")
    _add_pipeline_args(p, MIXTURE, SEED)

    p = command("pool", "rank-pool every clip into descriptors", cmd_pool)
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--out", required=True, help="descriptor TSV path")
    _add_pipeline_args(p, POOLING)

    p = command("train-mlp", "train the segment vote classifier", cmd_train_mlp)
    p.add_argument("--corpus", required=True, help="corpus directory (labels)")
    p.add_argument("--descriptors", required=True, help="descriptor TSV from pool")
    p.add_argument("--out", required=True, help="model JSON path")
    _add_pipeline_args(p, CLASSIFIER, SEED)

    p = command("score", "score one clip through all systems", cmd_score)
    p.add_argument("--clip", required=True, help="clip CSV")
    p.add_argument("--gmm-dep", required=True, help="depressed mixture JSON")
    p.add_argument("--gmm-ndep", required=True, help="non-depressed mixture JSON")
    p.add_argument("--mlp", required=True, help="segment classifier JSON")
    p.add_argument("--out", default=None, help="optional row output path")
    _add_pipeline_args(p, POOLING, FUSION)

    p = command("loocv", "leave-one-out evaluation", cmd_loocv)
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--out", required=True, help="report output directory")
    p.add_argument("--jobs", type=int, help="parallel folds (None: one per usable CPU)")
    _add_pipeline_args(p, MIXTURE, POOLING, CLASSIFIER, FUSION, SEED)

    p = command(
        "sweep",
        "re-fuse a cached run across omegas",
        cmd_sweep,
        "Re-fuse a cached leave-one-out run at each omega, without retraining, and "
        "print the combined accuracy per omega. The accuracy is measured on the "
        "leave-one-out test folds, so an omega picked from this table is chosen on "
        "test data and its accuracy is not a held-out estimate.",
    )
    p.add_argument("--report", required=True, help="report.json sidecar")
    p.add_argument(
        "--omegas",
        required=True,
        help=f"comma-separated omega values, or one {_OMEGA_RANGE} range"
        " (START + i*STEP for i = 0 .. round((STOP - START) / STEP))",
    )
    p.add_argument("--out", default=None, help="optional table output path")

    p = command("report", "re-render a cached run's table", cmd_report)
    p.add_argument("--report", required=True, help="report.json sidecar")
    p.add_argument("--out", default=None, help="optional table output path")

    return parser


def _config_parser() -> argparse.ArgumentParser:
    """The ``--config`` flag every subcommand inherits."""
    # No abbreviations: a prefix such as ``--co`` may be ambiguous in the
    # subcommand, and must not be read as ``--config`` here.
    parser = argparse.ArgumentParser(prog="aufusion", add_help=False, allow_abbrev=False)
    parser.add_argument("--config", metavar="FILE", help="JSON file of flag values; flags win")
    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]):
    """Load ``--config`` JSON (if any) as subcommand defaults; flags win."""
    path = _config_parser().parse_known_args(argv)[0].config
    if path is None:
        return
    subparser = parser._subparsers._group_actions[0].choices.get(argv[0])  # noqa: SLF001
    if subparser is None:
        raise ValidationError("--config must come after the subcommand name")
    values = read_json(_require_file(path, "config file"))
    unknown = set(values) - {a.dest for a in subparser._actions}  # noqa: SLF001
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    subparser.set_defaults(**values)
    for action in subparser._actions:  # noqa: SLF001
        if action.dest in values:
            action.required = False


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
    except ValueError as exc:  # ValidationError or an unreadable config file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        # Bad numeric settings, schema violations, missing inputs and
        # ValidationError are configuration problems, not crashes.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
