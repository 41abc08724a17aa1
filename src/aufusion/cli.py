"""Command-line front end for the AU depression-classification pipeline.

Subcommands cover the whole workflow: ``synth`` writes a synthetic corpus,
``train`` fits the two class mixtures and the segment vote classifier on a
corpus (rank-pooling its clips in-process) and writes them to one model
file, ``score`` classifies a single clip with such a file, ``loocv`` runs
the leave-one-out protocol, ``sweep`` re-fuses a cached run across vote
weights, and ``report`` re-renders a cached run's table.

Each subcommand takes the flags of the pipeline stages it runs, each with a
default shown in ``--help``; a JSON config file can supply values for those
flags, but explicit flags win. ``score`` takes only the fusion flags: it
pools a clip with the settings stored in the model file. All randomness
flows from ``--seed``; ``train`` derives its model seeds from it as a
leave-one-out fold does from its fold seed, so at a fold's seed, on its
training clips, it rebuilds that fold's models. Every run that writes
outputs also writes a provenance file with the resolved configuration. Exit
codes: 0 success, 1 runtime failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .evaluate import (
    PipelineConfig,
    fit_models,
    load_model,
    load_sidecar,
    loocv,
    pool_corpus,
    render_report,
    report_from_sidecar,
    save_model,
    score_clip,
    sweep_from_sidecar,
    write_report_files,
)
from .fusion import BadRecord
from .gmm import likelihood_ratio_decision
from .ingest import (
    SynthConfig, field_kinds, kind_error, read_clip, read_corpus, read_json, synth_corpus,
    write_corpus,
)


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
    (MIXTURE, "--variance-floor", "em", "variance_floor",
     "floor on every component variance (> 0)"),
    (MIXTURE, "--n-init", "em", "n_init", "EM restarts"),
    (MIXTURE, "--gmm-fit-frames", "", "gmm_fit_frames", "cap on pooled frames per class for EM"),
    (POOLING, "--reg-c", "rankpool", "reg_c", "squared-hinge trade-off"),
    (POOLING, "--rank-epochs", "rankpool", "max_epochs", "cap on Newton iterations"),
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
        kind, _ = field_kinds(type(owner))[field]
        if kind is bool:
            groups[stage].add_argument(flag, action="store_true", help=help_text)
        else:
            groups[stage].add_argument(
                flag, type=kind, default=getattr(owner, field), help=help_text
            )


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


def cmd_train(args) -> int:
    corpus = read_corpus(args.corpus)
    corpus.require_labels()
    pipeline = _pipeline_from_args(args)
    descriptors = pool_corpus(corpus, pipeline)
    models = fit_models(corpus.clips, descriptors, pipeline, pipeline.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(out, models, pipeline)
    _write_provenance(out, "train", args)
    n_windows = sum(map(len, descriptors.values()))
    print(f"trained on {len(corpus)} clips and {n_windows} windows -> {out}")
    return 0


def cmd_score(args) -> int:
    clip_path = _require_file(args.clip, "clip CSV")
    model_path = _require_file(args.model, "model file")
    models, pipeline = load_model(model_path, _pipeline_from_args(args))
    clip = read_clip(clip_path, clip_path.stem)
    result, _ = score_clip(clip, models, pipeline)
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
# Slack, in steps, for the rounding of (STOP - START) / STEP, which stays
# below 1e-9 of a step up to _MAX_STEPS steps: a STOP on the grid is kept.
_STEP_SLACK = 1e-6


def _parse_omegas(text: str) -> list[float]:
    """A comma list of omegas, or one ``START:STOP:STEP`` item meaning
    ``START + i * STEP`` for ``i = 0 .. floor((STOP - START) / STEP)``: no
    omega lies past STOP by more than the slack of that division."""
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
        return [start + i * step for i in range(math.floor(steps + _STEP_SLACK) + 1)]
    values = [v for v in text.split(",") if v.strip()]
    if not values:
        raise ValidationError("need at least one omega value")
    try:
        return [float(v) for v in values]
    except ValueError as exc:
        raise ValidationError(f"bad omega list: {exc}") from None


def cmd_sweep(args) -> int:
    path = _require_file(args.report, "report sidecar")
    sidecar = load_sidecar(path)
    omegas = _parse_omegas(args.omegas)
    try:
        table = sweep_from_sidecar(sidecar, omegas)
    except BadRecord as exc:
        raise ValidationError(f"{path}: {exc}") from None
    lines = ["omega\taccuracy"] + [f"{repr(o)}\t{repr(a)}" for o, a in table]
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        _write_output(Path(args.out), text, "sweep", args)
    return 0


def cmd_report(args) -> int:
    path = _require_file(args.report, "report sidecar")
    sidecar = load_sidecar(path)
    try:
        report = report_from_sidecar(sidecar)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    text = render_report(report)
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

    p = command("train", "fit all three models on a corpus into one model file", cmd_train)
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--out", required=True, help="model JSON path")
    _add_pipeline_args(p, MIXTURE, POOLING, CLASSIFIER, SEED)

    p = command("score", "score one clip through all systems", cmd_score)
    p.add_argument("--clip", required=True, help="clip CSV")
    p.add_argument("--model", required=True, help="model JSON written by train")
    p.add_argument("--out", default=None, help="optional row output path")
    _add_pipeline_args(p, FUSION)

    p = command("loocv", "leave-one-out evaluation", cmd_loocv)
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--out", required=True, help="report output directory")
    p.add_argument(
        "--jobs", type=int, help="worker processes, at least 1 (None: one per usable CPU)"
    )
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
        " (START + i*STEP for i = 0 .. floor((STOP - START) / STEP))",
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


def _config_type_error(action: argparse.Action, value) -> str | None:
    """What the flag of ``action`` takes, if a config value of its key could
    not come from that flag; None if it could."""
    nullable = action.default is None and not action.required
    store_true = isinstance(action, argparse._StoreTrueAction)  # noqa: SLF001
    kind = bool if store_true else action.type or str
    return kind_error(kind, nullable, value, null="null")


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]):
    """Load ``--config`` JSON (if any) as subcommand defaults; flags win."""
    path = _config_parser().parse_known_args(argv)[0].config
    if path is None:
        return
    subparser = parser._subparsers._group_actions[0].choices.get(argv[0])  # noqa: SLF001
    if subparser is None:
        raise ValidationError("--config must come after the subcommand name")
    path = _require_file(path, "config file")
    values = read_json(path)
    actions = {
        a.dest: a
        for a in subparser._actions  # noqa: SLF001
        if isinstance(a, (argparse._StoreAction, argparse._StoreTrueAction))  # noqa: SLF001
        and a.dest != "config"
    }
    unknown = set(values) - set(actions)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    for key, value in values.items():
        expected = _config_type_error(actions[key], value)
        if expected:
            found = json.dumps(value)
            raise ValidationError(f"{path}: key {key!r}: expected {expected}, found {found}")
        if actions[key].type is float and value is not None:
            values[key] = float(value)  # as the flag would parse it: 1 -> 1.0
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
