import argparse
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from aufusion.cli import _pipeline_from_args, build_parser, main
from aufusion.evaluate import PipelineConfig
from aufusion.ingest import read_corpus

MIXTURE_FLAGS = ["--components", "4", "--n-init", "1"]
CLASSIFIER_FLAGS = ["--mlp-epochs", "60"]
FAST_FLAGS = MIXTURE_FLAGS + CLASSIFIER_FLAGS


def tree_digest(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def synth(tmp_path, name="corpus", n=4, frames=450, seed=3, extra=()):
    out = tmp_path / name
    code = main(
        ["synth", "--out", str(out), "--n", str(n), "--frames", str(frames),
         "--seed", str(seed), *extra]
    )
    assert code == 0
    return out


class TestSynthCommand:
    def test_same_seed_byte_identical_trees(self, tmp_path):
        a = synth(tmp_path, "a")
        b = synth(tmp_path, "b")
        assert tree_digest(a) == tree_digest(b)

    def test_odd_participant_count_is_usage_error(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path / "x"), "--n", "29"])
        assert code == 2
        assert "even" in capsys.readouterr().err

    def test_generated_corpus_parses_everywhere(self, tmp_path):
        out = synth(tmp_path)
        corpus = read_corpus(out)  # parses every referenced CSV
        assert len(corpus) == 4
        assert (out / "provenance.json").is_file()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("loocv")
    corpus = synth(tmp_path)
    out = tmp_path / "run"
    code = main(
        ["loocv", "--corpus", str(corpus), "--out", str(out), "--jobs", "1", *FAST_FLAGS]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("models")
    corpus = synth(tmp_path)
    models = tmp_path / "models"
    assert main(["fit-gmm", "--corpus", str(corpus), "--out", str(models), *MIXTURE_FLAGS]) == 0
    descs = tmp_path / "descriptors.tsv"
    assert main(["pool", "--corpus", str(corpus), "--out", str(descs)]) == 0
    mlp_path = tmp_path / "mlp.json"
    assert main(
        ["train-mlp", "--corpus", str(corpus), "--descriptors", str(descs),
         "--out", str(mlp_path), *CLASSIFIER_FLAGS]
    ) == 0
    return tmp_path, corpus, models, descs, mlp_path


class TestLoocvCommand:
    def test_emits_row_per_participant(self, run_dir):
        payload = json.loads((run_dir / "report.json").read_text())
        assert len(payload["rows"]) == 4
        assert (run_dir / "report.txt").is_file()
        assert (run_dir / "provenance.json").is_file()

    def test_provenance_records_resolved_config(self, run_dir):
        payload = json.loads((run_dir / "provenance.json").read_text())
        assert payload["command"] == "loocv"
        assert payload["resolved_config"]["components"] == 4
        assert payload["resolved_config"]["seed"] == 7
        assert payload["version"]

    def test_missing_corpus_is_usage_error_without_outputs(self, tmp_path, capsys):
        out = tmp_path / "never"
        code = main(["loocv", "--corpus", str(tmp_path / "nope"), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_corpus_path_that_is_a_file_is_usage_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("")
        code = main(["pool", "--corpus", str(corpus), "--out", str(tmp_path / "d.tsv")])
        assert code == 2
        assert f"no manifest.jsonl in {corpus}" in capsys.readouterr().err

    def test_omega_zero_combined_equals_gmm_column(self, tmp_path):
        corpus = synth(tmp_path, "c0", seed=5)
        out = tmp_path / "run0"
        code = main(
            ["loocv", "--corpus", str(corpus), "--out", str(out), "--jobs", "1",
             "--omega", "0", *FAST_FLAGS]
        )
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        for row in payload["rows"]:
            assert row["combined_decision"] == row["gmm_decision"]


class TestSweepCommand:
    def test_original_omega_reproduces_combined_row(self, run_dir, capsys):
        payload = json.loads((run_dir / "report.json").read_text())
        omega = payload["configs"]["fusion"]["omega"]
        code = main(["sweep", "--report", str(run_dir / "report.json"), "--omegas", str(omega)])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "omega\taccuracy"
        _, acc = out[1].split("\t")
        assert float(acc) == payload["accuracies"]["combined"]["fraction"]

    def test_sweep_does_not_retrain(self, run_dir, tmp_path):
        before = tree_digest(run_dir)
        sweep_out = tmp_path / "sweep.tsv"
        code = main(
            ["sweep", "--report", str(run_dir / "report.json"),
             "--omegas", "0,1,1000000", "--out", str(sweep_out)]
        )
        assert code == 0
        assert tree_digest(run_dir) == before  # cached run untouched
        assert sweep_out.is_file()

    def test_empty_omega_list_is_usage_error(self, run_dir):
        code = main(["sweep", "--report", str(run_dir / "report.json"), "--omegas", ","])
        assert code == 2

    def test_negative_omega_is_usage_error(self, run_dir):
        code = main(["sweep", "--report", str(run_dir / "report.json"), "--omegas", "1,-0.5"])
        assert code == 2

    def test_omega_range_prints_what_the_same_list_prints(self, run_dir, tmp_path, capsys):
        # 20,001 values: too long for one command-line argument as a list.
        report = str(run_dir / "report.json")
        assert main(["sweep", "--report", report, "--omegas", "0:10:0.0005"]) == 0
        from_range = capsys.readouterr().out
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"omegas": ",".join(repr(i * 0.0005) for i in range(20001))}))
        assert main(["sweep", "--config", str(config), "--report", report]) == 0
        assert capsys.readouterr().out == from_range
        assert from_range.count("\n") == 1 + 20001

    @pytest.mark.parametrize(
        "text", ["0:1", "0:1:x", "nan:1:0.5", "0:inf:0.5", "0:1:0", "0:1:-0.5", "1:0:0.5",
                 "0:1e300:1e-300", "0:1,2"]
    )
    def test_bad_omega_range_is_usage_error_naming_the_form(self, run_dir, capsys, text):
        code = main(["sweep", "--report", str(run_dir / "report.json"), "--omegas", text])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: bad omega range {text!r}: " in err
        assert "START:STOP:STEP" in err

    def test_out_of_range_vote_count_is_usage_error(self, run_dir, tmp_path, capsys):
        payload = json.loads((run_dir / "report.json").read_text())
        row = payload["rows"][0]
        row["n_dep_votes"] = row["n_segments"] + 1
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps(payload))
        code = main(["sweep", "--report", str(bad), "--omegas", "0,1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "vote count out of range" in err
        assert "P001" in err

    @pytest.mark.parametrize(
        "edit, where",
        [
            (lambda p: p["rows"][1].update(label="Sad"), "record 1 (P002): 'Sad' is not a valid Label"),
            (lambda p: p["configs"]["fusion"].pop("omega"), "configs.fusion is missing keys ['omega']"),
            (lambda p: p["rows"].append(7), "rows must be a list of JSON objects"),
            (lambda p: p["rows"][2].update(n_frames=None), "record 2 (P003): int() argument"),
        ],
        ids=["bad-label", "no-omega", "row-not-object", "null-frame-count"],
    )
    def test_bad_sidecar_is_usage_error_located(self, run_dir, tmp_path, capsys, edit, where):
        payload = json.loads((run_dir / "report.json").read_text())
        edit(payload)
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps(payload))
        code = main(["sweep", "--report", str(bad), "--omegas", "0,1"])
        assert code == 2
        err = capsys.readouterr().err
        assert where in err
        if "record" not in where:
            assert f"error: {bad}: " in err


class TestModelCommands:
    def test_artifacts_written(self, workspace):
        tmp_path, _, models, descs, mlp_path = workspace
        assert (models / "gmm-depressed.json").is_file()
        assert (models / "gmm-nondepressed.json").is_file()
        assert descs.is_file() and mlp_path.is_file()
        assert mlp_path.with_name("mlp.json.provenance.json").is_file()

    def test_score_clip(self, workspace, capsys):
        _, corpus, models, _, mlp_path = workspace
        clip = corpus / "clips" / "P001.csv"
        code = main(
            ["score", "--clip", str(clip),
             "--gmm-dep", str(models / "gmm-depressed.json"),
             "--gmm-ndep", str(models / "gmm-nondepressed.json"),
             "--mlp", str(mlp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("participant_id\t")
        fields = out[1].split("\t")
        assert fields[0] == "P001"
        assert fields[-1] in ("Depressed", "NonDepressed")


class TestReportCommand:
    def test_rerender_matches_original(self, tmp_path, capsys):
        corpus = synth(tmp_path)
        out = tmp_path / "run"
        assert main(
            ["loocv", "--corpus", str(corpus), "--out", str(out), "--jobs", "1", *FAST_FLAGS]
        ) == 0
        capsys.readouterr()
        code = main(["report", "--report", str(out / "report.json")])
        assert code == 0
        rendered = capsys.readouterr().out
        assert rendered == (out / "report.txt").read_text()

    def test_out_creates_directories_and_provenance(self, run_dir, tmp_path):
        target = tmp_path / "new" / "dir" / "report.txt"
        code = main(["report", "--report", str(run_dir / "report.json"), "--out", str(target)])
        assert code == 0
        assert target.read_text() == (run_dir / "report.txt").read_text()
        provenance = json.loads(target.with_name("report.txt.provenance.json").read_text())
        assert provenance["command"] == "report"


class TestConfigFile:
    def test_file_supplies_defaults_flags_win(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 4, "frames": 450, "seed": 9}))
        out_a = tmp_path / "a"
        assert main(["synth", "--config", str(config), "--out", str(out_a)]) == 0
        assert len(read_corpus(out_a)) == 4
        out_b = tmp_path / "b"
        assert main(
            ["synth", "--config", str(config), "--out", str(out_b), "--n", "6"]
        ) == 0
        assert len(read_corpus(out_b)) == 6  # explicit flag beats file value

    def test_file_can_supply_required_flags(self, tmp_path):
        out = tmp_path / "c"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out": str(out), "n": 4, "frames": 450}))
        assert main(["synth", "--config", str(config)]) == 0
        assert len(read_corpus(out)) == 4

    def test_equals_form_is_read(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 4, "frames": 300}))
        out = tmp_path / "eq"
        assert main(["synth", f"--config={config}", "--out", str(out)]) == 0
        assert len(read_corpus(out)) == 4

    def test_ambiguous_prefix_is_not_read_as_config(self, tmp_path, capsys):
        argv = ["fit-gmm", "--corpus", "c", "--out", str(tmp_path / "m"), "--co", "4"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "ambiguous option: --co" in err
        assert "config file not found" not in err

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"wat": 1}))
        code = main(["synth", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_config_before_the_subcommand_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 4}))
        code = main(["--config", str(config), "synth", "--out", str(tmp_path / "s")])
        assert code == 2
        assert "error: --config must come after the subcommand name" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_config_file_that_is_not_json_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("{n: 4}")
        code = main(["synth", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"error: {config}: Expecting property name" in capsys.readouterr().err


SUBCOMMANDS = ["synth", "fit-gmm", "pool", "train-mlp", "score", "loocv", "sweep", "report"]


def help_blocks(text: str) -> dict[str, str]:
    """Each option's help entry, continuation lines included, by its flag."""
    blocks, current = {}, None
    for line in text.splitlines():
        if line.startswith("  -"):
            current = line.split()[0].rstrip(",")
            blocks[current] = line
        elif line.startswith("   ") and current is not None:
            blocks[current] += line
        else:
            current = None
    return blocks


class TestDefaults:
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_shows_every_default(self, command, capsys):
        subparsers = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        with pytest.raises(SystemExit):
            main([command, "--help"])
        blocks = help_blocks(capsys.readouterr().out)
        for action in subparsers.choices[command]._actions:
            if action.option_strings and action.default not in (None, argparse.SUPPRESS):
                flag = action.option_strings[0]
                assert "(default:" in blocks[flag], flag

    def test_loocv_without_flags_resolves_to_pipeline_config(self):
        args = build_parser().parse_args(["loocv", "--corpus", "x", "--out", "y"])
        default = PipelineConfig()
        assert _pipeline_from_args(args) == replace(
            default, em=replace(default.em, seed=7), mlp=replace(default.mlp, seed=7)
        )

    def test_switches_and_unset_values(self):
        args = build_parser().parse_args(
            ["score", "--clip", "c", "--gmm-dep", "d", "--gmm-ndep", "n", "--mlp", "m",
             "--no-smooth", "--raw-ll", "--tau", "0.5"]
        )
        pipeline = _pipeline_from_args(args)
        assert pipeline.rankpool.smooth is False
        assert pipeline.fusion.normalize_ll is False
        assert pipeline.fusion.tau == 0.5
        args = build_parser().parse_args(
            ["fit-gmm", "--corpus", "c", "--out", "o", "--gmm-fit-frames", "100"]
        )
        assert _pipeline_from_args(args).gmm_fit_frames == 100


# The pipeline flags of each subcommand, in usage and provenance order.
POOLING = ["--window", "--stride", "--margin", "--reg-c", "--rank-epochs", "--step-size",
           "--no-smooth"]
STAGE_FLAGS = {
    "fit-gmm": ["--components", "--em-iters", "--em-tol", "--variance-floor", "--n-init",
                "--gmm-fit-frames", "--seed"],
    "pool": POOLING,
    "train-mlp": ["--hidden1", "--hidden2", "--dropout", "--learning-rate", "--mlp-epochs",
                  "--batch-size", "--seed"],
    "score": POOLING + ["--omega", "--tau", "--raw-ll"],
    "loocv": ["--window", "--stride", "--components", "--em-iters", "--em-tol",
              "--variance-floor", "--n-init", "--gmm-fit-frames", "--margin", "--reg-c",
              "--rank-epochs", "--step-size", "--no-smooth", "--hidden1", "--hidden2",
              "--dropout", "--learning-rate", "--mlp-epochs", "--batch-size", "--omega",
              "--tau", "--raw-ll", "--seed"],
    "sweep": [],
    "report": [],
}
IO_FLAGS = {"-h", "--help", "--config", "--corpus", "--out", "--descriptors", "--clip",
            "--gmm-dep", "--gmm-ndep", "--mlp", "--jobs", "--report", "--omegas"}


def pipeline_flags(command: str) -> list[str]:
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return [
        flag
        for action in subparsers.choices[command]._actions
        for flag in action.option_strings
        if flag not in IO_FLAGS
    ]


class TestStageFlags:
    @pytest.mark.parametrize("command", list(STAGE_FLAGS))
    def test_each_command_takes_the_flags_of_its_stages(self, command):
        assert pipeline_flags(command) == STAGE_FLAGS[command]

    def test_settable_pipeline_values(self):
        assert sum(len(pipeline_flags(c)) for c in STAGE_FLAGS) == 54

    def test_other_stage_flag_is_usage_error_without_outputs(self, tmp_path, capsys):
        corpus = synth(tmp_path)
        out = tmp_path / "descriptors.tsv"
        with pytest.raises(SystemExit) as exc:
            main(["pool", "--corpus", str(corpus), "--out", str(out), "--components", "2"])
        assert exc.value.code == 2
        assert "--components" in capsys.readouterr().err
        assert not out.exists()

    def test_other_stage_config_key_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"components": 2}))
        out = tmp_path / "descriptors.tsv"
        code = main(["pool", "--config", str(config), "--corpus", "c", "--out", str(out)])
        assert code == 2
        assert "unknown config keys: ['components']" in capsys.readouterr().err
        assert not out.exists()


def corrupt_cell(clip: Path, line_no: int, column: str, text: str):
    lines = clip.read_text().splitlines()
    cells = lines[line_no - 1].split(",")
    cells[lines[0].split(",").index(column)] = text
    lines[line_no - 1] = ",".join(cells)
    clip.write_text("\n".join(lines) + "\n")


class TestInputErrorsNameTheFile:
    def test_corpus_clip_parse_error(self, tmp_path, capsys):
        corpus = synth(tmp_path)
        clip = corpus / "clips" / "P003.csv"
        corrupt_cell(clip, 6, "AU04_r", "x")
        out = tmp_path / "run"
        code = main(["loocv", "--corpus", str(corpus), "--out", str(out), "--jobs", "1"])
        assert code == 2
        assert f"{clip}: line 6, column 'AU04_r': 'x' is not a finite number" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_scored_clip_parse_error(self, workspace, tmp_path, capsys):
        _, corpus, models, _, mlp_path = workspace
        clip = tmp_path / "P001.csv"
        clip.write_text((corpus / "clips" / "P001.csv").read_text())
        corrupt_cell(clip, 3, "AU12_r", "nan")
        code = main(
            ["score", "--clip", str(clip),
             "--gmm-dep", str(models / "gmm-depressed.json"),
             "--gmm-ndep", str(models / "gmm-nondepressed.json"),
             "--mlp", str(mlp_path)]
        )
        assert code == 2
        assert f"{clip}: line 3, column 'AU12_r'" in capsys.readouterr().err

    def test_scored_clip_not_utf8(self, workspace, tmp_path, capsys):
        _, corpus, models, _, mlp_path = workspace
        clip = tmp_path / "P001.csv"
        clip.write_bytes(b"\xff\xfe" + (corpus / "clips" / "P001.csv").read_bytes())
        code = main(
            ["score", "--clip", str(clip),
             "--gmm-dep", str(models / "gmm-depressed.json"),
             "--gmm-ndep", str(models / "gmm-nondepressed.json"),
             "--mlp", str(mlp_path)]
        )
        assert code == 2
        assert f"error: {clip}: not UTF-8 text" in capsys.readouterr().err

    def test_descriptor_row_with_a_missing_weight(self, workspace, tmp_path, capsys):
        _, corpus, _, descs, _ = workspace
        lines = descs.read_text().splitlines()
        lines[2] = lines[2].rsplit("\t", 1)[0]  # 16 weights
        bad = tmp_path / "descriptors.tsv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "mlp.json"
        code = main(
            ["train-mlp", "--corpus", str(corpus), "--descriptors", str(bad), "--out", str(out)]
        )
        assert code == 2
        assert f"{bad}: line 3: expected 19 fields, found 18" in capsys.readouterr().err
        assert not out.exists()

    def test_descriptor_file_without_rows(self, workspace, tmp_path, capsys):
        _, corpus, _, descs, _ = workspace
        bad = tmp_path / "descriptors.tsv"
        bad.write_text(descs.read_text().splitlines()[0] + "\n")
        out = tmp_path / "mlp.json"
        code = main(
            ["train-mlp", "--corpus", str(corpus), "--descriptors", str(bad), "--out", str(out)]
        )
        assert code == 2
        assert f"error: {bad}: holds no descriptor rows" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_record_with_a_bad_label(self, tmp_path, capsys):
        corpus = synth(tmp_path)
        manifest = corpus / "manifest.jsonl"
        manifest.write_text(manifest.read_text().replace('"NonDepressed"', '"Sad"', 1))
        out = tmp_path / "descriptors.tsv"
        code = main(["pool", "--corpus", str(corpus), "--out", str(out)])
        assert code == 2
        assert f"{manifest}: line 2: 'Sad' is not a valid Label" in capsys.readouterr().err
        assert not out.exists()

    def test_model_without_weights(self, workspace, tmp_path, capsys):
        _, corpus, models, _, mlp_path = workspace
        payload = json.loads((models / "gmm-depressed.json").read_text())
        del payload["weights"]
        bad = tmp_path / "gmm-depressed.json"
        bad.write_text(json.dumps(payload))
        code = main(
            ["score", "--clip", str(corpus / "clips" / "P001.csv"),
             "--gmm-dep", str(bad),
             "--gmm-ndep", str(models / "gmm-nondepressed.json"),
             "--mlp", str(mlp_path)]
        )
        assert code == 2
        assert f"error: {bad}: missing keys ['weights']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model, edit, message",
        [
            ("gmm-depressed.json", lambda p: p["weights"].pop(),
             "weights and means disagree on component count"),
            ("mlp.json", lambda p: p.update(train_config={**p["train_config"], "bogus": 1}),
             "unexpected keyword argument 'bogus'"),
        ],
        ids=["gmm-short-weights", "mlp-unknown-config-key"],
    )
    def test_model_with_a_bad_value(self, workspace, tmp_path, capsys, model, edit, message):
        _, corpus, models, _, mlp_path = workspace
        paths = {
            "gmm-depressed.json": models / "gmm-depressed.json",
            "gmm-nondepressed.json": models / "gmm-nondepressed.json",
            "mlp.json": mlp_path,
        }
        payload = json.loads(paths[model].read_text())
        edit(payload)
        paths[model] = bad = tmp_path / model
        bad.write_text(json.dumps(payload))
        code = main(
            ["score", "--clip", str(corpus / "clips" / "P001.csv"),
             "--gmm-dep", str(paths["gmm-depressed.json"]),
             "--gmm-ndep", str(paths["gmm-nondepressed.json"]),
             "--mlp", str(paths["mlp.json"])]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert message in err
