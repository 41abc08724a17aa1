import argparse
import hashlib
import json
import math
import re
import shlex
from dataclasses import replace
from pathlib import Path

import pytest

from aufusion.cli import _pipeline_from_args, build_parser, main
from aufusion.evaluate import PipelineConfig, fold_seed, hash_gmm, hash_mlp, load_model
from aufusion.ingest import Corpus, read_corpus, write_corpus

MIXTURE_FLAGS = ["--components", "4", "--n-init", "1"]
FAST_FLAGS = MIXTURE_FLAGS + ["--mlp-epochs", "60"]


def tree_digest(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# A one-component mixture file as the version-1 format wrote it.
V1_MIXTURE_FILE = """{
 "format_version": 1,
 "n": 1,
 "weights": [1.0],
 "means": [[0.0]],
 "variances": [[1.0]],
 "em_config": null
}
"""


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
    model = tmp_path / "model.json"
    assert main(["train", "--corpus", str(corpus), "--out", str(model), *FAST_FLAGS]) == 0
    return tmp_path, corpus, model


def score_row(clip: Path, model: Path, capsys) -> list[str]:
    """The fields of the row ``score`` prints for the clip."""
    capsys.readouterr()
    assert main(["score", "--clip", str(clip), "--model", str(model)]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.startswith("participant_id\t")
    return row.split("\t")


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

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error_without_outputs(self, tmp_path, capsys, jobs):
        corpus = synth(tmp_path)
        out = tmp_path / "run"
        code = main(["loocv", "--corpus", str(corpus), "--out", str(out), "--jobs", jobs])
        assert code == 2
        assert capsys.readouterr().err == "error: jobs must be >= 1\n"
        assert not out.exists()

    def test_corpus_path_that_is_a_file_is_usage_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("")
        code = main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "m.json")])
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
        "text, count",
        [("0:3.5:1", 4), ("0:2.5:1", 3), ("0:1:0.1", 11), ("0:0.3:0.1", 4), ("1:1:0.5", 1),
         ("0:0.99:0.5", 2)],
    )
    def test_omega_range_stops_at_stop(self, run_dir, capsys, text, count):
        code = main(["sweep", "--report", str(run_dir / "report.json"), "--omegas", text])
        assert code == 0
        omegas = [float(line.split("\t")[0]) for line in capsys.readouterr().out.splitlines()[1:]]
        start, stop, step = (float(x) for x in text.split(":"))
        assert omegas == [start + i * step for i in range(count)]
        assert omegas[-1] <= stop + 1e-9 * step

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
            (lambda p: p["configs"]["fusion"].update(omega="1"),
             "omega must be a number, found '1'"),
            (lambda p: p["configs"]["fusion"].update(omega=True),
             "omega must be a number, found True"),
            (lambda p: p["configs"]["fusion"].update(tau="0"),
             "tau must be a number or None, found '0'"),
            (lambda p: p["configs"]["fusion"].update(normalize_ll="yes"),
             "normalize_ll must be true or false, found 'yes'"),
            (lambda p: p["configs"]["fusion"].update(omega=-1), "omega must be nonnegative"),
            (lambda p: p["configs"]["fusion"].update(tau=math.inf), "tau must be finite"),
            (lambda p: p["configs"]["fusion"].update(bogus=1),
             "unexpected keyword argument 'bogus'"),
            (lambda p: p["rows"][0].update(n_dep_votes=99),
             "record 0 (P001): vote count out of range"),
            (lambda p: p["rows"][0].update(ll_dep="x"),
             "record 0 (P001): could not convert string to float: 'x'"),
            (lambda p: p["configs"].pop("em"), "report config field 'em' is missing or empty"),
        ],
        ids=["bad-label", "no-omega", "row-not-object", "null-frame-count", "string-omega",
             "bool-omega", "string-tau", "string-normalize-ll", "negative-omega",
             "infinite-tau", "unknown-fusion-key", "vote-count-99", "string-ll", "no-em-config"],
    )
    def test_bad_sidecar_is_usage_error_located(self, run_dir, tmp_path, capsys, edit, where):
        payload = json.loads((run_dir / "report.json").read_text())
        edit(payload)
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps(payload))
        code = main(["sweep", "--report", str(bad), "--omegas", "0,1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert where in err


class TestModelCommands:
    def test_artifacts_written(self, workspace):
        _, _, model = workspace
        assert model.is_file()
        assert model.with_name("model.json.provenance.json").is_file()

    def test_score_clip(self, workspace, capsys):
        _, corpus, model = workspace
        fields = score_row(corpus / "clips" / "P001.csv", model, capsys)
        assert fields[0] == "P001"
        assert fields[-1] in ("Depressed", "NonDepressed")

    def test_zero_variance_floor_is_usage_error_without_outputs(self, workspace, capsys):
        tmp_path, corpus, _ = workspace
        out = tmp_path / "never" / "model.json"
        code = main(
            ["train", "--corpus", str(corpus), "--out", str(out),
             "--variance-floor", "0", *MIXTURE_FLAGS]
        )
        assert code == 2
        assert "variance_floor must be positive" in capsys.readouterr().err
        assert not out.parent.exists()

    @pytest.mark.parametrize("command, frames", [("train", "0"), ("loocv", "-5")])
    def test_gmm_fit_frames_below_one_is_usage_error_without_outputs(
        self, workspace, capsys, command, frames
    ):
        tmp_path, corpus, _ = workspace
        out = tmp_path / "never"
        code = main(
            [command, "--corpus", str(corpus), "--out", str(out), "--gmm-fit-frames", frames]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: gmm_fit_frames must be >= 1\n"
        assert not out.exists()

    def test_train_at_a_fold_seed_then_score_reproduces_the_fold_row(self, tmp_path, capsys):
        corpus = synth(tmp_path)
        pooling = ["--window", "100", "--stride", "50"]
        run = tmp_path / "run"
        assert main(
            ["loocv", "--corpus", str(corpus), "--out", str(run), "--jobs", "1",
             *pooling, *FAST_FLAGS]
        ) == 0
        row = json.loads((run / "report.json").read_text())["rows"][1]
        held_out = row["participant_id"]
        train = tmp_path / "train"
        clips = read_corpus(corpus).clips
        write_corpus(Corpus([c for c in clips if c.participant_id != held_out]), train)
        model = tmp_path / "model.json"
        assert main(
            ["train", "--corpus", str(train), "--out", str(model),
             "--seed", str(fold_seed(7, held_out)), *pooling, *FAST_FLAGS]
        ) == 0
        # No pooling flag: score pools as the model file says.
        fields = score_row(corpus / "clips" / f"{held_out}.csv", model, capsys)
        assert fields == [
            held_out,
            *map(repr, (row["ll_dep"], row["ll_ndep"], row["n_segments"], row["n_dep_votes"],
                        row["fused_score"])),
            row["combined_decision"],
        ]
        assert row["n_segments"] == 8  # 450 frames in 100-frame windows 50 apart
        (dep, ndep, mlp), _ = load_model(model, PipelineConfig())
        assert [hash_gmm(dep), hash_gmm(ndep), hash_mlp(mlp)] == [
            row["gmm_dep_hash"], row["gmm_ndep_hash"], row["mlp_hash"]
        ]


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

    @pytest.mark.parametrize(
        "edit, where",
        [
            (lambda p: p["rows"][0].pop("mlp_hash"),
             "row 0 (P001): missing fields ['mlp_hash'], unexpected fields []"),
            (lambda p: p["rows"][2].update(extra=1),
             "row 2 (P003): missing fields [], unexpected fields ['extra']"),
            (lambda p: p["rows"][1].update(label="Sad"),
             "row 1 (P002): label: 'Sad' is not a valid Label"),
            (lambda p: p["rows"][3].update(combined_decision=None),
             "row 3 (P004): combined_decision: None is not a valid Label"),
            (lambda p: p["configs"].pop("em"), "report config field 'em' is missing or empty"),
        ],
        ids=["missing-field", "extra-field", "bad-label", "null-decision", "no-em-config"],
    )
    def test_bad_row_is_usage_error_naming_file_row_and_participant(
        self, run_dir, tmp_path, capsys, edit, where
    ):
        payload = json.loads((run_dir / "report.json").read_text())
        edit(payload)
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps(payload))
        code = main(["report", "--report", str(bad)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {bad}: {where}\n"

    @pytest.mark.parametrize(
        "command", [["report"], ["sweep", "--omegas", "1"]], ids=["report", "sweep"]
    )
    def test_sidecar_without_rows_is_usage_error_naming_the_file(
        self, run_dir, tmp_path, capsys, command
    ):
        payload = json.loads((run_dir / "report.json").read_text())
        payload["rows"] = []
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps(payload))
        code = main([command[0], "--report", str(empty), *command[1:]])
        assert code == 2
        assert capsys.readouterr().err == f"error: {empty}: rows is empty\n"

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
        argv = ["train", "--corpus", "c", "--out", str(tmp_path / "m"), "--co", "4"]
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

    @pytest.mark.parametrize(
        "command, values, key, expected",
        [
            ("train", {"rank_epochs": 2.5}, "rank_epochs", "an integer, found 2.5"),
            ("train", {"window": 150.0}, "window", "an integer, found 150.0"),
            ("train", {"window": True}, "window", "an integer, found true"),
            ("train", {"gmm_fit_frames": 1.5}, "gmm_fit_frames", "an integer or null, found 1.5"),
            ("train", {"reg_c": "1"}, "reg_c", 'a number, found "1"'),
            ("train", {"reg_c": True}, "reg_c", "a number, found true"),
            ("score", {"raw_ll": "yes"}, "raw_ll", 'true or false, found "yes"'),
            ("train", {"stride": None}, "stride", "an integer, found null"),
            ("train", {"corpus": 3}, "corpus", "a string, found 3"),
        ],
        ids=["int-float", "int-whole-float", "int-bool", "nullable-int", "float-string",
             "float-bool", "switch-string", "null-without-none-default", "path-number"],
    )
    def test_value_of_the_wrong_type_is_usage_error_naming_file_and_key(
        self, tmp_path, capsys, command, values, key, expected
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        out = tmp_path / "out"
        required = {
            "train": ["--corpus", "c"],
            "score": ["--clip", "c.csv", "--model", "m"],
        }[command]
        code = main([command, "--config", str(config), *required, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {config}: key {key!r}: expected {expected}\n"
        assert not out.exists()

    def test_values_a_flag_could_give_are_taken(self, tmp_path):
        corpus = synth(tmp_path, n=2, frames=300)
        config = tmp_path / "config.json"
        # An integer for a float flag works as that flag would, and null
        # where the default is None.
        config.write_text(json.dumps({"reg_c": 1, "window": 150, "mlp_epochs": 5,
                                      "gmm_fit_frames": None, "n_init": 1, "components": 2,
                                      "em_iters": 3}))
        out = tmp_path / "model.json"
        argv = ["train", "--config", str(config), "--corpus", str(corpus), "--out", str(out)]
        assert main(argv) == 0
        flags = tmp_path / "flags.json"
        argv = ["train", "--corpus", str(corpus), "--out", str(flags), "--mlp-epochs", "5",
                "--n-init", "1", "--components", "2", "--em-iters", "3"]
        assert main(argv) == 0
        assert out.read_bytes() == flags.read_bytes()


SUBCOMMANDS = ["synth", "train", "score", "loocv", "sweep", "report"]


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
            ["score", "--clip", "c", "--model", "m", "--raw-ll", "--tau", "0.5"]
        )
        pipeline = _pipeline_from_args(args)
        assert pipeline.fusion.normalize_ll is False
        assert pipeline.fusion.tau == 0.5
        args = build_parser().parse_args(
            ["train", "--corpus", "c", "--out", "o", "--gmm-fit-frames", "100"]
        )
        assert _pipeline_from_args(args).gmm_fit_frames == 100


# The pipeline flags of each subcommand, in usage and provenance order.
# ``score`` takes no pooling flag: it pools as the model file says.
FUSION = ["--omega", "--tau", "--raw-ll"]
TRAIN = ["--window", "--stride", "--components", "--em-iters", "--em-tol", "--variance-floor",
         "--n-init", "--gmm-fit-frames", "--reg-c", "--rank-epochs", "--hidden1",
         "--hidden2", "--dropout", "--learning-rate", "--mlp-epochs", "--batch-size"]
STAGE_FLAGS = {
    "train": TRAIN + ["--seed"],
    "score": FUSION,
    "loocv": TRAIN + FUSION + ["--seed"],
    "sweep": [],
    "report": [],
}
IO_FLAGS = {"-h", "--help", "--config", "--corpus", "--out", "--clip", "--model", "--jobs",
            "--report", "--omegas"}


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
        counts = {c: len(pipeline_flags(c)) for c in STAGE_FLAGS}
        assert counts == {"train": 17, "score": 3, "loocv": 20, "sweep": 0, "report": 0}
        assert sum(counts.values()) == 40

    def test_margin_is_neither_a_flag_nor_a_config_key(self, tmp_path, capsys):
        # The rank-pooling margin only rescales every descriptor.
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--corpus", "c", "--out", str(out), "--margin", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --margin 1" in capsys.readouterr().err
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"margin": 1.0}))
        assert main(["train", "--config", str(config), "--corpus", "c", "--out", str(out)]) == 2
        assert "unknown config keys: ['margin']" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_flag_table_names_only_flags_of_its_subcommand(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `([\w-]+)` \|(.*)$", readme, flags=re.MULTILINE)
        assert [command for command, _ in rows] == ["train", "score", "loocv", "synth"]
        for command, row in rows:
            flags = pipeline_flags(command)
            for flag in re.findall(r"--[\w-]+", row):
                assert flag in flags, f"README lists {flag} for {command}"

    def test_readme_quick_start_commands_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        quick_start = readme.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
        lines = quick_start.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line) for line in lines if line.startswith("aufusion ")]
        assert commands
        for argv in commands:
            try:
                build_parser().parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {shlex.join(argv)}")

    # A key of another stage for each subcommand that trains or scores: a
    # pooling key on score is a usage error, since score pools as trained.
    OTHER_STAGE_KEYS = [("train", ["--corpus", "c"], "omega"),
                        ("score", ["--clip", "c", "--model", "m"], "window")]

    @pytest.mark.parametrize("command, inputs, key", OTHER_STAGE_KEYS)
    def test_other_stage_flag_is_usage_error_without_outputs(
        self, tmp_path, capsys, command, inputs, key
    ):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, *inputs, "--out", str(out), f"--{key}", "2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --{key} 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, inputs, key", OTHER_STAGE_KEYS)
    def test_other_stage_config_key_is_usage_error(
        self, tmp_path, capsys, command, inputs, key
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: 2}))
        out = tmp_path / "out"
        code = main([command, "--config", str(config), *inputs, "--out", str(out)])
        assert code == 2
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
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
        _, corpus, model = workspace
        clip = tmp_path / "P001.csv"
        clip.write_text((corpus / "clips" / "P001.csv").read_text())
        corrupt_cell(clip, 3, "AU12_r", "nan")
        code = main(["score", "--clip", str(clip), "--model", str(model)])
        assert code == 2
        assert f"{clip}: line 3, column 'AU12_r'" in capsys.readouterr().err

    def test_scored_clip_not_utf8(self, workspace, tmp_path, capsys):
        _, corpus, model = workspace
        clip = tmp_path / "P001.csv"
        clip.write_bytes(b"\xff\xfe" + (corpus / "clips" / "P001.csv").read_bytes())
        code = main(["score", "--clip", str(clip), "--model", str(model)])
        assert code == 2
        assert f"error: {clip}: not UTF-8 text" in capsys.readouterr().err

    def test_manifest_record_with_a_bad_label(self, tmp_path, capsys):
        corpus = synth(tmp_path)
        manifest = corpus / "manifest.jsonl"
        manifest.write_text(manifest.read_text().replace('"NonDepressed"', '"Sad"', 1))
        out = tmp_path / "model.json"
        code = main(["train", "--corpus", str(corpus), "--out", str(out)])
        assert code == 2
        assert f"{manifest}: line 2: 'Sad' is not a valid Label" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p["depressed"].pop("weights"), "'weights'"),
            (lambda p: p["depressed"]["weights"].pop(),
             "weights and means disagree on component count"),
            (lambda p: p["mlp"].update(bogus=1), "unexpected keyword argument 'bogus'"),
            (lambda p: p.update(window=150.0), "window must be an integer, found 150.0"),
            (lambda p: p.update(stride=0), "stride must be >= 1"),
            (lambda p: p["rankpool"].update(reg_c=True), "reg_c must be a number, found True"),
            (lambda p: p["mlp"].update(
                {k: p["mlp"][k][:-1] for k in ("w1", "input_mean", "input_std")}),
             "take (17, 17, 16) inputs, not 17"),
            (lambda p: p["depressed"].update(
                {k: [row[:-1] for row in p["depressed"][k]] for k in ("means", "variances")}),
             "take (16, 17, 17) inputs, not 17"),
        ],
        ids=["gmm-no-weights", "gmm-short-weights", "mlp-unknown-key", "float-window",
             "zero-stride", "bool-reg-c", "mlp-narrow", "gmm-narrow"],
    )
    def test_model_with_a_bad_value(self, workspace, tmp_path, capsys, edit, message):
        _, corpus, model = workspace
        payload = json.loads(model.read_text())
        edit(payload)
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(payload))
        code = main(["score", "--clip", str(corpus / "clips" / "P001.csv"), "--model", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert message in err

    def test_version_1_mixture_file_is_usage_error(self, workspace, tmp_path, capsys):
        _, corpus, _ = workspace
        old = tmp_path / "gmm-depressed.json"
        old.write_text(V1_MIXTURE_FILE)
        code = main(["score", "--clip", str(corpus / "clips" / "P001.csv"), "--model", str(old)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {old}: unsupported model format: 1\n"

    def test_version_2_model_file_is_usage_error(self, workspace, tmp_path, capsys):
        # Version 2 stored a rank-pooling margin, which is no longer a setting.
        _, corpus, model = workspace
        payload = json.loads(model.read_text())
        payload["format_version"] = 2
        payload["rankpool"]["margin"] = 1.0
        old = tmp_path / "model-v2.json"
        old.write_text(json.dumps(payload))
        code = main(["score", "--clip", str(corpus / "clips" / "P001.csv"), "--model", str(old)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {old}: unsupported model format: 2\n"
