import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from aufusion import evaluate, rankpool
from aufusion.evaluate import (
    MODEL_VERSION,
    ConfigIncomplete,
    FoldRow,
    InsufficientClass,
    LoocvReport,
    PipelineConfig,
    accuracy,
    fold_seed,
    hash_gmm,
    hash_mlp,
    load_model,
    load_sidecar,
    loocv,
    majority_vote,
    pool_corpus,
    render_report,
    report_from_sidecar,
    report_to_sidecar,
    run_fold,
    save_model,
    score_clip,
    sweep_from_sidecar,
    train_fold_models,
    write_report_files,
)
from aufusion.fusion import FusionConfig
from aufusion.gmm import EmConfig, GmmModel
from aufusion.ingest import (
    AU_COUNT,
    AUClip,
    ClipTooShort,
    Corpus,
    Label,
    SynthConfig,
    synth_corpus,
)
from aufusion.mlp import MlpModel, TrainConfig, train_mlp
from aufusion.rankpool import RankPoolConfig

from fixture_rows import REFERENCE_DECISIONS, reference_rows

FAST_PIPELINE = PipelineConfig(
    em=EmConfig(n_components=4, n_init=1, seed=0),
    mlp=TrainConfig(epochs=60, seed=0),
    seed=7,
)


@pytest.fixture(scope="module")
def small_corpus():
    return synth_corpus(SynthConfig(n_participants=6, frames_per_clip=450, seed=3))


@pytest.fixture(scope="module")
def small_report(small_corpus):
    return loocv(small_corpus, FAST_PIPELINE, jobs=1)


class TestPipelineConfig:
    @pytest.mark.parametrize(
        "frames, message",
        [(0, "gmm_fit_frames must be >= 1"), (-5, "gmm_fit_frames must be >= 1"),
         (True, "gmm_fit_frames must be an integer"), (1.5, "gmm_fit_frames must be an integer")],
    )
    def test_gmm_fit_frames_is_none_or_a_positive_integer(self, frames, message):
        with pytest.raises(ValueError, match=message):
            PipelineConfig(gmm_fit_frames=frames)
        assert PipelineConfig(gmm_fit_frames=1).gmm_fit_frames == 1

    @pytest.mark.parametrize(
        "pooling, message",
        [({"window": 1}, "window must be >= 2"), ({"stride": 0}, "stride must be >= 1"),
         ({"window": 150.0}, "window must be an integer"),
         ({"stride": True}, "stride must be an integer")],
    )
    def test_window_and_stride_are_checked_on_construction(self, pooling, message):
        with pytest.raises(ValueError, match=message):
            PipelineConfig(**pooling)
        assert PipelineConfig(window=2, stride=1).window == 2


def kind_cases():
    """A case (config class, field, value, accepted) for each value tried on
    each field of each config class, from the annotation text of the field."""
    for cls in (EmConfig, TrainConfig, RankPoolConfig, FusionConfig, PipelineConfig, SynthConfig):
        for field in dataclasses.fields(cls):
            kind = field.type.removesuffix(" | None")
            tried = [(None, kind != field.type)]
            if kind == "int":
                tried += [(1.5, False), (True, False), ("1", False)]
            elif kind == "float":
                whole = 0 if field.name == "dropout" else 2  # an int is a number
                tried += [(whole, True), (True, False), ("1", False)]
            elif kind == "bool":
                tried += [(1, False), ("yes", False)]
            else:  # a nested config
                tried += [({}, False)]
            for value, accepted in tried:
                yield pytest.param(
                    cls, field.name, value, accepted, id=f"{cls.__name__}.{field.name}={value!r}"
                )


class TestConfigFieldKinds:
    @pytest.mark.parametrize("cls, name, value, accepted", kind_cases())
    def test_each_field_takes_only_its_annotated_kind(self, cls, name, value, accepted):
        if accepted:
            assert getattr(cls(**{name: value}), name) == value
        else:
            message = f"^{name} must be .*, found {re.escape(repr(value))}$"
            with pytest.raises(ValueError, match=message):
                cls(**{name: value})


class TestAccuracy:
    def test_reference_tallies(self):
        rows = reference_rows()
        assert accuracy(rows, "gmm") == 22 / 30
        assert accuracy(rows, "rankpool") == 21 / 30
        assert accuracy(rows, "combined") == 23 / 30

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            accuracy(reference_rows(), "oracle")

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], "gmm")


class TestLoocv:
    def test_one_fold_per_participant(self, small_corpus, small_report):
        assert [r.participant_id for r in small_report.rows] == [
            c.participant_id for c in small_corpus.clips
        ]

    def test_rankpool_decision_is_vote_majority(self, small_report):
        for row in small_report.rows:
            votes = [1] * row.n_dep_votes + [0] * (row.n_segments - row.n_dep_votes)
            assert row.rankpool_decision == majority_vote(votes)

    def test_accuracies_recomputable_from_rows(self, small_report):
        rows = small_report.rows
        n = len(rows)
        for system, attr in (
            ("gmm", "gmm_decision"),
            ("rankpool", "rankpool_decision"),
            ("combined", "combined_decision"),
        ):
            direct = sum(1 for r in rows if getattr(r, attr) == r.label) / n
            assert accuracy(rows, system) == direct

    def test_majority_tie_goes_nondepressed(self):
        assert majority_vote([1, 0]) is Label.NONDEPRESSED
        assert majority_vote([1, 1, 0]) is Label.DEPRESSED

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fold_failure_names_the_participant(self, small_corpus, monkeypatch, jobs):
        def broken(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(evaluate, "train_fold_models", broken)
        first = small_corpus.clips[0].participant_id
        with pytest.raises(RuntimeError, match=f"fold '{first}' failed: boom"):
            loocv(small_corpus, FAST_PIPELINE, jobs=jobs)

    def test_parallel_folds_match_sequential(self, small_corpus, small_report):
        parallel = loocv(small_corpus, FAST_PIPELINE, jobs=2)
        assert parallel.rows == small_report.rows

    def test_default_jobs_follow_cpu_affinity(self, small_corpus, small_report, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was created")

        monkeypatch.setattr(evaluate.os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(evaluate, "ProcessPoolExecutor", no_pool)
        assert loocv(small_corpus, FAST_PIPELINE).rows == small_report.rows

    def test_missing_class_rejected(self):
        clips = synth_corpus(SynthConfig(n_participants=4, frames_per_clip=450, seed=1)).clips
        depressed_only = [
            dataclasses.replace(c) for c in clips if c.label is Label.DEPRESSED
        ]
        lone = AUClip("odd", clips[1].frames, Label.NONDEPRESSED)
        corpus = Corpus(depressed_only + [lone])
        with pytest.raises(ValueError):
            loocv(corpus, FAST_PIPELINE, jobs=1)

    def test_fold_training_set_must_keep_both_classes(self, small_corpus):
        clips = [c for c in small_corpus.clips if c.label is Label.DEPRESSED]
        clips += [small_corpus.clips[1]]  # one non-depressed clip only
        corpus = Corpus(clips)
        with pytest.raises(InsufficientClass):
            train_fold_models(
                corpus,
                small_corpus.clips[1].participant_id,
                FAST_PIPELINE,
                {c.participant_id: [] for c in clips},
            )


class TestScoreClip:
    def test_pools_the_clip_when_no_descriptors_are_given(self, small_corpus):
        descriptors = pool_corpus(small_corpus, FAST_PIPELINE)
        models = train_fold_models(small_corpus, "P002", FAST_PIPELINE, descriptors)
        clip = small_corpus.by_id("P002")
        fused, votes = score_clip(clip, models, FAST_PIPELINE)
        assert (fused, votes) == score_clip(clip, models, FAST_PIPELINE, descriptors["P002"])
        row = run_fold(small_corpus, "P002", FAST_PIPELINE, descriptors)
        assert (row.ll_dep, row.ll_ndep) == (fused.ll_dep, fused.ll_ndep)
        assert row.fused_score == fused.score
        assert (row.n_segments, row.n_dep_votes) == (len(votes), sum(votes))


class TestShortClips:
    # `aufusion train` pools through pool_corpus; loocv pools before any fold.
    @pytest.mark.parametrize("run", [loocv, pool_corpus], ids=["loocv", "pool"])
    def test_rejected_before_any_clip_is_pooled(self, small_corpus, monkeypatch, run):
        last = small_corpus.clips[-1]
        short = AUClip(last.participant_id, last.frames[:100], last.label)
        corpus = Corpus(small_corpus.clips[:-1] + [short])
        calls = []
        solve = rankpool.solve_rank_kernel

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(rankpool, "solve_rank_kernel", counting)
        with pytest.raises(ClipTooShort, match=last.participant_id):
            run(corpus, FAST_PIPELINE, jobs=1)
        assert calls == []


class TestNoLeakageAndDeterminism:
    def test_models_independent_of_held_out_contents(self, small_corpus):
        held_out = small_corpus.clips[2]
        rng = np.random.default_rng(99)
        corrupted = Corpus(
            [
                c
                if c.participant_id != held_out.participant_id
                else AUClip(c.participant_id, rng.uniform(0, 5, c.frames.shape), c.label)
                for c in small_corpus.clips
            ]
        )
        row_a = run_fold(small_corpus, held_out.participant_id, FAST_PIPELINE)
        row_b = run_fold(corrupted, held_out.participant_id, FAST_PIPELINE)
        assert row_a.gmm_dep_hash == row_b.gmm_dep_hash
        assert row_a.gmm_ndep_hash == row_b.gmm_ndep_hash
        assert row_a.mlp_hash == row_b.mlp_hash

    def test_byte_identical_reports(self, small_corpus, small_report, tmp_path):
        again = loocv(small_corpus, FAST_PIPELINE, jobs=1)
        a_txt, a_json = write_report_files(small_report, tmp_path / "a")
        b_txt, b_json = write_report_files(again, tmp_path / "b")
        assert a_txt.read_bytes() == b_txt.read_bytes()
        assert a_json.read_bytes() == b_json.read_bytes()

    def test_row_hashes_digest_the_model_file_entries(
        self, small_corpus, small_report, tmp_path
    ):
        # A fold's models saved as ``train`` saves them: each of the row's
        # hashes is the digest of one model's entry in that file.
        row = small_report.rows[0]
        descriptors = pool_corpus(small_corpus, FAST_PIPELINE)
        models = train_fold_models(small_corpus, row.participant_id, FAST_PIPELINE, descriptors)
        path = tmp_path / "model.json"
        save_model(path, models, FAST_PIPELINE)
        entries = json.loads(path.read_text())
        digests = [
            hashlib.sha256(json.dumps(entries[key]).encode()).hexdigest()[:16]
            for key in ("depressed", "nondepressed", "mlp")
        ]
        assert digests == [row.gmm_dep_hash, row.gmm_ndep_hash, row.mlp_hash]

    def test_fold_seed_stable(self):
        assert fold_seed(7, "P001") == fold_seed(7, "P001")
        assert fold_seed(7, "P001") != fold_seed(7, "P002")
        assert fold_seed(7, "P001") != fold_seed(8, "P001")


class TestKnownLooBias:
    def test_prior_following_votes_score_below_chance_on_noise(self):
        """Known artifact, pinned so it is never mistaken for a regression.

        On signal-free data the dropout-regularized vote classifier
        converges to a near-constant output at the training prior. Leaving
        one clip out skews that prior toward the opposite class (14 vs 15
        clips), so segment votes track the wrong class and the vote-driven
        decisions land systematically below 50%.
        """
        accuracies = []
        for seed in (201, 202, 203):
            corpus = synth_corpus(
                SynthConfig(frames_per_clip=600, class_separation=0.0, seed=seed)
            )
            pipeline = dataclasses.replace(
                FAST_PIPELINE,
                em=EmConfig(n_components=2, n_init=1),
                mlp=TrainConfig(epochs=120, dropout=0.5),
                seed=seed,
            )
            report = loocv(corpus, pipeline, jobs=2)
            accuracies.append(accuracy(report.rows, "rankpool"))
        assert np.mean(accuracies) < 0.48


def _toy_report(n=3):
    rows = reference_rows()[:n]
    return LoocvReport(rows=rows, configs=dataclasses.asdict(PipelineConfig()), seed=7)


class TestReportRendering:
    def test_three_row_report_shape(self):
        text = render_report(_toy_report(3))
        lines = text.splitlines()
        header = lines.index("participant_id\tlabel\tgmm\trank_pooling\tcombined")
        data_lines = lines[header + 1 : header + 4]
        assert len(data_lines) == 3 and all("\t" in line for line in data_lines)
        accuracy_lines = [
            line for line in lines if line.startswith(("gmm\t", "rankpool\t", "combined\t"))
        ]
        assert len(accuracy_lines) == 3

    def test_empty_configs_rejected(self):
        report = LoocvReport(rows=reference_rows(), configs={}, seed=7)
        with pytest.raises(ConfigIncomplete):
            render_report(report)
        partial = dataclasses.asdict(PipelineConfig())
        partial["em"] = {}
        with pytest.raises(ConfigIncomplete):
            render_report(LoocvReport(rows=reference_rows(), configs=partial, seed=7))

    def test_sidecar_round_trip(self, small_report):
        payload = json.loads(json.dumps(report_to_sidecar(small_report)))
        rebuilt = report_from_sidecar(payload)
        assert rebuilt.rows == small_report.rows
        assert rebuilt.seed == small_report.seed

    def test_sidecar_accuracies_match(self, small_report):
        payload = report_to_sidecar(small_report)
        for system in ("gmm", "rankpool", "combined"):
            assert payload["accuracies"][system]["fraction"] == accuracy(
                small_report.rows, system
            )


class TestSweepIntegration:
    def test_omega_zero_row_equals_gmm_accuracy(self, small_report):
        payload = report_to_sidecar(small_report)
        [(_, acc)] = sweep_from_sidecar(payload, [0.0])
        assert acc == accuracy(small_report.rows, "gmm")

    def test_huge_omega_row_equals_majority_vote_accuracy(self, small_report):
        payload = report_to_sidecar(small_report)
        [(_, acc)] = sweep_from_sidecar(payload, [1e6])
        majority_acc = sum(
            1 for r in small_report.rows if r.rankpool_decision == r.label
        ) / len(small_report.rows)
        assert acc == majority_acc

    def test_original_omega_reproduces_combined_accuracy(self, small_report):
        payload = report_to_sidecar(small_report)
        omega = payload["configs"]["fusion"]["omega"]
        [(_, acc)] = sweep_from_sidecar(payload, [omega])
        assert acc == accuracy(small_report.rows, "combined")


def tiny_models() -> tuple[GmmModel, GmmModel, MlpModel]:
    """A one-dimensional (depressed, non-depressed, vote) triple whose
    parameters are exact binary fractions."""
    gmm = GmmModel([0.25, 0.75], [[0.5, -1.0], [2.0, 0.125]], [[1.0, 0.5], [2.0, 4.0]])
    mlp = MlpModel(
        w1=[[0.5, -0.25]], b1=[0.0, 0.125], w2=[[1.0], [-2.0]], b2=[0.5], w3=[[0.75]],
        b3=[-0.5], input_mean=[0.25], input_std=[2.0],
    )
    return gmm, GmmModel([1.0], [[0.0, 1.0]], [[1.0, 1.0]]), mlp


def au_models() -> tuple[GmmModel, GmmModel, MlpModel]:
    """A (depressed, non-depressed, vote) triple that takes AU_COUNT inputs."""
    rng = np.random.default_rng(41)
    return tuple(
        GmmModel([0.5, 0.5], rng.normal(size=(2, AU_COUNT)), rng.uniform(0.1, 2, (2, AU_COUNT)))
        for _ in range(2)
    ) + (train_mlp(rng.normal(size=(10, AU_COUNT)), [0, 1] * 5, TrainConfig(epochs=5)),)


class TestModelFile:
    def test_round_trip_is_bit_stable_and_restores_the_pooling(self, tmp_path):
        models = au_models()
        trained = PipelineConfig(window=100, stride=50, rankpool=RankPoolConfig(reg_c=0.5))
        path = tmp_path / "model.json"
        save_model(path, models, trained)
        loaded, pipeline = load_model(path, FAST_PIPELINE)
        for model, again in zip(models, loaded):
            assert type(again) is type(model)
            for field in dataclasses.fields(model):
                np.testing.assert_array_equal(getattr(again, field.name), getattr(model, field.name))
        assert [hash_gmm(m) for m in loaded[:2]] == [hash_gmm(m) for m in models[:2]]
        assert hash_mlp(loaded[2]) == hash_mlp(models[2])
        # The pooling settings come from the file; everything else stays.
        assert pipeline == dataclasses.replace(
            FAST_PIPELINE, window=100, stride=50, rankpool=RankPoolConfig(reg_c=0.5)
        )

    def test_each_model_sits_under_the_key_of_its_role(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, tiny_models(), PipelineConfig())
        payload = json.loads(path.read_text())
        assert list(payload) == [
            "format_version", "window", "stride", "rankpool", "depressed", "nondepressed", "mlp"
        ]
        assert payload["format_version"] == MODEL_VERSION
        assert payload["nondepressed"] == {
            "weights": [1.0], "means": [[0.0, 1.0]], "variances": [[1.0, 1.0]]
        }


def model_payload(tmp_path) -> dict:
    path = tmp_path / "valid.json"
    save_model(path, au_models(), PipelineConfig())
    return json.loads(path.read_text())


def load_with_defaults(path):
    return load_model(path, PipelineConfig())


class TestJsonArtifactErrorsNameTheFile:
    # Each loader with a payload that lacks one of the keys it reads.
    LOADERS = {
        "model": (
            load_with_defaults,
            lambda p: {k: v for k, v in p.items() if k != "rankpool"},
            "missing key 'rankpool'",
        ),
        "sidecar": (
            load_sidecar, lambda _: {"version": 1, "rows": []}, "missing keys ['seed', 'configs']"
        ),
    }

    @pytest.mark.parametrize("loader", ["model", "sidecar"])
    @pytest.mark.parametrize("defect", ["missing-key", "not-json", "not-object"])
    def test_error_starts_with_the_path(self, tmp_path, loader, defect):
        load, lacking, missing = self.LOADERS[loader]
        text, message = {
            "missing-key": (json.dumps(lacking(model_payload(tmp_path))), missing),
            "not-json": ("{", "Expecting property name enclosed in double quotes: line 1"),
            "not-object": ("[1]", "expected a JSON object"),
        }[defect]
        path = tmp_path / "artifact.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}"):
            load(path)

    # Each edit of a valid model file that leaves a value its model, its
    # pooling settings or its format rejects.
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p["depressed"]["weights"].pop(),
             "weights and means disagree on component count"),
            (lambda p: p["mlp"].update(bogus=1), "unexpected keyword argument 'bogus'"),
            (lambda p: p["mlp"].update(input_std=[0.0] * AU_COUNT), "input_std must be positive"),
            (lambda p: p["mlp"].update(input_mean=[0.0, 0.0]),
             "input normalization must match the input layer"),
            (lambda p: p.update(window="150"), "window must be an integer, found '150'"),
            (lambda p: p["rankpool"].update(max_epochs=1.5),
             "max_epochs must be an integer, found 1.5"),
            (lambda p: p.update(window=1), "window must be >= 2"),
            (lambda p: p.pop("format_version"), "unsupported model format: None"),
            (lambda p: p["mlp"].update(
                {k: p["mlp"][k][:-1] for k in ("w1", "input_mean", "input_std")}),
             "take (17, 17, 16) inputs, not 17"),
            (lambda p: p["depressed"].update(
                {k: [row[:-1] for row in p["depressed"][k]] for k in ("means", "variances")}),
             "take (16, 17, 17) inputs, not 17"),
        ],
        ids=["gmm-short-weights", "mlp-unknown-key", "mlp-zero-std", "mlp-wide-mean",
             "string-window", "fractional-rank-epochs", "window-below-two", "no-version",
             "mlp-narrow", "gmm-narrow"],
    )
    def test_bad_model_value_names_the_file(self, tmp_path, edit, message):
        payload = model_payload(tmp_path)
        edit(payload)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
            load_with_defaults(path)

    def test_version_1_mixture_file_names_the_file(self, tmp_path):
        path = tmp_path / "gmm-depressed.json"
        path.write_text(
            '{"format_version": 1, "n": 1, "weights": [1.0], "means": [[0.0]],'
            ' "variances": [[1.0]], "em_config": null}'
        )
        message = f"{path}: unsupported model format: 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_with_defaults(path)
