import random

import pytest

from aufusion.fusion import (
    EmptyVotes,
    FusionConfig,
    FusionResult,
    fuse,
    refuse_record,
    sweep_omega,
)
from aufusion.ingest import Label

from fixture_rows import REFERENCE_DECISIONS


def raw(omega=1.0, tau=None):
    return FusionConfig(omega=omega, tau=tau, normalize_ll=False)


class TestFuse:
    def test_omega_zero_reduces_to_likelihood_ratio(self):
        config = raw(omega=0.0)
        dep = fuse(ll_dep=-5.0, ll_ndep=-9.0, votes=[0, 0, 0], config=config)
        ndep = fuse(ll_dep=-9.0, ll_ndep=-5.0, votes=[1, 1, 1], config=config)
        tie = fuse(ll_dep=-5.0, ll_ndep=-5.0, votes=[1, 1, 1], config=config)
        assert dep.decision is Label.DEPRESSED and dep.tau == 0.0
        assert ndep.decision is Label.NONDEPRESSED
        assert tie.decision is Label.NONDEPRESSED  # ties resolve non-depressed

    def test_vote_arithmetic_with_explicit_threshold(self):
        config = raw(omega=1.0, tau=5.0)
        unanimous = fuse(0.0, 0.0, [1] * 10, config)
        assert unanimous.score == 10.0
        assert unanimous.decision is Label.DEPRESSED
        empty = fuse(0.0, 0.0, [0] * 10, config)
        assert empty.score == 0.0
        assert empty.decision is Label.NONDEPRESSED

    def test_default_threshold_recenters_votes(self):
        result = fuse(0.0, 0.0, [1, 0, 1, 0], raw(omega=2.0))
        assert result.tau == 2.0 * 4 / 2
        assert result.decision is Label.NONDEPRESSED  # split vote, zero gap

    def test_normalized_gap_uses_frame_count(self):
        config = FusionConfig(omega=0.0, normalize_ll=True)
        result = fuse(-100.0, -400.0, [0], config, n_frames=100)
        assert result.score == pytest.approx(3.0)
        with pytest.raises(ValueError):
            fuse(-100.0, -400.0, [0], config)  # frame count required

    def test_empty_votes_rejected(self):
        with pytest.raises(EmptyVotes):
            fuse(0.0, 0.0, [], raw())

    def test_non_binary_votes_rejected(self):
        with pytest.raises(ValueError):
            fuse(0.0, 0.0, [0, 2], raw())

    def test_negative_omega_rejected(self):
        with pytest.raises(ValueError):
            FusionConfig(omega=-0.5)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                FusionConfig(omega=bad)
            with pytest.raises(ValueError):
                FusionConfig(tau=bad)
            with pytest.raises(ValueError):
                FusionConfig(tau=-bad)

    def test_pure_function(self):
        a = fuse(-3.0, -4.0, [1, 0, 1], raw(), n_frames=None)
        b = fuse(-3.0, -4.0, [1, 0, 1], raw(), n_frames=None)
        assert a == b

    def test_result_echoes_inputs(self):
        result = fuse(-3.0, -4.5, [1, 0, 1, 1], raw(omega=0.5))
        assert isinstance(result, FusionResult)
        assert (result.ll_dep, result.ll_ndep) == (-3.0, -4.5)
        assert (result.n_segments, result.n_dep_votes) == (4, 3)


class TestAgreementProperties:
    def test_agreeing_subsystems_always_win_under_default_threshold(self):
        # Matching likelihood sign and unanimous votes must carry the fused
        # decision for any nonnegative vote weight.
        for omega in (0.0, 0.3, 1.0, 10.0, 1e6):
            config = raw(omega=omega)
            dep = fuse(2.0, 1.0, [1] * 7, config)
            assert dep.decision is Label.DEPRESSED
            ndep = fuse(1.0, 2.0, [0] * 7, config)
            assert ndep.decision is Label.NONDEPRESSED

    def test_score_monotone_in_votes_and_gap(self):
        config = raw(omega=1.0)
        scores = [fuse(0.0, 0.0, [1] * k + [0] * (5 - k), config).score for k in range(6)]
        assert scores == sorted(scores)
        gap_scores = [fuse(g, 0.0, [1, 0], config).score for g in (-2.0, 0.0, 2.0)]
        assert gap_scores == sorted(gap_scores)

    def test_reference_rows_with_agreeing_subsystems_replay(self):
        # Wherever the two subsystems agreed in the reference run, fusing
        # sign-consistent mock inputs (gap of +/-1, unanimous votes, unit
        # weight) must reproduce the recorded combined decision.
        agreeing = [row for row in REFERENCE_DECISIONS if row[1] == row[2]]
        assert len(agreeing) == 21
        for _, gmm_d, rp_d, combined in agreeing:
            gap = 1.0 if gmm_d is Label.DEPRESSED else -1.0
            votes = [1] * 10 if rp_d is Label.DEPRESSED else [0] * 10
            result = fuse(gap, 0.0, votes, raw(omega=1.0))
            assert result.decision is combined


def _records():
    rows = []
    for i, (label, gmm_d, rp_d, _) in enumerate(REFERENCE_DECISIONS):
        n_segments = 9
        n_dep = 7 if rp_d is Label.DEPRESSED else 2
        rows.append(
            {
                "label": label.value,
                "ll_dep": 1.0 if gmm_d is Label.DEPRESSED else -1.0,
                "ll_ndep": 0.0,
                "n_segments": n_segments,
                "n_dep_votes": n_dep,
                "n_frames": 100 + i,
            }
        )
    return rows


class TestSweepOmega:
    def test_single_omega_matches_direct_fusion(self):
        records = _records()
        base = FusionConfig(omega=1.0, normalize_ll=True)
        [(omega, acc)] = sweep_omega(records, [1.0], base)
        direct = sum(
            1
            for rec in records
            if refuse_record(rec, 1.0, base).decision is Label(rec["label"])
        ) / len(records)
        assert (omega, acc) == (1.0, direct)

    def test_omega_zero_equals_likelihood_only_accuracy(self):
        records = _records()
        [(_, acc)] = sweep_omega(records, [0.0], FusionConfig(normalize_ll=True))
        gmm_acc = sum(
            1 for rec in records if (rec["ll_dep"] > rec["ll_ndep"])
            == (rec["label"] == Label.DEPRESSED.value)
        ) / len(records)
        assert acc == gmm_acc == 22 / 30

    def test_huge_omega_equals_majority_vote_accuracy(self):
        records = _records()
        [(_, acc)] = sweep_omega(records, [1e6], FusionConfig(normalize_ll=True))
        majority_acc = sum(
            1 for rec in records if (2 * rec["n_dep_votes"] > rec["n_segments"])
            == (rec["label"] == Label.DEPRESSED.value)
        ) / len(records)
        assert acc == majority_acc == 21 / 30

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            sweep_omega([], [1.0])
        with pytest.raises(ValueError):
            sweep_omega(_records(), [])

    def test_missing_keys_rejected(self):
        records = _records()
        del records[0]["n_frames"]
        with pytest.raises(ValueError):
            sweep_omega(records, [1.0])

    def test_negative_omega_rejected(self):
        with pytest.raises(ValueError):
            sweep_omega(_records(), [1.0, -0.5])

    @pytest.mark.parametrize(
        "n_dep, n_segments", [(10, 9), (-1, 9), (1, 0)], ids=["above", "negative", "empty"]
    )
    def test_out_of_range_vote_counts_rejected(self, n_dep, n_segments):
        records = _records()
        records[3] = dict(records[3], n_dep_votes=n_dep, n_segments=n_segments)
        with pytest.raises(ValueError):
            refuse_record(records[3], 1.0, FusionConfig())
        with pytest.raises(ValueError):
            sweep_omega(records, [1.0])


def reference_sweep(records, omegas, base):
    """Vote-list re-fusion: rebuild each record's votes and fuse them."""
    table = []
    for omega in omegas:
        config = FusionConfig(omega=omega, tau=base.tau, normalize_ll=base.normalize_ll)
        correct = 0
        for record in records:
            n_dep, n = int(record["n_dep_votes"]), int(record["n_segments"])
            votes = [1] * n_dep + [0] * (n - n_dep)
            result = fuse(
                float(record["ll_dep"]),
                float(record["ll_ndep"]),
                votes,
                config,
                n_frames=int(record["n_frames"]),
            )
            correct += result.decision is Label(record["label"])
        table.append((float(omega), correct / len(records)))
    return table


class TestCountFusionMatchesVoteLists:
    @pytest.mark.parametrize("normalize_ll", [True, False])
    @pytest.mark.parametrize("tau", [None, 0.0, 2.5, -1.5])
    def test_random_records_give_identical_tables(self, normalize_ll, tau):
        rng = random.Random(f"{normalize_ll}-{tau}")
        base = FusionConfig(tau=tau, normalize_ll=normalize_ll)
        for _ in range(20):
            records = []
            for _ in range(rng.randint(1, 15)):
                n = rng.randint(1, 25)
                ll_dep = rng.uniform(-4e4, 0.0)
                # Equal likelihoods make the default threshold tie on split votes.
                ll_ndep = ll_dep if rng.random() < 0.2 else rng.uniform(-4e4, 0.0)
                records.append(
                    {
                        "label": rng.choice(list(Label)).value,
                        "ll_dep": ll_dep,
                        "ll_ndep": ll_ndep,
                        "n_segments": n,
                        "n_dep_votes": rng.randint(0, n),
                        "n_frames": rng.randint(1, 9000),
                    }
                )
            omegas = [0.0, 1e6] + [rng.uniform(0.0, 30.0) for _ in range(30)]
            table = sweep_omega(records, omegas, base)
            assert table == reference_sweep(records, omegas, base)
            # The accuracies share the n + 1 possible float objects.
            assert len({id(accuracy) for _, accuracy in table}) <= len(records) + 1
