import re
from dataclasses import replace

import numpy as np
import pytest

from aufusion import rankpool
from aufusion.ingest import AU_COUNT, AUClip, Segment, SynthConfig, synth_corpus
from aufusion.rankpool import (
    RankPoolConfig,
    SegmentTooShort,
    _pair_distances,
    _pair_indices,
    _reach,
    order_agreement,
    pool_clip,
    rank_pool,
    read_descriptors,
    smooth_frames,
    solve_rank_kernel,
    write_descriptors,
)

CFG = RankPoolConfig()


def ramp_segment(d=20, dim=3, rise=2.0, base=0.0):
    """All AUs flat except one linear ramp on the given dimension."""
    frames = np.full((d, AU_COUNT), base)
    frames[:, dim] = np.linspace(0.0, rise, d)
    return Segment("ramp", 0, frames)


def brute_force_agreement(weights, frames):
    """Nested-loop enumeration of every ordered pair; the oracle."""
    scores = [float(weights @ row) for row in frames]
    good, total = 0, 0
    for a in range(len(scores)):
        for b in range(a):
            total += 1
            if scores[a] > scores[b]:
                good += 1
    return good / total


def reference_solve(frames, config):
    """The n x n matrix formulation of the solver; the oracle.

    Returns the kernel, the objective trace and the reason the solver
    stopped, so a test can show which exit a case takes.
    """
    v = np.asarray(frames, dtype=np.float64)
    n = v.shape[0]

    def objective(d, scores):
        gaps = config.margin - (scores[:, None] - scores[None, :])  # gaps[a, b]
        lower = np.tril(gaps, k=-1)  # pairs with a > b only
        return 0.5 * float(d @ d) + config.reg_c * float(lower[lower > 0].sum())

    d = np.zeros(v.shape[1])
    scores = v @ d
    f_curr = objective(d, scores)
    trace = [f_curr]
    strict_lower = np.tril(np.ones((n, n), dtype=bool), k=-1)
    for epoch in range(config.max_epochs):
        active = strict_lower & (scores[:, None] - scores[None, :] < config.margin)
        coef = active.sum(axis=1) - active.sum(axis=0)
        grad = d - config.reg_c * (v.T @ coef.astype(np.float64))
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < 1e-12:
            return d, trace, "zero gradient"
        eta = 1.0 / ((1.0 + epoch) * grad_norm)
        for _ in range(60):
            d_try = d - eta * grad
            scores_try = v @ d_try
            f_try = objective(d_try, scores_try)
            if f_try <= f_curr:
                break
            eta *= 0.5
        else:
            return d, trace, "line search failed"
        improvement = f_curr - f_try
        d, scores, f_curr = d_try, scores_try, f_try
        trace.append(f_curr)
        if improvement <= 1e-12 * (1.0 + abs(f_curr)):
            return d, trace, "no improvement"
    return d, trace, "epoch cap"


def drifting_frames(n, seed):
    """A random walk with drift: ordered but noisy, like AU intensities."""
    rng = np.random.default_rng(seed)
    steps = rng.normal(0.0, 0.3, (n, AU_COUNT)) + rng.normal(0.0, 0.1, AU_COUNT)
    return np.cumsum(steps, axis=0)


class TestRankPool:
    def test_single_ramp_dimension_dominates(self):
        seg = ramp_segment(dim=5)
        d = rank_pool(seg, CFG)
        assert np.argmax(np.abs(d)) == 5
        assert d[5] > 0
        scores = smooth_frames(seg.frames) @ d
        assert (np.diff(scores) > 0).all()

    def test_time_reversal_inverts_order(self):
        seg = ramp_segment(dim=2)
        reversed_seg = Segment("ramp", 0, seg.frames[::-1])
        d_rev = rank_pool(reversed_seg, CFG)
        assert order_agreement(d_rev, seg) == 0.0

    def test_agreement_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(77)
        direction = rng.normal(size=AU_COUNT)
        direction /= np.linalg.norm(direction)
        # Separable by construction: strong drift along one direction plus
        # small cross-direction noise.
        frames = (
            np.linspace(0.0, 4.0, 20)[:, None] * direction
            + rng.normal(0.0, 0.05, (20, AU_COUNT))
        )
        seg = Segment("sep", 0, frames)
        d = rank_pool(seg, CFG)
        smoothed = smooth_frames(frames)
        oracle = brute_force_agreement(d, smoothed)
        assert order_agreement(d, seg) == pytest.approx(oracle)
        assert oracle >= 0.99

    def test_too_short(self):
        seg = Segment("x", 0, np.zeros((1, AU_COUNT)))
        with pytest.raises(SegmentTooShort):
            rank_pool(seg, CFG)


class TestOrderAgreement:
    def test_zero_kernel_scores_zero(self):
        seg = ramp_segment()
        assert order_agreement(np.zeros(AU_COUNT), seg) == 0.0

    def test_inactive_hinges_mean_full_agreement(self):
        # Strong trade-off pushes every pairwise gap past the margin; once no
        # hinge is active the ordering must be perfect.
        seg = ramp_segment(d=10, rise=5.0)
        config = RankPoolConfig(reg_c=100.0, max_epochs=500)
        d = rank_pool(seg, config)
        smoothed = smooth_frames(seg.frames)
        scores = smoothed @ d
        gaps = scores[:, None] - scores[None, :]
        lower = np.tril_indices(len(scores), k=-1)
        assert (config.margin - gaps[lower] <= 1e-9).all()  # all hinges inactive
        assert order_agreement(d, seg) == 1.0

    def test_negated_kernel_flips_agreement(self):
        seg = ramp_segment()
        d = rank_pool(seg, CFG)
        assert order_agreement(d, seg) == 1.0
        assert order_agreement(-d, seg) == 0.0


class TestPoolClip:
    def _clip(self, m=40, seed=0):
        rng = np.random.default_rng(seed)
        return AUClip("c", rng.normal(size=(m, AU_COUNT)))

    def test_descriptor_count_follows_segmentation(self):
        clip = self._clip(m=40)
        descs = pool_clip(clip, window=20, stride=20, config=CFG)
        assert descs.shape == (2, AU_COUNT) and descs.dtype == np.float64
        assert not descs.flags.writeable

    def test_shared_segments_give_identical_descriptors(self):
        clip = self._clip(m=60)
        full = pool_clip(clip, window=20, stride=20, config=CFG)
        sub = pool_clip(AUClip("c", clip.frames[:40]), window=20, stride=20, config=CFG)
        np.testing.assert_array_equal(sub, full[:2])

    def test_deterministic(self):
        clip = self._clip(m=50, seed=3)
        a = pool_clip(clip, window=25, stride=25, config=CFG)
        b = pool_clip(clip, window=25, stride=25, config=CFG)
        np.testing.assert_array_equal(a, b)


class TestSolver:
    @pytest.mark.parametrize("field", ["margin", "reg_c", "max_epochs"])
    def test_nan_setting_rejected(self, field):
        with pytest.raises(ValueError):
            RankPoolConfig(**{field: float("nan")})

    def test_objective_non_increasing_on_random_segments(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            d = int(rng.integers(5, 40))
            frames = rng.normal(size=(d, AU_COUNT)) + rng.normal(size=AU_COUNT)
            _, trace = solve_rank_kernel(smooth_frames(frames), CFG)
            diffs = np.diff(trace)
            assert (diffs <= 1e-6).all()

    def test_monotone_segments_reach_high_agreement(self):
        rng = np.random.default_rng(101)
        for d in (10, 50, 150):
            direction = rng.normal(size=AU_COUNT)
            seg = Segment("m", 0, np.linspace(0.0, 3.0, d)[:, None] * direction)
            kernel = rank_pool(seg, CFG)
            assert order_agreement(kernel, seg) >= 0.99

    def test_scaling_frames_preserves_order_structure(self):
        seg = ramp_segment(d=15, dim=4)
        scaled = Segment("ramp", 0, seg.frames * 7.5)
        agree_base = order_agreement(rank_pool(seg, CFG), seg)
        agree_scaled = order_agreement(rank_pool(scaled, CFG), scaled)
        assert agree_base == agree_scaled == 1.0


class TestDescriptorDump:
    def test_round_trip(self, tmp_path):
        corpus = synth_corpus(SynthConfig(n_participants=2, frames_per_clip=300, seed=13))
        descs = {
            clip.participant_id: pool_clip(clip, window=150, stride=100, config=CFG)
            for clip in corpus.clips
        }
        path = tmp_path / "descriptors.tsv"
        write_descriptors(descs, 100, path)
        loaded = read_descriptors(path)
        assert list(loaded) == list(descs) == ["P001", "P002"]
        for source_id, matrix in descs.items():
            assert matrix.shape == (2, AU_COUNT)
            np.testing.assert_array_equal(loaded[source_id], matrix)
            assert not loaded[source_id].flags.writeable
        rows = path.read_text().splitlines()[1:]
        assert [row.split("\t")[:2] for row in rows[:2]] == [["P001", "0"], ["P001", "100"]]

    @pytest.mark.parametrize(
        "line_no, edit, message",
        [
            (1, lambda line: line.replace("d16", "d17"), "expected the header"),
            (3, lambda line: line.rsplit("\t", 1)[0], "expected 19 fields, found 18"),
            (2, lambda line: line + "\t0.5", "expected 19 fields, found 20"),
            (3, lambda line: line.rsplit("\t", 1)[0] + "\tnan", "must be finite"),
            (2, lambda line: line.rsplit("\t", 1)[0] + "\tinf", "must be finite"),
            (2, lambda line: line.rsplit("\t", 1)[0] + "\tx", "could not convert"),
            (3, lambda line: "\t".join(["P001", "?"] + line.split("\t")[2:]), "invalid literal"),
        ],
        ids=["header", "missing-weight", "extra-weight", "nan", "inf", "text", "start-index"],
    )
    def test_bad_input_names_file_and_line(self, tmp_path, line_no, edit, message):
        clip = synth_corpus(SynthConfig(n_participants=2, frames_per_clip=300, seed=13)).clips[0]
        path = tmp_path / "descriptors.tsv"
        descs = {clip.participant_id: pool_clip(clip, window=150, stride=150, config=CFG)}
        write_descriptors(descs, 150, path)
        lines = path.read_text().splitlines()
        lines[line_no - 1] = edit(lines[line_no - 1])
        path.write_text("\n".join(lines) + "\n")
        where = f"^{re.escape(str(path))}: line {line_no}: "
        with pytest.raises(ValueError, match=where + f".*{message}"):
            read_descriptors(path)


class TestPairListSolver:
    """The pair-list solver takes the same steps as the matrix formulation."""

    @pytest.mark.parametrize("n", [2, 3, 10, 57, 150, 300])
    @pytest.mark.parametrize(
        "config, smooth",
        [
            (RankPoolConfig(), True),
            (RankPoolConfig(), False),
            (RankPoolConfig(margin=0.25, reg_c=3.0, max_epochs=37), True),
            (RankPoolConfig(margin=2.0, reg_c=0.05, max_epochs=400), False),
        ],
        ids=["default", "unsmoothed", "tight", "loose"],
    )
    def test_bit_identical_to_matrix_reference(self, n, config, smooth):
        frames = drifting_frames(n, seed=n)
        v = smooth_frames(frames) if smooth else frames
        d, trace = solve_rank_kernel(v, config)
        d_ref, trace_ref, _ = reference_solve(v, config)
        assert np.array_equal(d, d_ref)
        assert trace == trace_ref
        if smooth:
            assert np.array_equal(rank_pool(Segment("w", 0, frames), config), d_ref)

    @pytest.mark.parametrize("n", [10, 57, 150])
    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_integer_frames_put_pairs_on_the_margin(self, n, scale):
        # One integer-valued AU scaled by 1 or 2, a unit margin and reg_c =
        # 1 / scale**2: the first normalized step sets that AU's weight to
        # exactly 1 and the second moves it by half that, so after one of the
        # first two epochs pairs whose frames differ by a small integer score
        # a gap of exactly the margin, on the kink of their hinges.
        rng = np.random.default_rng(n)
        frames = np.zeros((n, AU_COUNT))
        frames[:, 0] = scale * np.cumsum(rng.integers(-1, 3, n))
        config = RankPoolConfig(margin=1.0, reg_c=1.0 / scale**2)
        d, trace = solve_rank_kernel(frames, config)
        d_ref, trace_ref, _ = reference_solve(frames, config)
        assert np.array_equal(d, d_ref)
        assert trace == trace_ref
        ia, ib = _pair_indices(n)
        on_margin = 0
        for epochs in (1, 2):
            early, _ = solve_rank_kernel(frames, replace(config, max_epochs=epochs))
            scores = frames @ early
            on_margin += int((scores[ia] - scores[ib] == config.margin).sum())
        assert on_margin > 0

    def test_zero_gradient_exit(self):
        frames = np.ones((12, AU_COUNT))
        d, trace = solve_rank_kernel(frames, CFG)
        d_ref, trace_ref, reason = reference_solve(frames, CFG)
        assert reason == "zero gradient"
        assert np.array_equal(d, d_ref)
        assert trace == trace_ref == [66.0]  # 66 pairs, each hinge at the full margin

    def test_line_search_failure_exit(self):
        # After two epochs both consecutive-frame pairs sit exactly at the
        # margin, on the kink of their hinges: the subgradient counts them as
        # inactive, and every trial step along it raises the objective. The
        # frames are scaled by 64 and reg_c by 1 / 64**2 (exact powers of two):
        # the unit steps then move the kernel as far, relative to the frames,
        # as steps 64 times larger would on the unscaled frames; no small
        # unscaled window reaching this exit is known.
        frames = np.zeros((3, AU_COUNT))
        frames[:, :2] = 64.0 * np.array([[0.5, 1.0], [1.5, 1.0], [2.5, 1.0]])
        config = RankPoolConfig(margin=0.5, reg_c=1.0 / 4096)
        d, trace = solve_rank_kernel(frames, config)
        d_ref, trace_ref, reason = reference_solve(frames, config)
        assert reason == "line search failed"
        assert np.array_equal(d, d_ref)
        assert trace == trace_ref

    def test_pair_indices_shared_and_read_only(self):
        ia, ib = _pair_indices(150)
        assert _pair_indices(150)[0] is ia
        assert len(ia) == 150 * 149 // 2
        assert (ia > ib).all()
        assert not ia.flags.writeable and not ib.flags.writeable


def synth_window(seed):
    """The first default-length window of a synthetic depressed clip."""
    corpus = synth_corpus(SynthConfig(n_participants=2, frames_per_clip=300, seed=seed))
    return corpus.clips[0].frames[:150]


@pytest.fixture
def screen_log(monkeypatch):
    """Each screen's (pairs in, pairs kept), recorded around ``_screen``."""
    log = []
    screen = rankpool._screen

    def recording(diffs, dist, radius, limit):
        keep = screen(diffs, dist, radius, limit)
        log.append((len(diffs), len(keep)))
        return keep

    monkeypatch.setattr(rankpool, "_screen", recording)
    return log


class TestPairScreening:
    """Screening drops pairs and leaves every kernel and trace unchanged."""

    @pytest.mark.parametrize("source", ["synth", "drifting"])
    @pytest.mark.parametrize("max_epochs", [10, 37, 200, 2000])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e6])
    def test_bit_identical_to_matrix_reference_with_pairs_dropped(
        self, screen_log, source, max_epochs, scale
    ):
        # Scaling the frames, the margin and 1 / reg_c together poses the
        # same problem in other units: the kernels match the unscaled ones
        # up to rounding, and the bound's slack is exercised at every scale.
        frames = synth_window(7) if source == "synth" else drifting_frames(150, seed=11)
        v = smooth_frames(frames * scale)
        config = RankPoolConfig(margin=scale, reg_c=1.0 / scale, max_epochs=max_epochs)
        d, trace = solve_rank_kernel(v, config)
        d_ref, trace_ref, _ = reference_solve(v, config)
        assert np.array_equal(d, d_ref)
        assert trace == trace_ref
        assert sum(before - kept for before, kept in screen_log) > 0

    def test_bound_is_attained_by_a_reversing_kernel(self, screen_log):
        # One moving AU, so the kernel moves on a line. It steps to 1, then
        # back by 1/2 and 1/3: after the screen at epoch 1 it moves the full
        # reach[1] = 1/2 + 1/3 toward the pairs the screen dropped. On this
        # window a radius even 1e-4 smaller drops a pair that turns active
        # again, so the kernel would differ.
        frames = np.zeros((150, AU_COUNT))
        frames[:, 0] = np.cumsum(np.random.default_rng(0).normal(size=150))
        v = smooth_frames(frames)
        config = RankPoolConfig(margin=0.3, max_epochs=3)
        path = [solve_rank_kernel(v, replace(config, max_epochs=t))[0][0] for t in (1, 2, 3)]
        assert path == pytest.approx([1.0, 0.5, 1.0 / 6.0], rel=1e-12)
        screen_log.clear()
        d, trace = solve_rank_kernel(v, config)
        d_ref, trace_ref, _ = reference_solve(v, config)
        assert np.array_equal(d, d_ref)
        assert trace == trace_ref
        assert sum(before - kept for before, kept in screen_log) > 0

    @pytest.mark.parametrize("scale", [1e-3, 1e6])
    def test_default_config_on_scaled_frames(self, scale):
        v = smooth_frames(synth_window(5) * scale)
        d, trace = solve_rank_kernel(v, CFG)
        d_ref, trace_ref, _ = reference_solve(v, CFG)
        assert np.array_equal(d, d_ref)
        assert trace == trace_ref

    @pytest.mark.parametrize("offset", [1e3, 1e6])
    def test_frames_far_from_the_origin(self, screen_log, offset):
        # The scores v @ d then cancel in every pair difference.
        v = smooth_frames(drifting_frames(150, seed=3) + offset)
        d, trace = solve_rank_kernel(v, CFG)
        d_ref, trace_ref, _ = reference_solve(v, CFG)
        assert np.array_equal(d, d_ref)
        assert trace == trace_ref
        assert sum(before - kept for before, kept in screen_log) > 0

    def test_windows_of_a_clip_match_the_reference(self, screen_log):
        clip = synth_corpus(SynthConfig(n_participants=2, frames_per_clip=600, seed=21)).clips[1]
        descs = pool_clip(clip, window=150, stride=150, config=CFG)
        for row, start in zip(descs, range(0, 600, 150)):
            d_ref, _, _ = reference_solve(smooth_frames(clip.frames[start : start + 150]), CFG)
            assert np.array_equal(row, d_ref)
        assert len({before for before, _ in screen_log}) > 1  # lists shrink screen by screen

    def test_kept_pairs_stay_in_row_major_order(self, monkeypatch):
        kept_lists = []
        screen = rankpool._screen

        def recording(diffs, dist, radius, limit):
            keep = screen(diffs, dist, radius, limit)
            kept_lists.append(keep)
            return keep

        monkeypatch.setattr(rankpool, "_screen", recording)
        solve_rank_kernel(smooth_frames(drifting_frames(150, seed=2)), CFG)
        assert kept_lists
        for keep in kept_lists:
            assert (np.diff(keep) > 0).all()

    def test_one_epoch_never_screens(self, screen_log):
        solve_rank_kernel(smooth_frames(drifting_frames(150, seed=2)), replace(CFG, max_epochs=1))
        assert screen_log == []

    def test_reach_sums_the_remaining_step_bounds(self):
        reach = _reach(37)
        assert len(reach) == 38 and reach[37] == 0.0
        for e in (0, 1, 20, 36):
            assert reach[e] == pytest.approx(sum(1.0 / (1 + j) for j in range(e, 37)), rel=1e-14)
        assert (np.diff(reach) < 0).all()
        assert _reach(37) is reach and not reach.flags.writeable

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_pair_distances_bound_the_frame_distances(self, offset):
        v = smooth_frames(drifting_frames(60, seed=9) + offset)
        ia, ib = _pair_indices(60)
        exact = np.sqrt(((v[ia] - v[ib]) ** 2).sum(axis=1))
        dist = _pair_distances(v, ia, ib)
        assert (dist >= exact).all()
        # Loose only by the rounding slack, which is absolute: about
        # sqrt(eps) times the centered frames' largest norm.
        centered = np.sqrt(((v - v.mean(axis=0)) ** 2).sum(axis=1)).max()
        assert (dist - exact <= 1e-6 * centered).all()
