from dataclasses import replace

import numpy as np
import pytest

from aufusion.ingest import (
    _SERIAL_MACS,
    AU_COUNT,
    AUClip,
    Segment,
    SynthConfig,
    _serial_rows,
    synth_corpus,
)
from aufusion.rankpool import (
    _GRAD_TOL,
    RankPoolConfig,
    SegmentTooShort,
    _line_search,
    _pair_cells,
    _pair_indices,
    _ray_search,
    _serial_matmul,
    order_agreement,
    pool_clip,
    rank_pool,
    smooth_frames,
    solve_rank_kernel,
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
        # Under the squared hinge some pairs stay inside the unit margin, by a
        # residual that shrinks as the trade-off grows: about 100 times per
        # 100 times reg_c. The ordering stays perfect throughout.
        seg = ramp_segment(d=10, rise=5.0)
        smoothed = smooth_frames(seg.frames)
        ia, ib = _pair_indices(10)
        largest = []
        for reg_c in (100.0, 10000.0):
            config = RankPoolConfig(reg_c=reg_c)
            d = rank_pool(seg, config)
            scores = smoothed @ d
            largest.append(float((1.0 - (scores[ia] - scores[ib])).max()))
            assert order_agreement(d, seg) == 1.0
        assert 0.0 < largest[1] < largest[0] < 0.01
        assert 50.0 < largest[0] / largest[1] < 200.0

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
    @pytest.mark.parametrize("field", ["reg_c", "max_epochs"])
    def test_nan_setting_rejected(self, field):
        with pytest.raises(ValueError):
            RankPoolConfig(**{field: float("nan")})

    def test_no_margin_setting(self):
        # Margin m only rescales the kernel by m (see the module docstring).
        with pytest.raises(TypeError):
            RankPoolConfig(margin=1.0)

    @pytest.mark.parametrize("value", [2.5, 200.0, True], ids=["fraction", "float", "bool"])
    def test_max_epochs_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="^max_epochs must be an integer, found "):
            RankPoolConfig(max_epochs=value)

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


def synth_window(seed):
    """The first default-length window of a synthetic depressed clip."""
    corpus = synth_corpus(SynthConfig(n_participants=2, frames_per_clip=300, seed=seed))
    return corpus.clips[0].frames[:150]


def objective_and_gradient(d, v, config):
    """The squared pairwise hinge objective and its gradient, from explicit
    pair differences of the uncentered frames; the oracle's view."""
    ia, ib = _pair_indices(len(v))
    diffs = v[ia] - v[ib]
    hinge = np.maximum(1.0 - diffs @ d, 0.0)
    objective = 0.5 * float(d @ d) + config.reg_c * float(hinge @ hinge)
    return objective, d - 2.0 * config.reg_c * (diffs.T @ hinge)


def certificate_scale(d, v, config):
    """The ``scale`` of the solver's gradient certificate at ``d``: ``||d||``
    plus ``2 reg_c`` times the norm of the gradient's terms without signs."""
    n = len(v)
    ia, ib = _pair_indices(n)
    w = v - v.mean(axis=0)
    hinge = np.maximum(1.0 - (w[ia] - w[ib]) @ d, 0.0)
    per_frame = np.bincount(ia, hinge, n) + np.bincount(ib, hinge, n)
    return np.linalg.norm(d) + 2.0 * config.reg_c * np.linalg.norm(np.abs(w).T @ per_frame)


class TestNewtonSolver:
    """The solver reaches the optimum of the squared-hinge objective."""

    @pytest.mark.parametrize("n", [2, 3, 10, 57, 150, 300])
    @pytest.mark.parametrize(
        "config, smooth",
        [
            (RankPoolConfig(), True),
            (RankPoolConfig(), False),
            (RankPoolConfig(reg_c=3.0), True),
            (RankPoolConfig(reg_c=0.05), True),
        ],
        ids=["default", "unsmoothed", "tight", "loose"],
    )
    def test_matches_scipy_minimizer(self, n, config, smooth):
        minimize = pytest.importorskip("scipy.optimize").minimize
        frames = drifting_frames(n, seed=n)
        v = smooth_frames(frames) if smooth else frames
        d, trace = solve_rank_kernel(v, config)
        if smooth:
            assert np.array_equal(rank_pool(Segment("w", 0, frames), config), d)
        ref = minimize(
            objective_and_gradient, np.zeros(AU_COUNT), args=(v, config), jac=True,
            method="L-BFGS-B", options={"maxiter": 10000, "ftol": 1e-15, "gtol": 1e-12},
        )
        f, grad = objective_and_gradient(d, v, config)
        _, grad_ref = objective_and_gradient(ref.x, v, config)
        # f is 1-strongly convex, so each point lies within its gradient's
        # norm of the optimum.
        gap = np.linalg.norm(d - ref.x)
        assert gap <= np.linalg.norm(grad) + np.linalg.norm(grad_ref) + 1e-12
        assert gap <= 1e-6 * np.linalg.norm(ref.x)
        assert f <= ref.fun * (1.0 + 1e-12)
        assert trace[-1] == pytest.approx(f, rel=1e-12)

    @pytest.mark.parametrize("source", ["synth-5", "synth-7", "drifting"])
    def test_gradient_certificate_holds_within_a_few_iterations(self, source):
        frames = drifting_frames(150, seed=11) if source == "drifting" else synth_window(
            int(source[-1])
        )
        v = smooth_frames(frames)
        d, trace = solve_rank_kernel(v, CFG)
        assert len(trace) - 1 <= 10
        _, grad = objective_and_gradient(d, v, CFG)
        assert np.linalg.norm(grad) <= 1e-9 * certificate_scale(d, v, CFG)
        assert np.linalg.norm(grad) <= 1e-9 * np.linalg.norm(d)

    @pytest.mark.parametrize("scale", [1e-3, 1e3, 1e6])
    def test_scaled_frames_with_scaled_trade_off_give_the_scaled_kernel(self, scale):
        # Frames times s with reg_c / s**2 pose the same problem in other
        # units: the optimum is d / s and the objective f / s**2, reached in
        # as many iterations.
        v = smooth_frames(synth_window(5))
        d, trace = solve_rank_kernel(v, CFG)
        d_scaled, trace_scaled = solve_rank_kernel(v * scale, RankPoolConfig(reg_c=1.0 / scale**2))
        np.testing.assert_allclose(d_scaled * scale, d, rtol=0, atol=1e-12 * np.linalg.norm(d))
        assert len(trace_scaled) == len(trace)
        assert trace_scaled[-1] * scale**2 == pytest.approx(trace[-1], rel=1e-12)

    def test_frames_scaled_by_a_million_with_the_default_trade_off(self):
        # reg_c then weighs the hinge 1e12 times more than on unscaled frames,
        # and the Hessian's condition number is about 1e12. The solve still
        # stops before the cap, at the least-squares optimum of the pairs it
        # leaves active, which leaves the same pairs active: the optimum.
        v = smooth_frames(synth_window(5) * 1e6)
        d, trace = solve_rank_kernel(v, CFG)
        assert len(trace) - 1 < CFG.max_epochs
        assert (np.diff(trace) < 0).all()
        ia, ib = _pair_indices(len(v))
        diffs = v[ia] - v[ib]
        active = 1.0 - diffs @ d > 0
        # 0.5 ||x||^2 + reg_c ||1 - P x||^2 as one least-squares system,
        # solved without forming the normal equations.
        root = np.sqrt(2.0 * CFG.reg_c)
        system = np.vstack([root * diffs[active], np.eye(AU_COUNT)])
        target = np.concatenate([np.full(active.sum(), root), np.zeros(AU_COUNT)])
        d_active = np.linalg.lstsq(system, target, rcond=None)[0]
        assert np.array_equal(1.0 - diffs @ d_active > 0, active)
        np.testing.assert_allclose(d, d_active, rtol=0, atol=1e-10 * np.linalg.norm(d))

    def test_frames_scaled_by_a_thousandth_with_the_default_trade_off(self):
        # The hinge then weighs 1e6 times less than on unscaled frames: every
        # pair stays active and the optimum is the least-squares solution.
        v = smooth_frames(synth_window(5) * 1e-3)
        d, trace = solve_rank_kernel(v, CFG)
        assert len(trace) - 1 <= 10
        _, grad = objective_and_gradient(d, v, CFG)
        assert np.linalg.norm(grad) <= 1e-9 * certificate_scale(d, v, CFG)
        ia, ib = _pair_indices(len(v))
        diffs = v[ia] - v[ib]
        assert (1.0 - diffs @ d > 0).all()
        root = np.sqrt(2.0 * CFG.reg_c)
        system = np.vstack([root * diffs, np.eye(AU_COUNT)])
        target = np.concatenate([np.full(len(diffs), root), np.zeros(AU_COUNT)])
        d_ls = np.linalg.lstsq(system, target, rcond=None)[0]
        np.testing.assert_allclose(d, d_ls, rtol=0, atol=1e-9 * np.linalg.norm(d))

    @pytest.mark.parametrize("offset", [1e3, 1e6])
    def test_frames_far_from_the_origin(self, offset):
        # Every pair difference, and so f, ignores a common offset; the
        # solver centers the frames, so the offset costs no precision.
        v = smooth_frames(drifting_frames(150, seed=3))
        d, trace = solve_rank_kernel(v, CFG)
        d_far, trace_far = solve_rank_kernel(v + offset, CFG)
        np.testing.assert_allclose(d_far, d, rtol=0, atol=1e-9 * np.linalg.norm(d))
        assert len(trace_far) == len(trace)
        assert trace_far[-1] == pytest.approx(trace[-1], rel=1e-9)

    @pytest.mark.parametrize("n", [10, 57, 150])
    def test_one_moving_au_matches_the_one_dimensional_optimum(self, n):
        # With one AU moving, the optimum lies on its axis, at the x > 0 that
        # minimizes 0.5 x^2 + reg_c sum max(0, 1 - x g)^2 over the pair
        # gaps g. Its active pairs are those with g < 1 / x: every
        # g <= 0 and the k smallest positive gaps. The stationary point of
        # the piece with k active positive gaps is the optimum when it keeps
        # exactly those k active.
        rng = np.random.default_rng(n)
        frames = np.zeros((n, AU_COUNT))
        frames[:, 4] = np.cumsum(rng.integers(-1, 3, n)) * 0.5
        v = smooth_frames(frames)
        config = RankPoolConfig(reg_c=2.0)
        d, _ = solve_rank_kernel(v, config)
        ia, ib = _pair_indices(n)
        gaps = v[ia, 4] - v[ib, 4]
        positive = np.sort(gaps[gaps > 0])
        found = []
        for k in range(len(positive) + 1):
            active = np.concatenate([gaps[gaps <= 0], positive[:k]])
            x = 2.0 * config.reg_c * active.sum()
            x /= 1.0 + 2.0 * config.reg_c * float(active @ active)
            reach = 1.0 / x if x > 0 else np.inf
            if x > 0 and (k == 0 or positive[k - 1] < reach) and (
                k == len(positive) or positive[k] >= reach
            ):
                found.append(x)
        assert len(found) == 1
        assert np.count_nonzero(d) == 1
        assert d[4] == pytest.approx(found[0], rel=1e-12)

    def test_windows_of_a_clip_hold_the_certificate(self):
        clip = synth_corpus(SynthConfig(n_participants=2, frames_per_clip=600, seed=21)).clips[1]
        descs = pool_clip(clip, window=150, stride=150, config=CFG)
        assert descs.shape == (4, AU_COUNT)
        for row, start in zip(descs, range(0, 600, 150)):
            v = smooth_frames(clip.frames[start : start + 150])
            _, grad = objective_and_gradient(row, v, CFG)
            assert np.linalg.norm(grad) <= 1e-9 * certificate_scale(row, v, CFG)

    @pytest.mark.parametrize(
        "config",
        [RankPoolConfig(), RankPoolConfig(reg_c=3.0)],
        ids=["default", "tight"],
    )
    def test_constant_frames_keep_the_zero_kernel(self, config):
        d, trace = solve_rank_kernel(np.full((12, AU_COUNT), 3.0), config)
        assert np.array_equal(d, np.zeros(AU_COUNT))
        assert trace == [config.reg_c * 66]  # 66 pairs at the residual 1

    def test_trace_starts_at_the_zero_kernel_and_strictly_decreases(self):
        rng = np.random.default_rng(5)
        for n in (2, 7, 40, 150):
            config = RankPoolConfig(reg_c=2.0)
            _, trace = solve_rank_kernel(smooth_frames(rng.normal(size=(n, AU_COUNT))), config)
            assert trace[0] == config.reg_c * (n * (n - 1) // 2)
            assert (np.diff(trace) < 0).all()

    def test_max_epochs_caps_the_newton_iterations(self):
        v = smooth_frames(drifting_frames(150, seed=2))
        d, trace = solve_rank_kernel(v, CFG)
        assert len(trace) - 1 >= 3
        for cap in (1, 2):
            d_cap, trace_cap = solve_rank_kernel(v, replace(CFG, max_epochs=cap))
            assert trace_cap == trace[: cap + 1]
            assert not np.array_equal(d_cap, d)
        d_last, trace_last = solve_rank_kernel(v, replace(CFG, max_epochs=len(trace) - 1))
        assert np.array_equal(d_last, d) and trace_last == trace

    @pytest.mark.parametrize("two_c", [2e-3, 2.0, 2e3])
    def test_line_search_lands_where_the_slope_vanishes(self, two_c):
        # The line function 0.5 ||d + t p||^2 + reg_c sum max(0, r + t q)^2
        # has slope dp + t pp + 2 reg_c sum max(0, r + t q) q.
        rng = np.random.default_rng(int(two_c * 1000))
        for _ in range(200):
            m = int(rng.integers(1, 300))
            r, q = rng.normal(size=m), rng.normal(size=m) * 10.0 ** rng.uniform(-2, 2)
            pp = 10.0 ** rng.uniform(-3, 3)
            # p is the Newton direction of the pairs active at t = 0: the
            # slope of their linear piece vanishes at t = 1.
            on = r > 0
            dp = -pp - two_c * float((r[on] + q[on]) @ q[on])
            t = _line_search(r, q, dp, pp, two_c)
            hinge = np.maximum(r + t * q, 0.0)
            slope = dp + t * pp + two_c * float(hinge @ q)
            size = abs(dp) + t * pp + two_c * float(np.abs(hinge * q).sum())
            assert t > 0 and abs(slope) <= 1e-12 * size

    def test_pair_indices_shared_and_read_only(self):
        ia, ib = _pair_indices(150)
        assert _pair_indices(150)[0] is ia
        assert len(ia) == 150 * 149 // 2
        assert (ia > ib).all()
        assert not ia.flags.writeable and not ib.flags.writeable
        cells = _pair_cells(150)
        assert _pair_cells(150) is cells and not cells.flags.writeable
        assert np.array_equal(cells, ia * 150 + ib)


def reference_solve(frames, config):
    """The pair-list Newton solver as it was before the zero-kernel start:
    every iteration, the first included, builds the gradient from bincounts
    of the active pairs, the Hessian from their n x n adjacency in one
    matmul, and the step from ``_line_search``."""
    v = np.asarray(frames, dtype=np.float64)
    n, dim = v.shape
    w = v - v.mean(axis=0)
    w_abs = np.abs(w)
    ia, ib = _pair_indices(n)
    cells = _pair_cells(n)
    per_row = np.arange(n)
    reg_c = config.reg_c
    two_c = 2.0 * reg_c

    def drop(x):
        out = x[ib]
        out -= x.repeat(per_row)
        return out

    def evaluate(d):
        r = drop(w @ d)
        r += 1.0
        active = (r > 0).nonzero()[0]
        hinge = r[active]
        f = 0.5 * float(d @ d) + reg_c * float(np.einsum("i,i->", hinge, hinge))
        return r, active, hinge, f

    d = np.zeros(dim)
    r, active, hinge, f_curr = evaluate(d)
    trace = [f_curr]
    for _ in range(config.max_epochs):
        act_a, act_b = ia[active], ib[active]
        into_a = np.bincount(act_a, hinge, minlength=n)
        into_b = np.bincount(act_b, hinge, minlength=n)
        grad = d - two_c * (w.T @ (into_a - into_b))
        terms = np.linalg.norm(w_abs.T @ (into_a + into_b))
        if np.linalg.norm(grad) <= _GRAD_TOL * (np.linalg.norm(d) + two_c * terms):
            break
        adjacency = np.zeros(n * n)
        adjacency[cells[active]] = 1.0
        cross = w.T @ (adjacency.reshape(n, n) @ w)
        degree = np.bincount(act_a, minlength=n) + np.bincount(act_b, minlength=n)
        hessian = (w.T * degree) @ w - cross - cross.T
        hessian *= two_c
        hessian.flat[:: dim + 1] += 1.0
        p = np.linalg.solve(hessian, -grad)
        if not float(grad @ p) < 0.0:
            break
        t = _line_search(r, drop(w @ p), float(d @ p), float(p @ p), two_c)
        d_try = d + t * p
        r_try, active_try, hinge_try, f_try = evaluate(d_try)
        if not f_try < f_curr:
            break
        d, r, active, hinge, f_curr = d_try, r_try, active_try, hinge_try, f_try
        trace.append(f_curr)
    return d, trace


def zero_kernel_step(v, config):
    """``q`` and ``<p, p>`` of the Newton direction ``p`` at the zero kernel,
    from explicit pair differences: every pair active at the residual 1."""
    ia, ib = _pair_indices(len(v))
    diffs = v[ia] - v[ib]
    two_c = 2.0 * config.reg_c
    grad = -two_c * diffs.sum(axis=0)
    p = np.linalg.solve(np.eye(v.shape[1]) + two_c * diffs.T @ diffs, -grad)
    return -(diffs @ p), float(p @ p)


def newton_pp(q, two_c):
    """The ``<p, p>`` that makes ``q`` a Newton direction from the zero kernel:
    the slope of the all-active piece, ``pp + two_c * (sum q + sum q**2)`` at
    ``t = 1``, vanishes."""
    return -two_c * (float(q.sum()) + float(q @ q))


def assert_same_ray_minimum(q, pp, two_c):
    t = _ray_search(q, pp, two_c)
    t_ref = _line_search(np.ones(len(q)), q, 0.0, pp, two_c)
    hinge = np.maximum(1.0 + t * q, 0.0)
    slope = t * pp + two_c * float(hinge @ q)
    size = t * pp + two_c * float(np.abs(hinge * q).sum())
    assert t > 0 and abs(slope) <= 1e-12 * size
    assert t == pytest.approx(t_ref, rel=1e-12)
    return t


CONFIGS = [
    (RankPoolConfig(), True),
    (RankPoolConfig(), False),
    (RankPoolConfig(reg_c=3.0), True),
    (RankPoolConfig(reg_c=0.05), True),
]


class TestZeroKernelStart:
    """The first Newton step, taken from the zero kernel in closed form with
    an exact ray search, leaves the pair-list solver's result as it was."""

    @pytest.mark.parametrize("n", [2, 3, 10, 150, 300])
    @pytest.mark.parametrize(
        "config, smooth", CONFIGS, ids=["default", "unsmoothed", "tight", "loose"]
    )
    def test_matches_the_pair_list_solver(self, n, config, smooth):
        frames = drifting_frames(n, seed=n + 1)
        v = smooth_frames(frames) if smooth else frames
        d, trace = solve_rank_kernel(v, config)
        d_ref, trace_ref = reference_solve(v, config)
        assert len(trace) == len(trace_ref)
        np.testing.assert_allclose(d, d_ref, rtol=0, atol=1e-12 * np.linalg.norm(d_ref))
        # The iterates in between are no optimum, so their f differ to first
        # order in rounding; at both ends they agree.
        assert trace[0] == trace_ref[0]
        assert trace[-1] == pytest.approx(trace_ref[-1], rel=1e-12)

    def test_windows_of_synthetic_clips_match_the_pair_list_solver(self):
        corpus = synth_corpus(SynthConfig(n_participants=4, frames_per_clip=900, seed=9))
        for clip in corpus.clips:
            for start in range(0, 900, 150):
                v = smooth_frames(clip.frames[start : start + 150])
                d, trace = solve_rank_kernel(v, CFG)
                d_ref, trace_ref = reference_solve(v, CFG)
                assert len(trace) == len(trace_ref)
                assert np.linalg.norm(d - d_ref) <= 1e-12 * np.linalg.norm(d_ref)

    @pytest.mark.parametrize("n", [2, 3, 10, 150])
    @pytest.mark.parametrize(
        "config, smooth", CONFIGS, ids=["default", "unsmoothed", "tight", "loose"]
    )
    def test_ray_search_matches_the_line_search_on_windows(self, n, config, smooth):
        frames = drifting_frames(n, seed=n + 2)
        v = smooth_frames(frames) if smooth else frames
        q, pp = zero_kernel_step(v, config)
        assert_same_ray_minimum(q, pp, 2.0 * config.reg_c)

    @pytest.mark.parametrize("two_c", [2e-3, 2.0, 2e3])
    def test_ray_search_matches_the_line_search_on_random_directions(self, two_c):
        rng = np.random.default_rng(int(two_c * 1000))
        checked = 0
        while checked < 100:
            q = rng.normal(-1.0, 1.0, size=int(rng.integers(1, 3000)))
            q *= 10.0 ** rng.uniform(-2, 2)
            pp = newton_pp(q, two_c)
            if pp > 0:
                assert_same_ray_minimum(q, pp, two_c)
                checked += 1

    def test_ray_search_with_tied_q(self):
        # Pairs with equal q leave together, at one end; the minimum lies
        # past some such ends, or before the first.
        rng = np.random.default_rng(3)
        past_an_end = 0
        for _ in range(200):
            q = rng.choice(
                [-2.0, -1.0, -0.25, 0.0, 0.25], size=int(rng.integers(2, 60)),
                p=[0.04, 0.06, 0.7, 0.1, 0.1],
            )
            pp = newton_pp(q, 2.0)
            if pp > 0:
                t = assert_same_ray_minimum(q, pp, 2.0)
                past_an_end += t > -1.0 / q.min()
        assert past_an_end >= 20
        # 300 pairs that leave together at t = 2/3 span three blocks of the
        # search's first scan, and the minimum lies past them.
        q = np.array([-1.5] * 300 + [-0.1] * 4000)
        t = assert_same_ray_minimum(q, newton_pp(q, 2.0), 2.0)
        assert 2.0 / 3.0 < t < 10.0

    def test_ray_search_with_a_single_pair(self):
        # n = 2: the pair leaves at -1 / q, after the Newton step's t = 1.
        for q0 in (-0.9, -0.5, -1e-3):
            q = np.array([q0])
            t = assert_same_ray_minimum(q, newton_pp(q, 2.0), 2.0)
            assert t == pytest.approx(1.0, rel=1e-12)

    def test_ray_search_when_no_pair_leaves_before_the_newton_step(self):
        # Pairs with q >= 0 never leave and those in (-1, 0) leave after
        # t = 1, so the all-active piece holds the minimum: the Newton step.
        q = np.array([-0.5] * 10 + [0.0] * 3 + [0.1] * 5)
        pp = newton_pp(q, 2.0)
        assert pp > 0
        assert assert_same_ray_minimum(q, pp, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_ray_search_when_every_q_is_non_negative(self):
        # No pair ever leaves, and the slope at 0, 2 reg_c sum(q), is
        # not negative: no such direction descends from the zero kernel, so
        # the solver never searches it. The search then gives the stationary
        # point of the one piece, at t <= 0, which lowers nothing.
        q = np.array([0.0, 0.5, 2.0, 2.0])
        t = _ray_search(q, 3.0, 2.0)
        assert t == pytest.approx(-2.0 * 4.5 / (3.0 + 2.0 * 8.25), rel=1e-15)
        assert t <= 0.0

    @pytest.mark.parametrize("seed", range(1, 13))
    def test_frames_scaled_by_a_million_end_on_the_optimum_of_their_active_pairs(self, seed):
        # Near the optimum of this regime a full Newton step can fail the
        # no-decrease comparison on rounding alone; the pair-list solver then
        # stopped up to 4e-8 (relative) short of the optimum on seeds 1, 9 and
        # 11. The solve keeps such a step, as it lands on the optimum.
        v = smooth_frames(synth_window(seed) * 1e6)
        d, trace = solve_rank_kernel(v, CFG)
        assert len(trace) - 1 < CFG.max_epochs
        ia, ib = _pair_indices(len(v))
        diffs = v[ia] - v[ib]
        active = 1.0 - diffs @ d > 0
        root = np.sqrt(2.0 * CFG.reg_c)
        system = np.vstack([root * diffs[active], np.eye(AU_COUNT)])
        target = np.concatenate([np.full(active.sum(), root), np.zeros(AU_COUNT)])
        d_active = np.linalg.lstsq(system, target, rcond=None)[0]
        assert np.array_equal(1.0 - diffs @ d_active > 0, active)
        np.testing.assert_allclose(d, d_active, rtol=0, atol=1e-10 * np.linalg.norm(d))
        assert objective_and_gradient(d, v, CFG)[0] == pytest.approx(trace[-1], rel=1e-12)


class TestSerialProducts:
    @pytest.mark.parametrize("n", [150, 176, 200, 300, 451])
    def test_blocked_product_matches_one_call(self, n):
        rng = np.random.default_rng(n)
        a = np.tril((rng.random((n, n)) < 0.5).astype(float), -1)
        b = rng.normal(size=(n, AU_COUNT))
        np.testing.assert_allclose(_serial_matmul(a, b), a @ b, rtol=1e-13, atol=1e-13)

    def test_blocks_stay_under_the_threading_threshold(self):
        assert _serial_rows(150 * AU_COUNT) >= 150  # the default window: one call
        for n in (176, 300, 450, 1000):
            rows = _serial_rows(n * AU_COUNT)
            assert rows < n and rows * n * AU_COUNT < _SERIAL_MACS
        assert _serial_rows(_SERIAL_MACS) == 1
