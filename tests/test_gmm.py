import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from aufusion import gmm
from aufusion.gmm import (
    EmConfig,
    GmmModel,
    density,
    fit_em,
    likelihood_ratio_decision,
    log_likelihood,
    score_pair,
)
from aufusion.ingest import _SERIAL_MACS, AU_COUNT, AUClip, Label, SynthConfig, synth_corpus


def random_model(rng, k, dim):
    weights = rng.uniform(0.2, 1.0, k)
    weights /= weights.sum()
    return GmmModel(
        weights=weights,
        means=rng.normal(0.0, 2.0, (k, dim)),
        variances=rng.uniform(0.3, 2.5, (k, dim)),
    )


def brute_force_density(model, x):
    """Scalar-by-scalar mixture density; the independent oracle."""
    total = 0.0
    for w, mus, vs in zip(model.weights, model.means, model.variances):
        comp = 1.0
        for xi, mu, v in zip(x, mus, vs):
            comp *= math.exp(-((xi - mu) ** 2) / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)
        total += w * comp
    return total


def extended_log_density(model, x):
    """Log mixture density at one point, evaluated at 50 decimal digits."""
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for w, mus, vs in zip(model.weights, model.means, model.variances):
            term = mpmath.mpf(float(w))
            for xi, mu, v in zip(x, mus, vs):
                term *= mpmath.exp(
                    -((mpmath.mpf(float(xi)) - float(mu)) ** 2) / (2 * float(v))
                ) / mpmath.sqrt(2 * mpmath.pi * float(v))
            total += term
        return float(mpmath.log(total))


def reference_em(frames, config):
    """EM on the expanded form ``x^2/var - 2*x*mu/var + mu^2/var``, as fitted
    before the centered kernel; each restart's ``(weights, means,
    variances)`` and log-likelihood trace."""
    m, dim = frames.shape
    k = config.n_components
    floor = config.variance_floor

    def evaluate(weights, means, variances):
        inv_var = 1.0 / variances
        const = (
            np.log(weights)
            - 0.5 * (dim * math.log(2.0 * math.pi) + np.log(variances).sum(axis=1))
            - 0.5 * np.einsum("nd,nd,nd->n", means, means, inv_var)
        )
        joint = const - (frames**2 @ (0.5 * inv_var).T - frames @ (means * inv_var).T)
        top = joint.max(axis=1, keepdims=True)
        row_ll = (top + np.log(np.exp(joint - top).sum(axis=1, keepdims=True))).ravel()
        return float(row_ll.sum()), np.exp(joint - row_ll[:, None])

    runs = []
    for run_index in range(config.n_init):
        rng = np.random.default_rng([config.seed, run_index])
        weights = np.full(k, 1.0 / k)
        means = gmm._kmeanspp_means(frames, k, rng)
        variances = np.tile(np.maximum(frames.var(axis=0), floor), (k, 1))
        ll, resp = evaluate(weights, means, variances)
        trace = [ll]
        for _ in range(config.max_iters):
            nk = resp.sum(axis=0)
            alive = nk > 0
            means, variances = means.copy(), variances.copy()
            means[alive] = (resp.T[alive] @ frames) / nk[alive, None]
            second = (resp.T[alive] @ frames**2) / nk[alive, None]
            variances[alive] = np.maximum(second - means[alive] ** 2, floor)
            weights = np.where(alive, nk / m, np.finfo(np.float64).tiny)
            weights = weights / weights.sum()
            new_ll, resp = evaluate(weights, means, variances)
            trace.append(new_ll)
            converged = new_ll - ll < config.tol * abs(ll)
            ll = new_ll
            if converged:
                break
        runs.append(((weights, means, variances), trace))
    return runs


def assert_close(actual, expected, rel):
    """Elementwise within ``rel`` of the largest magnitude in ``expected``."""
    expected = np.asarray(expected)
    np.testing.assert_allclose(actual, expected, rtol=rel, atol=rel * np.abs(expected).max())


class TestDensity:
    def test_standard_normal_at_mean(self):
        model = GmmModel(np.ones(1), np.zeros((1, AU_COUNT)), np.ones((1, AU_COUNT)))
        expected = (2.0 * math.pi) ** (-AU_COUNT / 2.0)
        assert density(model, np.zeros(AU_COUNT)) == pytest.approx(expected, rel=1e-12)

    def test_identical_components_collapse(self):
        mean = np.full((1, 4), 0.7)
        var = np.full((1, 4), 1.3)
        single = GmmModel(np.ones(1), mean, var)
        double = GmmModel(
            np.array([0.5, 0.5]), np.vstack([mean, mean]), np.vstack([var, var])
        )
        x = np.array([0.1, -0.4, 2.0, 0.9])
        assert density(double, x) == pytest.approx(density(single, x), rel=1e-14)

    def test_matches_brute_force_summation(self):
        rng = np.random.default_rng(123)
        model = random_model(rng, k=3, dim=AU_COUNT)
        for _ in range(20):
            x = rng.normal(0.0, 2.0, AU_COUNT)
            expected = brute_force_density(model, x)
            assert density(model, x) == pytest.approx(expected, rel=1e-12)

    def test_positive(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, k=2, dim=5)
        assert density(model, rng.normal(size=5)) > 0.0

    def test_one_dimensional_density_integrates_to_one(self):
        rng = np.random.default_rng(17)
        model = random_model(rng, k=3, dim=1)
        total, _ = quad(lambda x: density(model, np.array([x])), -20.0, 20.0, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_far_offset_small_variance_matches_extended_precision(self):
        # Inputs sit 1e4 from the origin with variance 1e-4: an uncentered
        # expansion of (x - mu)^2 / var loses about 1e-3 here.
        rng = np.random.default_rng(11)
        weights = rng.uniform(0.2, 1.0, 3)
        model = GmmModel(
            weights / weights.sum(),
            1e4 + rng.normal(0.0, 0.01, (3, AU_COUNT)),
            np.full((3, AU_COUNT), 1e-4),
        )
        for _ in range(10):
            x = 1e4 + rng.normal(0.0, 0.01, AU_COUNT)
            expected = extended_log_density(model, x)
            assert log_likelihood(model, x[None, :]) == pytest.approx(expected, rel=1e-10)


class TestLogLikelihood:
    def test_single_frame_equals_log_density(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, k=2, dim=6)
        x = rng.normal(size=6)
        assert log_likelihood(model, x[None, :]) == pytest.approx(
            math.log(density(model, x)), rel=1e-12
        )

    def test_duplicated_frames_double_exactly(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, k=3, dim=5)
        frames = rng.normal(size=(9, 5))
        doubled = np.vstack([frames, frames])
        assert log_likelihood(model, doubled) == 2.0 * log_likelihood(model, frames)

    def test_additive_over_concatenation(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, k=2, dim=4)
        a = rng.normal(size=(11, 4))
        b = rng.normal(size=(6, 4))
        whole = log_likelihood(model, np.vstack([a, b]))
        parts = log_likelihood(model, a) + log_likelihood(model, b)
        assert whole == pytest.approx(parts, rel=1e-15)

    def test_against_extended_precision_product(self):
        # ln of the plain density product, evaluated at 60 decimal digits.
        rng = np.random.default_rng(10)
        model = random_model(rng, k=3, dim=4)
        frames = rng.normal(0.0, 1.5, (100, 4))
        with mpmath.workdps(60):
            product = mpmath.mpf(1)
            for x in frames:
                comp_sum = mpmath.mpf(0)
                for w, mus, vs in zip(model.weights, model.means, model.variances):
                    term = mpmath.mpf(float(w))
                    for xi, mu, v in zip(x, mus, vs):
                        term *= mpmath.exp(
                            -((mpmath.mpf(float(xi)) - float(mu)) ** 2) / (2 * float(v))
                        ) / mpmath.sqrt(2 * mpmath.pi * float(v))
                    comp_sum += term
                product *= comp_sum
            expected = float(mpmath.log(product))
        assert log_likelihood(model, frames) == pytest.approx(expected, rel=1e-8)

    def test_chunks_add_up_to_per_frame_densities(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, k=3, dim=4)
        frames = rng.normal(size=(2 * gmm._CHUNK + 7, 4))
        per_frame = math.fsum(log_likelihood(model, x[None, :]) for x in frames)
        assert log_likelihood(model, frames) == pytest.approx(per_frame, rel=1e-12)

    def test_chunks_shrink_above_32_components(self):
        # Up to 32 components a pass keeps 512 frames; above, each chunk
        # matmul stays under the multiply-adds OpenBLAS threads at.
        assert gmm._chunk_frames(32, 17) == gmm._chunk_frames(3, 4) == gmm._CHUNK == 512
        for k in (33, 48, 64, 128, 2048):
            chunk = gmm._chunk_frames(k, 17)
            assert 1 <= chunk < gmm._CHUNK and k * 34 * chunk < _SERIAL_MACS
        rng = np.random.default_rng(12)
        model = random_model(rng, k=64, dim=17)
        frames = rng.normal(size=(2 * gmm._chunk_frames(64, 17) + 7, 17))
        per_frame = math.fsum(log_likelihood(model, x[None, :]) for x in frames)
        assert log_likelihood(model, frames) == pytest.approx(per_frame, rel=1e-12)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_frame_rejected(self, value):
        model = GmmModel([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
        with pytest.raises(ValueError, match="frames must be finite"):
            log_likelihood(model, [[0.5, 0.0], [value, 0.0]])

    def test_no_underflow_on_long_far_clips(self):
        model = GmmModel(np.ones(1), np.zeros((1, 3)), np.full((1, 3), 0.1))
        frames = np.full((5000, 3), 12.0)  # per-frame density underflows to 0 in float64
        ll = log_likelihood(model, frames)
        assert np.isfinite(ll) and ll < -1e6


class TestFitEm:
    def test_single_component_moment_matching(self):
        rng = np.random.default_rng(21)
        frames = rng.normal(1.5, 0.8, (4000, 6))
        model = fit_em(frames, EmConfig(n_components=1, seed=0, n_init=1))
        sem = 0.8 / math.sqrt(frames.shape[0])
        assert (np.abs(model.means[0] - frames.mean(axis=0)) < 3 * sem).all()
        assert np.allclose(model.variances[0], frames.var(axis=0), rtol=0.1)

    def test_two_separated_clusters_recovered(self):
        rng = np.random.default_rng(22)
        a = rng.normal(0.0, 0.5, (1200, 5))
        b = rng.normal(5.0, 0.5, (800, 5))  # 10 sigma apart
        frames = np.vstack([a, b])
        model = fit_em(frames, EmConfig(n_components=2, seed=1, n_init=2))
        order = np.argsort(model.means[:, 0])
        assert np.abs(model.means[order[0]] - a.mean(axis=0)).max() < 0.1
        assert np.abs(model.means[order[1]] - b.mean(axis=0)).max() < 0.1
        np.testing.assert_allclose(
            np.sort(model.weights), [800 / 2000, 1200 / 2000], atol=0.05
        )

    def test_training_log_likelihood_monotone(self):
        rng = np.random.default_rng(23)
        frames = rng.normal(size=(600, 8)) + rng.choice([0.0, 4.0], size=(600, 1))
        _, traces = fit_em(
            frames, EmConfig(n_components=4, seed=5, n_init=3), return_trace=True
        )
        for trace in traces:
            diffs = np.diff(trace)
            assert (diffs >= -1e-7).all()

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(24)
        frames = rng.normal(size=(300, 4))
        model = fit_em(frames, EmConfig(n_components=8, seed=2, n_init=1))
        assert abs(model.weights.sum() - 1.0) <= 1e-9
        assert (model.weights > 0).all()

    def test_variances_floored(self):
        frames = np.zeros((50, 3))
        frames[:, 0] = np.linspace(0, 1, 50)  # two columns constant
        model = fit_em(frames, EmConfig(n_components=2, seed=0, n_init=1))
        assert (model.variances >= 1e-4).all()

    @pytest.mark.parametrize("floor", [0.0, -1e-4])
    def test_floor_must_be_positive(self, floor):
        with pytest.raises(ValueError, match="variance_floor must be positive"):
            EmConfig(variance_floor=floor)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(25)
        frames = rng.normal(size=(400, 5))
        config = EmConfig(n_components=6, seed=9, n_init=2)
        a = fit_em(frames, config)
        b = fit_em(frames, config)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.variances, b.variances)

    def test_requires_enough_frames(self):
        with pytest.raises(ValueError):
            fit_em(np.zeros((3, 2)), EmConfig(n_components=4))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_parameters_raise(self):
        # Finite frames whose variance overflows float64.
        frames = np.random.default_rng(26).normal(0.0, 1e160, (50, 3))
        with pytest.raises(ValueError, match="parameters must be finite"):
            fit_em(frames, EmConfig(n_components=1, n_init=1))

    @pytest.mark.parametrize(
        "field", ["n_components", "max_iters", "tol", "variance_floor", "n_init"]
    )
    def test_nan_setting_rejected(self, field):
        with pytest.raises(ValueError):
            EmConfig(**{field: math.nan})

    @pytest.mark.parametrize("field", ["n_components", "max_iters", "seed", "n_init"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True], ids=["fraction", "float", "bool"])
    def test_count_must_be_an_integer(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, found {value!r}$"):
            EmConfig(**{field: value})


class TestCenteredEm:
    """``fit_em`` against ``reference_em``: same iterations, same parameters."""

    def check(self, frames, config):
        model, traces = fit_em(frames, config, return_trace=True)
        runs = reference_em(frames, config)
        assert [len(t) for t in traces] == [len(t) for _, t in runs]
        for trace, (_, expected) in zip(traces, runs):
            assert_close(trace, expected, rel=1e-9)
        # Restarts that reach one optimum can tie to the last bit, so the
        # winner is compared with the same restart of the reference.
        best = int(np.argmax([trace[-1] for trace in traces]))
        for got, expected in zip((model.weights, model.means, model.variances), runs[best][0]):
            assert_close(got, expected, rel=1e-9)
        return model

    def test_benchmark_size(self):
        corpus = synth_corpus(SynthConfig(n_participants=6, frames_per_clip=500, seed=1))
        frames = np.vstack([c.frames for c in corpus.clips if c.label is Label.DEPRESSED])
        self.check(frames[:1000], EmConfig())

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_component_counts(self, k):
        rng = np.random.default_rng(27)
        frames = rng.normal(size=(600, 5)) + rng.choice([0.0, 4.0], size=(600, 1))
        self.check(frames, EmConfig(n_components=k, seed=5, n_init=2))

    def test_block_is_c_ordered(self):
        # On a frame-major block OpenBLAS runs each chunk's matmul
        # multi-threaded, which stalls parallel leave-one-out workers.
        frames = np.random.default_rng(29).normal(size=(700, 5))
        assert gmm._centered_block(frames, frames.mean(axis=0)).flags.c_contiguous

    def test_dead_component_keeps_its_parameters(self, monkeypatch):
        # One component starts so far from every frame that it never takes
        # any responsibility mass.
        rng = np.random.default_rng(28)
        frames = rng.normal(size=(300, 4))
        start = np.vstack([frames[:3], np.full((1, 4), 1e3)])
        monkeypatch.setattr(gmm, "_kmeanspp_means", lambda frames, k, rng: start.copy())
        model = self.check(frames, EmConfig(n_components=4, n_init=1))
        assert model.weights[3] < 1e-300
        np.testing.assert_allclose(model.means[3], start[3], rtol=1e-15)
        np.testing.assert_allclose(model.variances[3], frames.var(axis=0), rtol=1e-15)


class TestScorePair:
    def _clip(self, frames):
        return AUClip("p", frames)

    def test_identical_models_tie_to_nondepressed(self):
        rng = np.random.default_rng(31)
        model = random_model(rng, k=2, dim=AU_COUNT)
        clip = self._clip(rng.normal(size=(20, AU_COUNT)))
        ll_dep, ll_ndep = score_pair(model, model, clip)
        assert ll_dep == ll_ndep
        assert likelihood_ratio_decision(ll_dep, ll_ndep) is Label.NONDEPRESSED

    def test_sample_from_own_model_scores_higher(self):
        rng = np.random.default_rng(32)
        dep = GmmModel(
            np.ones(1), np.full((1, AU_COUNT), 3.0), np.full((1, AU_COUNT), 0.25)
        )
        ndep = GmmModel(
            np.ones(1), np.zeros((1, AU_COUNT)), np.full((1, AU_COUNT), 0.25)
        )
        frames = rng.normal(3.0, 0.5, (200, AU_COUNT))
        ll_dep, ll_ndep = score_pair(dep, ndep, self._clip(frames))
        assert ll_dep > ll_ndep
        assert likelihood_ratio_decision(ll_dep, ll_ndep) is Label.DEPRESSED


class TestModelInvariants:
    def test_model_invariants_enforced(self):
        with pytest.raises(ValueError):
            GmmModel(np.array([0.6, 0.6]), np.zeros((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            GmmModel(np.array([1.0]), np.zeros((1, 2)), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="parameters must be finite"):
            GmmModel(np.array([1.0]), np.full((1, 2), np.nan), np.ones((1, 2)))
