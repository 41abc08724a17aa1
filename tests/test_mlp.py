import dataclasses

import numpy as np
import pytest

from aufusion.evaluate import segment_votes
from aufusion.ingest import AU_COUNT
from aufusion.mlp import (
    MlpModel,
    SingleClassData,
    TrainConfig,
    loss_and_gradients,
    predict_probs,
    train_mlp,
)


def two_clusters(n_per=40, gap=2.0, seed=1):
    rng = np.random.default_rng(seed)
    a = rng.normal(-gap / 2, 0.4, (n_per, AU_COUNT))
    b = rng.normal(gap / 2, 0.4, (n_per, AU_COUNT))
    x = np.vstack([a, b])
    y = np.array([0] * n_per + [1] * n_per)
    return x, y


def as_descriptors(*vectors):
    return np.array(vectors, dtype=np.float64)


def zero_model(dim=AU_COUNT, h1=4, h2=3, bias=0.0):
    return MlpModel(
        w1=np.zeros((dim, h1)),
        b1=np.zeros(h1),
        w2=np.zeros((h1, h2)),
        b2=np.zeros(h2),
        w3=np.zeros((h2, 1)),
        b3=np.array([bias]),
        input_mean=np.zeros(dim),
        input_std=np.ones(dim),
    )


class TestTraining:
    def test_separable_clusters_fit_perfectly(self):
        x, y = two_clusters()
        model = train_mlp(x, y, TrainConfig(epochs=200, seed=3))
        probs = predict_probs(model, x)
        assert (((probs > 0.5).astype(int)) == y).mean() == 1.0

    def test_identical_inputs_converge_to_class_prior(self):
        x = np.ones((40, AU_COUNT))
        y = np.array([1] * 12 + [0] * 28)
        model = train_mlp(x, y, TrainConfig(epochs=600, dropout=0.0, seed=5))
        [prob] = predict_probs(model, x[0])
        assert prob == pytest.approx(12 / 40, abs=0.02)

    @pytest.mark.parametrize(
        "field", ["hidden1", "hidden2", "dropout", "learning_rate", "epochs", "batch_size"]
    )
    def test_nan_setting_rejected(self, field):
        with pytest.raises(ValueError):
            TrainConfig(**{field: float("nan")})

    @pytest.mark.parametrize("field", ["hidden1", "hidden2", "epochs", "batch_size", "seed"])
    @pytest.mark.parametrize("value", [4.5, 4.0, True], ids=["fraction", "float", "bool"])
    def test_count_must_be_an_integer(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, found {value!r}$"):
            TrainConfig(**{field: value})

    def test_single_class_rejected(self):
        x, _ = two_clusters(n_per=5)
        with pytest.raises(SingleClassData):
            train_mlp(x, np.ones(10), TrainConfig())

    def test_deterministic_given_seed(self):
        x, y = two_clusters(seed=7)
        config = TrainConfig(epochs=20, seed=11)
        a = train_mlp(x, y, config)
        b = train_mlp(x, y, config)
        for name, pa in a.params().items():
            np.testing.assert_array_equal(pa, b.params()[name])

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_matches_plain_sgd_loop(self, dropout):
        # Independent reference: a minimal SGD loop sharing only the seed. It
        # draws no masks at rate 0, so it consumes the stream of a plain
        # no-dropout loop, and otherwise one draw per mask.
        x, y = two_clusters(n_per=12, seed=13)
        config = TrainConfig(hidden1=5, hidden2=4, dropout=dropout, epochs=3, seed=17)
        model = train_mlp(x, y, config)

        mean, std = x.mean(axis=0), x.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        xn = (x - mean) / std
        rng = np.random.default_rng(config.seed)
        dim = x.shape[1]
        params = {
            "w1": rng.normal(0.0, np.sqrt(2.0 / dim), (dim, 5)),
            "b1": np.zeros(5),
            "w2": rng.normal(0.0, np.sqrt(2.0 / 5), (5, 4)),
            "b2": np.zeros(4),
            "w3": rng.normal(0.0, np.sqrt(2.0 / 4), (4, 1)),
            "b3": np.zeros(1),
        }
        yf = y.astype(float)
        keep = 1.0 - dropout
        for _ in range(config.epochs):
            order = rng.permutation(len(y))
            for start in range(0, len(y), config.batch_size):
                idx = order[start : start + config.batch_size]
                xb, yb = xn[idx], yf[idx]
                m1, m2 = np.ones((len(idx), 5)), np.ones((len(idx), 4))
                if dropout > 0.0:
                    m1 = (rng.random((len(idx), 5)) < keep) / keep
                    m2 = (rng.random((len(idx), 4)) < keep) / keep
                z1 = xb @ params["w1"] + params["b1"]
                a1 = np.maximum(z1, 0.0) * m1
                z2 = a1 @ params["w2"] + params["b2"]
                a2 = np.maximum(z2, 0.0) * m2
                z3 = a2 @ params["w3"] + params["b3"]
                z = z3[:, 0]
                p = np.empty_like(z)  # the stable logistic: exp of -|z| only
                p[z >= 0] = 1.0 / (1.0 + np.exp(-z[z >= 0]))
                p[z < 0] = np.exp(z[z < 0]) / (1.0 + np.exp(z[z < 0]))
                p = np.clip(p, 1e-15, 1 - 1e-15)
                dz3 = ((p - yb) / len(idx))[:, None]
                gw3, gb3 = a2.T @ dz3, dz3.sum(axis=0)
                dz2 = (dz3 @ params["w3"].T) * m2 * (z2 > 0)
                gw2, gb2 = a1.T @ dz2, dz2.sum(axis=0)
                dz1 = (dz2 @ params["w2"].T) * m1 * (z1 > 0)
                gw1, gb1 = xb.T @ dz1, dz1.sum(axis=0)
                for name, grad in (
                    ("w1", gw1), ("b1", gb1), ("w2", gw2),
                    ("b2", gb2), ("w3", gw3), ("b3", gb3),
                ):
                    params[name] -= config.learning_rate * grad
        for name, value in params.items():
            np.testing.assert_array_equal(model.params()[name], value)

    def test_dropout_training_still_learns(self):
        x, y = two_clusters(gap=3.0, seed=19)
        model = train_mlp(x, y, TrainConfig(epochs=300, dropout=0.5, seed=23))
        probs = predict_probs(model, x)
        assert (((probs > 0.5).astype(int)) == y).mean() >= 0.95


class TestGradients:
    def test_analytic_matches_central_differences(self):
        x, y = two_clusters(n_per=5, seed=29)
        model = train_mlp(x, y, TrainConfig(hidden1=6, hidden2=4, epochs=2, seed=31))
        xb, yb = x[:10], y[:10]
        _, grads = loss_and_gradients(model, xb, yb)
        eps = 1e-5
        worst = 0.0
        for name, grad in grads.items():
            base = getattr(model, name)
            flat = base.ravel()
            for i in range(flat.size):
                up, dn = base.copy(), base.copy()
                up.ravel()[i] += eps
                dn.ravel()[i] -= eps
                loss_up, _ = loss_and_gradients(
                    dataclasses.replace(model, **{name: up}), xb, yb
                )
                loss_dn, _ = loss_and_gradients(
                    dataclasses.replace(model, **{name: dn}), xb, yb
                )
                numeric = (loss_up - loss_dn) / (2 * eps)
                analytic = grad.ravel()[i]
                denom = max(1e-8, abs(numeric) + abs(analytic))
                worst = max(worst, abs(numeric - analytic) / denom)
        assert worst < 1e-4


class TestInference:
    def test_zero_weights_give_half_and_vote_zero(self):
        [prob] = predict_probs(zero_model(), np.zeros(AU_COUNT))
        assert prob == 0.5
        votes = segment_votes(zero_model(), as_descriptors(np.zeros(AU_COUNT)))
        assert votes == [0]  # strict-inequality rule

    def test_bias_shifts_probability(self):
        [prob] = predict_probs(zero_model(bias=2.0), np.zeros(AU_COUNT))
        assert prob == pytest.approx(1.0 / (1.0 + np.exp(-2.0)))
        votes = segment_votes(zero_model(bias=2.0), as_descriptors(np.zeros(AU_COUNT)))
        assert votes == [1]

    def test_repeated_calls_identical(self):
        x, y = two_clusters(seed=37)
        model = train_mlp(x, y, TrainConfig(epochs=10, seed=41))
        probs = [predict_probs(model, x[3])[0] for _ in range(5)]
        assert len(set(probs)) == 1

    def test_probability_strictly_inside_unit_interval(self):
        model = zero_model(bias=80.0)  # sigmoid saturates without a clamp
        [prob] = predict_probs(model, np.zeros(AU_COUNT))
        assert 0.0 < prob < 1.0

    def test_held_out_accuracy_on_separable_clusters(self):
        x, y = two_clusters(n_per=60, seed=43)
        rng = np.random.default_rng(47)
        order = rng.permutation(len(y))
        train_idx, test_idx = order[:80], order[80:]
        model = train_mlp(x[train_idx], y[train_idx], TrainConfig(epochs=200, seed=53))
        probs = predict_probs(model, x[test_idx])
        acc = (((probs > 0.5).astype(int)) == y[test_idx]).mean()
        assert acc >= 0.95


class TestInputScale:
    """The z-normalization cancels a common scale of the descriptors, which
    is why rank pooling offers no margin setting: margin m scales every
    descriptor by m."""

    def _fit(self, scale):
        x, y = two_clusters(n_per=30, gap=0.5, seed=59)
        model = train_mlp(x * scale, y, TrainConfig(epochs=40, seed=61))
        return model, predict_probs(model, x * scale)

    def test_a_power_of_two_changes_no_weight_and_no_probability(self):
        model, probs = self._fit(1.0)
        doubled, probs_doubled = self._fit(2.0)
        for name, value in model.params().items():
            np.testing.assert_array_equal(doubled.params()[name], value)
        np.testing.assert_array_equal(doubled.input_mean, 2.0 * model.input_mean)
        np.testing.assert_array_equal(doubled.input_std, 2.0 * model.input_std)
        np.testing.assert_array_equal(probs_doubled, probs)

    def test_any_scale_keeps_every_vote(self):
        _, probs = self._fit(1.0)
        _, probs_scaled = self._fit(0.3)
        assert 0.0 < (probs > 0.5).mean() < 1.0
        np.testing.assert_array_equal(probs_scaled > 0.5, probs > 0.5)
        np.testing.assert_allclose(probs_scaled, probs, rtol=0, atol=1e-9)
