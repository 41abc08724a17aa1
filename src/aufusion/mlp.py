"""Per-segment depression classifier: a small feed-forward network.

Architecture is 17 -> H1 -> H2 -> 1 with rectifier hidden units, a logistic
output, and inverted dropout (surviving activations scaled by 1/(1-rate))
applied after each hidden activation during training only. Inference is
the training pass with unit masks, so one forward pass serves both. Inputs
are z-normalized with statistics computed from the training set and stored
in the model, so held-out data never influences them.

Training minimizes binary cross-entropy by mini-batch SGD and is
deterministic given the config seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import check_kinds

_PROB_EPS = 1e-15  # keep predicted probabilities strictly inside (0, 1)

# Unit dropout masks: the deterministic pass. Multiplying by 1.0 is exact.
_NO_DROPOUT = (1.0, 1.0)


class SingleClassData(ValueError):
    """Training labels are all identical."""


@dataclass(frozen=True)
class TrainConfig:
    hidden1: int = 32
    hidden2: int = 16
    dropout: float = 0.5
    learning_rate: float = 0.01
    epochs: int = 300
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        check_kinds(self)
        # Each check is written so that NaN fails it.
        if not (self.hidden1 >= 1 and self.hidden2 >= 1):
            raise ValueError("hidden sizes must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not (self.epochs >= 1 and self.batch_size >= 1):
            raise ValueError("epochs and batch_size must be >= 1")


@dataclass(frozen=True, eq=False)
class MlpModel:
    """Layer parameters plus the input normalization applied before them."""

    w1: np.ndarray  # (in, h1)
    b1: np.ndarray  # (h1,)
    w2: np.ndarray  # (h1, h2)
    b2: np.ndarray  # (h2,)
    w3: np.ndarray  # (h2, 1)
    b3: np.ndarray  # (1,)
    input_mean: np.ndarray  # (in,)
    input_std: np.ndarray  # (in,)

    def __post_init__(self):
        for name in ("w1", "b1", "w2", "b2", "w3", "b3", "input_mean", "input_std"):
            a = np.array(getattr(self, name), dtype=np.float64)
            if not np.isfinite(a).all():
                raise ValueError(f"{name} must be finite")
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if self.w1.shape[1] != self.b1.shape[0] or self.w2.shape[0] != self.w1.shape[1]:
            raise ValueError("inconsistent layer shapes")
        if self.w3.shape != (self.w2.shape[1], 1):
            raise ValueError("output layer must map to a single unit")
        if self.input_mean.shape != self.w1.shape[:1] or self.input_std.shape != self.w1.shape[:1]:
            raise ValueError("input normalization must match the input layer")
        if not (self.input_std > 0).all():
            raise ValueError("input_std must be positive")

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in ("w1", "b1", "w2", "b2", "w3", "b3")}


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Each element takes the branch whose exp cannot overflow.
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def _forward(params, x, masks=_NO_DROPOUT):
    """Hidden pre-activations, hidden activations after dropout, and the
    output probabilities of one pass over normalized inputs.

    ``masks`` are pre-scaled inverted-dropout masks for the two hidden
    activations; the default unit masks give the deterministic pass.
    """
    z1 = x @ params["w1"] + params["b1"]
    a1d = np.maximum(z1, 0.0) * masks[0]
    z2 = a1d @ params["w2"] + params["b2"]
    a2d = np.maximum(z2, 0.0) * masks[1]
    z3 = a2d @ params["w3"] + params["b3"]
    p = np.clip(_sigmoid(z3[:, 0]), _PROB_EPS, 1.0 - _PROB_EPS)
    return z1, a1d, z2, a2d, p


def _forward_backward(params, x, y, masks=_NO_DROPOUT):
    """Output probabilities and the parameter gradients of the mean binary
    cross-entropy on one batch, with dropout ``masks`` as in ``_forward``."""
    z1, a1d, z2, a2d, p = _forward(params, x, masks)
    dz3 = ((p - y) / x.shape[0])[:, None]
    grads = {"w3": a2d.T @ dz3, "b3": dz3.sum(axis=0)}
    dz2 = (dz3 @ params["w3"].T) * masks[1] * (z2 > 0)
    grads["w2"] = a1d.T @ dz2
    grads["b2"] = dz2.sum(axis=0)
    dz1 = (dz2 @ params["w2"].T) * masks[0] * (z1 > 0)
    grads["w1"] = x.T @ dz1
    grads["b1"] = dz1.sum(axis=0)
    return p, grads


def loss_and_gradients(model: MlpModel, descriptors, labels):
    """Deterministic (dropout-off) loss and gradients; used for training-free
    inspection and gradient checking."""
    x = (np.asarray(descriptors, dtype=np.float64) - model.input_mean) / model.input_std
    y = np.asarray(labels, dtype=np.float64)
    p, grads = _forward_backward(model.params(), x, y)
    return -float(np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))), grads


def train_mlp(descriptors, labels, config: TrainConfig) -> MlpModel:
    """Fit the network on descriptor vectors with binary labels.

    Dropout masks are drawn only when the rate is positive, so training at
    rate 0 consumes the same random stream as a plain no-dropout loop.
    """
    x = np.asarray(descriptors, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("descriptors must be (n, dim) with one label per row")
    if x.shape[0] < 2:
        raise ValueError("need at least two training examples")
    if not np.isfinite(x).all():
        raise ValueError("descriptors must be finite")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("labels must be binary")
    if len(np.unique(y)) < 2:
        raise SingleClassData("training labels are all identical")

    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    xn = (x - mean) / std

    rng = np.random.default_rng(config.seed)
    dim = x.shape[1]
    params = {
        "w1": rng.normal(0.0, np.sqrt(2.0 / dim), (dim, config.hidden1)),
        "b1": np.zeros(config.hidden1),
        "w2": rng.normal(0.0, np.sqrt(2.0 / config.hidden1), (config.hidden1, config.hidden2)),
        "b2": np.zeros(config.hidden2),
        "w3": rng.normal(0.0, np.sqrt(2.0 / config.hidden2), (config.hidden2, 1)),
        "b3": np.zeros(1),
    }

    n = xn.shape[0]
    keep = 1.0 - config.dropout
    masks = _NO_DROPOUT
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            b = len(idx)
            if config.dropout > 0.0:
                # Both masks from one draw in C order: the same stream as one
                # draw per mask.
                kept = (rng.random(b * (config.hidden1 + config.hidden2)) < keep) / keep
                split = b * config.hidden1
                masks = (
                    kept[:split].reshape(b, config.hidden1),
                    kept[split:].reshape(b, config.hidden2),
                )
            _, grads = _forward_backward(params, xn[idx], y[idx], masks)
            for name, grad in grads.items():
                grad *= config.learning_rate
                params[name] -= grad

    return MlpModel(**params, input_mean=mean, input_std=std)


def predict_probs(model: MlpModel, descriptors) -> np.ndarray:
    """Depression probabilities for a batch of descriptor vectors."""
    x = np.asarray(descriptors, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    return _forward(model.params(), (x - model.input_mean) / model.input_std)[-1]
