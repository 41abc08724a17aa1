"""Class-conditional diagonal-covariance Gaussian mixtures fitted by EM.

One mixture is trained per class on the pooled frames of that class's
training clips. A test clip is scored by its log-likelihood under each
mixture; the clip-level decision is the sign of the likelihood gap
(ties go to non-depressed). All per-frame mixture densities are evaluated
through log-sum-exp, so long clips never underflow.

One kernel, ``_e_step``, evaluates every density. It works on the centered
block ``B = [(x - c)^2, x - c]`` (``2 * dim`` rows, one column per frame) and
on means taken relative to the same center ``c``, so the expansion of
``(x - mu)^2 / var`` cancels only on the scale of the data's spread, not of
its offset from the origin. A fit centers on the training mean, builds
``B`` once and keeps its means relative to ``c`` throughout EM. Scoring
centers on ``weights @ means``, which depends only on the model, so a clip's
log-likelihood stays additive over its frames. The kernel walks ``B`` in
chunks of ``_CHUNK`` frames: per chunk the log joint is one
``(n, 2 * dim) @ B[:, chunk]`` matmul into an ``(n, chunk)`` array,
normalised column by column in place, and EM adds both M-step moments from
one ``responsibilities @ B[:, chunk].T``, so it never holds the full
responsibility matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .ingest import AUClip, Label

_LOG_2PI = math.log(2.0 * math.pi)

FORMAT_VERSION = 1


class DegenerateData(ValueError):
    """A feature column is constant and no variance floor is in effect."""


@dataclass(frozen=True)
class EmConfig:
    n_components: int = 32
    max_iters: int = 200
    tol: float = 1e-4  # relative log-likelihood improvement threshold
    variance_floor: float = 1e-4
    seed: int = 0
    n_init: int = 3

    def __post_init__(self):
        # Each check is written so that NaN fails it.
        if not self.n_components >= 1:
            raise ValueError("n_components must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if not self.variance_floor >= 0:
            raise ValueError("variance_floor must be nonnegative")
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be >= 1")
        if not self.n_init >= 1:
            raise ValueError("n_init must be >= 1")


@dataclass(frozen=True, eq=False)
class GmmModel:
    """Mixing weights plus per-component means and diagonal variances."""

    weights: np.ndarray  # (n,)
    means: np.ndarray  # (n, dim)
    variances: np.ndarray  # (n, dim)

    def __post_init__(self):
        weights = np.array(self.weights, dtype=np.float64)
        means = np.array(self.means, dtype=np.float64)
        variances = np.array(self.variances, dtype=np.float64)
        if weights.ndim != 1 or means.ndim != 2 or variances.shape != means.shape:
            raise ValueError("inconsistent parameter shapes")
        if len(weights) != means.shape[0]:
            raise ValueError("weights and means disagree on component count")
        if not (weights > 0).all():
            raise ValueError("all mixing weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("mixing weights must sum to 1 within 1e-9")
        if not (variances > 0).all():
            raise ValueError("all variances must be positive")
        for a in (weights, means, variances):
            if not np.isfinite(a).all():
                raise ValueError("parameters must be finite")
            a.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _centered_block(frames: np.ndarray, center: np.ndarray) -> np.ndarray:
    """``[(x - c)^2, x - c]`` stacked as a C-ordered ``(2 * dim, m)`` array.

    The order matters: on a frame-major (Fortran-ordered) block, OpenBLAS
    runs the kernel's 512-frame matmul multi-threaded (see ``_CHUNK``).
    """
    m, dim = frames.shape
    block = np.empty((2 * dim, m))
    np.subtract(frames.T, center[:, None], out=block[dim:])
    np.multiply(block[dim:], block[dim:], out=block[:dim])
    return block


# Frames per kernel pass. A pass's (n, _CHUNK) log joint stays cache-sized,
# and at the default 32 components each of its matmuls (32 x 34 x 512, about
# 0.56M multiply-adds) is small enough that OpenBLAS runs it on the calling
# thread. A multi-threaded call made from one of several worker processes
# oversubscribes the cores and waits on descheduled peers: with two processes
# fitting at once on two cores, one 1000-frame M-step matmul took 32 ms
# instead of 0.13 ms.
_CHUNK = 512


def _e_step(
    weights: np.ndarray, rel_means: np.ndarray, variances: np.ndarray, block: np.ndarray
) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """Yield ``(columns, log density, responsibilities)`` per chunk of frames.

    ``block`` comes from ``_centered_block`` with some center ``c`` and
    ``rel_means`` are the component means minus that same ``c``. For the
    frames ``block[:, columns]`` the log joint of every component is one
    matmul into an ``(n, chunk)`` array, normalised column by column in
    place; the chunk's log mixture densities are its log-sum-exp.
    """
    dim = rel_means.shape[1]
    inv_var = 1.0 / variances
    # log w_k - 0.5 * [dim*log(2pi) + sum(log var_k) + (y - nu_k)^2 / var_k]
    const = np.log(weights) - 0.5 * (
        dim * _LOG_2PI
        + np.log(variances).sum(axis=1)
        + np.einsum("nd,nd,nd->n", rel_means, rel_means, inv_var)
    )
    coef = np.concatenate([-0.5 * inv_var, rel_means * inv_var], axis=1)
    for start in range(0, block.shape[1], _CHUNK):
        columns = slice(start, start + _CHUNK)
        joint = coef @ block[:, columns]
        joint += const[:, None]
        top = joint.max(axis=0)
        joint -= top
        np.exp(joint, out=joint)
        total = joint.sum(axis=0)
        joint /= total
        yield columns, top + np.log(total), joint


def _frame_log_densities(model: GmmModel, frames: np.ndarray) -> np.ndarray:
    """Log mixture density of each frame, centered on the model's mean."""
    center = model.weights @ model.means
    block = _centered_block(frames, center)
    chunks = _e_step(model.weights, model.means - center, model.variances, block)
    return np.concatenate([row_ll for _, row_ll, _ in chunks])


def log_density(model: GmmModel, frame: np.ndarray) -> float:
    """Log of the mixture density at one point."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape != (model.dim,):
        raise ValueError(f"expected a {model.dim}-vector, got shape {frame.shape}")
    if not np.isfinite(frame).all():
        raise ValueError("frame must be finite")
    return float(_frame_log_densities(model, frame[None, :])[0])


def density(model: GmmModel, frame: np.ndarray) -> float:
    """Mixture density sum_k w_k N(frame | mu_k, diag var_k)."""
    return math.exp(log_density(model, frame))


def log_likelihood(model: GmmModel, frames: np.ndarray) -> float:
    """Sum over frames of the log mixture density.

    Per-frame terms go through log-sum-exp; the sum over frames uses exact
    compensated summation, so the result is additive over row-wise
    concatenation up to the final rounding.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != model.dim:
        raise ValueError(f"expected an (m, {model.dim}) matrix, got {frames.shape}")
    if frames.shape[0] < 1:
        raise ValueError("need at least one frame")
    return math.fsum(_frame_log_densities(model, frames))


def _kmeanspp_means(frames: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seed component means from data points by distance-squared sampling."""
    m = frames.shape[0]
    means = np.empty((k, frames.shape[1]))
    means[0] = frames[rng.integers(m)]
    closest = ((frames - means[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:  # all points coincide with chosen centers
            means[i] = frames[rng.integers(m)]
            continue
        idx = rng.choice(m, p=closest / total)
        means[i] = frames[idx]
        closest = np.minimum(closest, ((frames - means[i]) ** 2).sum(axis=1))
    return means


def _em_single_run(
    frames: np.ndarray, block: np.ndarray, center: np.ndarray, config: EmConfig, run_index: int
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], list[float]]:
    """One EM restart on ``block = _centered_block(frames, center)``.

    Means are kept relative to ``center``; returns ``(weights, relative
    means, variances)`` and the log-likelihood trace.
    """
    m, dim = frames.shape
    k = config.n_components
    floor = config.variance_floor
    rng = np.random.default_rng([config.seed, run_index])

    weights = np.full(k, 1.0 / k)
    rel_means = _kmeanspp_means(frames, k, rng) - center
    data_var = np.maximum(frames.var(axis=0), floor if floor > 0 else 1e-12)
    variances = np.tile(data_var, (k, 1))

    def evaluate():
        # Weights are positive and sum to one by construction; the model is
        # validated in full once, when ``fit_em`` returns it.
        if not (np.isfinite(rel_means).all() and np.isfinite(variances).all()):
            raise ValueError("parameters must be finite")
        row_ll = np.empty(m)
        nk = np.zeros(k)
        # Per component, [sum r*y^2, sum r*y]: both M-step moments.
        moments = np.zeros((k, 2 * dim))
        for columns, chunk_ll, resp in _e_step(weights, rel_means, variances, block):
            row_ll[columns] = chunk_ll
            nk += resp.sum(axis=1)
            moments += resp @ block[:, columns].T
        return float(row_ll.sum()), nk, moments

    ll, nk, moments = evaluate()
    trace = [ll]
    for _ in range(config.max_iters):
        alive = nk > 0
        moments /= np.where(alive, nk, 1.0)[:, None]
        new_means = moments[:, dim:]
        new_vars = np.maximum(moments[:, :dim] - new_means**2, floor)
        # Components with zero responsibility mass keep their parameters and
        # are pinned at a tiny weight so the weight vector stays positive.
        rel_means = np.where(alive[:, None], new_means, rel_means)
        variances = np.where(alive[:, None], new_vars, variances)
        weights = np.where(alive, nk / m, np.finfo(np.float64).tiny)
        weights = weights / weights.sum()
        if floor <= 0 and not (variances > 0).all():
            raise DegenerateData(
                "component variance collapsed to zero with variance_floor=0"
            )
        new_ll, nk, moments = evaluate()
        trace.append(new_ll)
        converged = new_ll - ll < config.tol * abs(ll)
        ll = new_ll
        if converged:
            break
    return (weights, rel_means, variances), trace


def fit_em(
    frames: np.ndarray, config: EmConfig, return_trace: bool = False
) -> GmmModel | tuple[GmmModel, list[list[float]]]:
    """Fit a mixture by EM, best of ``config.n_init`` restarts.

    Each restart alternates responsibility computation and weight / mean /
    variance re-estimation until the relative log-likelihood improvement
    drops below ``tol`` or ``max_iters`` is hit; the run with the highest
    final training log-likelihood wins. Deterministic given the config seed.

    With ``return_trace=True`` also returns every restart's per-iteration
    log-likelihood sequence.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ValueError("frames must be a 2-d matrix")
    if frames.shape[0] < config.n_components:
        raise ValueError(
            f"need at least {config.n_components} frames, got {frames.shape[0]}"
        )
    if not np.isfinite(frames).all():
        raise ValueError("frames must be finite")
    if (
        config.variance_floor == 0
        and config.n_components > 1
        and (frames.var(axis=0) == 0).any()
    ):
        raise DegenerateData(
            "a feature column is constant; set a positive variance_floor"
        )

    center = frames.mean(axis=0)
    block = _centered_block(frames, center)
    runs = [
        _em_single_run(frames, block, center, config, run_index)
        for run_index in range(config.n_init)
    ]
    # ``max`` keeps the first of equal final log-likelihoods.
    weights, rel_means, variances = max(runs, key=lambda run: run[1][-1])[0]
    best = GmmModel(weights, rel_means + center, variances)
    return (best, [trace for _, trace in runs]) if return_trace else best


def score_pair(dep: GmmModel, ndep: GmmModel, clip: AUClip) -> tuple[float, float]:
    """Clip log-likelihood under the depressed and non-depressed mixtures."""
    if dep.dim != clip.frames.shape[1] or ndep.dim != clip.frames.shape[1]:
        raise ValueError("model dimensionality does not match the clip")
    return log_likelihood(dep, clip.frames), log_likelihood(ndep, clip.frames)


def likelihood_ratio_decision(ll_dep: float, ll_ndep: float) -> Label:
    """Depressed iff the depressed likelihood is strictly larger."""
    return Label.DEPRESSED if ll_dep > ll_ndep else Label.NONDEPRESSED


def gmm_json(model: GmmModel, config: EmConfig | None = None) -> str:
    """The model's saved form; floats keep shortest round-trip precision so
    reloading is bit-stable."""
    payload = {
        "format_version": FORMAT_VERSION,
        "n": model.n,
        "weights": model.weights.tolist(),
        "means": model.means.tolist(),
        "variances": model.variances.tolist(),
        "em_config": asdict(config) if config is not None else None,
    }
    return json.dumps(payload, indent=1) + "\n"


def save_gmm(model: GmmModel, path: str | Path, config: EmConfig | None = None):
    Path(path).write_text(gmm_json(model, config), encoding="utf-8")


def load_gmm(path: str | Path) -> tuple[GmmModel, EmConfig | None]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported model format: {payload.get('format_version')}")
    model = GmmModel(
        np.array(payload["weights"]),
        np.array(payload["means"]),
        np.array(payload["variances"]),
    )
    config = EmConfig(**payload["em_config"]) if payload["em_config"] else None
    return model, config
