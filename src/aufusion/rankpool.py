"""Per-segment linear ranking kernels summarizing short-term AU dynamics.

Each window of frames is summarized by the weight vector ``d`` of a linear
scorer trained so later frames score higher than earlier ones by at least a
margin: minimize

    f(d) = 0.5 * ||d||^2 + reg_c * sum_{a > b} max(0, margin - <d, v_a - v_b>)^2

over all ordered frame pairs, where ``v_a`` is the running mean of the first
``a`` frames. The smoothing is always applied, as in Fernando et al.'s rank
pooling: it stabilizes the ordering signal. The minimizer encodes the
segment's temporal evolution and becomes its 17-dimensional dynamic
descriptor.

``f`` is piecewise quadratic and 1-strongly convex, and it is minimized by
Newton's method (Chapelle & Keerthi, "Efficient algorithms for ranking with
SVMs", Information Retrieval 2010). Over the active pairs (positive residual
``margin - <d, v_a - v_b>``) the gradient is ``d - 2 reg_c V^T g``, ``g``
the residuals summed per frame, and the Hessian is ``I + 2 reg_c V^T L V``,
``L`` the Laplacian of the active pairs' graph, built from their n x n
adjacency matrix. One 17 x 17 solve gives the direction and an exact line
search the step; once the active set settles a step lands on the optimum.
Everything else works on the list of the n(n-1)/2 ordered pairs (a > b),
whose indices are cached read-only per window length. The frames are
centered first, which leaves every pair difference as it is and keeps the
scores small, so frames far from the origin lose no precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ingest import AUClip, Segment, _freeze, _require_integers, segment_clip

_GRAD_TOL = 1e-9  # the gradient certificate's relative tolerance
_LINE_PASSES = 64  # line-search passes before it settles for the step it has


class SegmentTooShort(ValueError):
    """Ranking needs at least two frames."""


@dataclass(frozen=True)
class RankPoolConfig:
    margin: float = 1.0  # required score gap between consecutive ranks
    reg_c: float = 1.0  # squared-hinge-vs-regularizer trade-off
    max_epochs: int = 200  # cap on Newton iterations

    def __post_init__(self):
        _require_integers(self, "max_epochs")
        # Each check is written so that NaN fails it.
        if not self.margin > 0:
            raise ValueError("margin must be positive")
        if not self.reg_c > 0:
            raise ValueError("reg_c must be positive")
        if not self.max_epochs >= 1:
            raise ValueError("max_epochs must be >= 1")


def smooth_frames(frames: np.ndarray) -> np.ndarray:
    """Running mean over time: row a becomes the mean of rows 0..a."""
    frames = np.asarray(frames, dtype=np.float64)
    counts = np.arange(1, frames.shape[0] + 1, dtype=np.float64)
    return np.cumsum(frames, axis=0) / counts[:, None]


@lru_cache(maxsize=8)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every ordered pair (a > b), in row-major order."""
    ia, ib = np.tril_indices(n, k=-1)
    ia.setflags(write=False)
    ib.setflags(write=False)
    return ia, ib


@lru_cache(maxsize=8)
def _pair_cells(n: int) -> np.ndarray:
    """Flat index ``a * n + b`` of every ordered pair in an n x n array."""
    ia, ib = _pair_indices(n)
    cells = ia * n + ib
    cells.setflags(write=False)
    return cells


def _line_search(r: np.ndarray, q: np.ndarray, dp: float, pp: float, two_c: float) -> float:
    """The ``t > 0`` minimizing ``0.5 * ||d + t p||^2 + reg_c * sum max(0, r +
    t q)^2``, given ``dp = <d, p>``, ``pp = <p, p>`` and the Newton direction
    ``p`` of the pairs active at ``t = 0`` (their piece is minimal at 1).

    The slope is piecewise linear and increasing. A Newton step from ``t``
    solves the linear piece of the pairs active at ``t``; if the new point
    has the same active pairs, it is the exact minimizer. A step that leaves
    the bracket of the minimizer bisects the bracket instead.
    """
    rq, q2 = r * q, q * q
    lo, hi, t = 0.0, math.inf, 1.0
    solved = r > 0  # the active pairs t was solved on: the direction's own at t = 1
    for _ in range(_LINE_PASSES):
        z = q * t
        z += r
        active = z > 0
        if solved is not None and np.array_equal(active, solved):
            return t
        curv = float(np.einsum("i,i->", q2, active))
        slope = dp + t * pp + two_c * (float(np.einsum("i,i->", rq, active)) + t * curv)
        lo, hi = (t, hi) if slope < 0.0 else (lo, t)
        step = t - slope / (pp + two_c * curv)
        if step == t:
            return t
        t, solved = (step, active) if lo < step < hi else (0.5 * (lo + hi), None)
    return t


def solve_rank_kernel(
    frames: np.ndarray, config: RankPoolConfig
) -> tuple[np.ndarray, list[float]]:
    """Minimize ``f`` over already-smoothed frames by Newton's method.

    Returns the kernel and the objective per iteration from the zero kernel
    (``reg_c * margin**2 * pairs``) on; the trace strictly decreases. The
    solve stops at the first of:

    - the gradient certificate ``||grad f(d)|| <= _GRAD_TOL * scale``; as
      ``f`` is 1-strongly convex, ``||d - d*|| <= ||grad f(d)||``. ``scale``
      is ``||d|| + 2 reg_c || |V|^T G ||``, ``G`` the active residuals summed
      per frame without signs: the size of the terms the gradient sums, so
      frames times ``s`` with ``reg_c / s**2`` give ``d / s`` in as many
      iterations;
    - a step that does not lower ``f`` (it is not taken). When ``reg_c``
      times the squared frame differences is huge (about 1e12 for frames in
      the millions at the default ``reg_c``), residual rounding keeps the
      gradient above the certificate, and this rule ends the solve;
    - ``max_epochs`` iterations.
    """
    v = np.asarray(frames, dtype=np.float64)
    n, dim = v.shape
    if n < 2:
        raise SegmentTooShort("need at least two frames to rank")
    w = v - v.mean(axis=0)
    w_abs = np.abs(w)
    ia, ib = _pair_indices(n)
    cells = _pair_cells(n)
    per_row = np.arange(n)  # pairs per row: repeating x[a] gathers x[ia]
    margin, reg_c = config.margin, config.reg_c
    two_c = 2.0 * reg_c

    def drop(x: np.ndarray) -> np.ndarray:
        """``x[b] - x[a]`` for every pair (a > b)."""
        out = x[ib]
        out -= x.repeat(per_row)
        return out

    def evaluate(d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Every pair's residual, the positions and values of the positive
        ones, and ``f(d)``."""
        r = drop(w @ d)
        r += margin
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


def rank_pool(segment: Segment, config: RankPoolConfig) -> np.ndarray:
    """The segment's ranking kernel ``d``: its 17-dimensional descriptor."""
    d, _ = solve_rank_kernel(smooth_frames(segment.frames), config)
    return d


def order_agreement(d: np.ndarray, segment: Segment) -> float:
    """Fraction of ordered frame pairs (a > b) scored in the right order.

    Scores are taken over the smoothed frames; only strict inequalities
    count, so the zero kernel scores 0.
    """
    frames = smooth_frames(segment.frames)
    n = frames.shape[0]
    if n < 2:
        raise SegmentTooShort("need at least two frames")
    scores = frames @ np.asarray(d, dtype=np.float64)
    ia, ib = _pair_indices(n)
    return float((scores[ia] - scores[ib] > 0).sum()) / (n * (n - 1) / 2)


def pool_clip(clip: AUClip, window: int, stride: int, config: RankPoolConfig) -> np.ndarray:
    """The clip's descriptors as a read-only (windows, 17) matrix, one row
    per window in segment order."""
    return _freeze([rank_pool(seg, config) for seg in segment_clip(clip, window, stride)])

