"""Per-segment linear ranking kernels summarizing short-term AU dynamics.

Each window of frames is summarized by the weight vector ``d`` of a linear
scorer trained so later frames score higher than earlier ones by at least
one: minimize

    f(d) = 0.5 * ||d||^2 + reg_c * sum_{a > b} max(0, 1 - <d, v_a - v_b>)^2

over all ordered frame pairs, where ``v_a`` is the running mean of the first
``a`` frames. The smoothing is always applied, as in Fernando et al.'s rank
pooling: it stabilizes the ordering signal. The minimizer encodes the
segment's temporal evolution and becomes its 17-dimensional dynamic
descriptor. No other margin is offered: margin ``m`` only scales the
minimizer by ``m``, a scale the vote classifier normalizes away.

``f`` is piecewise quadratic and 1-strongly convex, and it is minimized by
Newton's method (Chapelle & Keerthi, "Efficient algorithms for ranking with
SVMs", Information Retrieval 2010). Over the active pairs (positive residual
``1 - <d, v_a - v_b>``) the gradient is ``d - 2 reg_c V^T g``, ``g`` the
residuals summed per frame, and the Hessian is ``I + 2 reg_c V^T L V``,
``L`` the Laplacian of the active pairs' graph, built from their n x n
adjacency matrix. One 17 x 17 solve gives the direction and an exact line
search the step; once the active set settles a step lands on the optimum.
Everything else works on the list of the n(n-1)/2 ordered pairs (a > b),
whose indices are cached read-only per window length. The frames are
centered first, which leaves every pair difference as it is and keeps the
scores small, so frames far from the origin lose no precision.

The solve starts from the zero kernel, where every pair is active at the
residual 1. There the gradient is ``-2 reg_c V^T (2i - (n - 1))`` and the
Hessian ``I + 2 reg_c (n V^T V - s s^T)``, ``s = V^T 1``, with no pair
list; and the step along that first direction is the exact minimum of a
one-dimensional piecewise quadratic whose pieces end as pairs leave the
active set, found with one sort (``_ray_search``). Later iterations work on
the active pairs as above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ingest import AUClip, Segment, _freeze, _serial_rows, check_kinds, segment_clip

_GRAD_TOL = 1e-9  # the gradient certificate's relative tolerance
_LINE_PASSES = 64  # line-search passes before it settles for the step it has
_RAY_BLOCK = 128  # leaving pairs per block of the ray search's first scan


class SegmentTooShort(ValueError):
    """Ranking needs at least two frames."""


@dataclass(frozen=True)
class RankPoolConfig:
    reg_c: float = 1.0  # squared-hinge-vs-regularizer trade-off
    max_epochs: int = 200  # cap on Newton iterations

    def __post_init__(self):
        check_kinds(self)
        # Each check is written so that NaN fails it.
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


def _ray_search(q: np.ndarray, pp: float, two_c: float) -> float:
    """The ``t > 0`` minimizing ``0.5 * t**2 * pp + reg_c * sum max(0, 1 + t
    q)^2``: the line search from the zero kernel, where every pair's residual
    is 1, along a direction ``p`` (``pp = <p, p>``) whose slope at 0,
    ``two_c * sum(q)``, is negative.

    A pair with ``q >= 0`` stays active for every ``t > 0``, and one with
    ``q < 0`` leaves at ``-1 / q``, the most negative first. Between two such
    ends the slope is linear, ``t * (pp + two_c * S2) + two_c * S1`` with
    ``S1`` and ``S2`` the sums of the active ``q`` and ``q**2``, and it
    increases throughout. The minimizer is the root of the first piece whose
    slope is not negative at its end: at the end ``-1 / q_k`` that slope has
    the sign of ``pp + two_c * (S2 - q_k S1)``.
    """
    leaving = np.sort(q[q < 0.0])
    total1, total2 = float(q.sum()), float(np.einsum("i,i->", q, q))

    def turned(lead, gone1, gone2):
        """Whether the slope is not negative at the ends ``-1 / lead``,
        given the sums of ``q`` and ``q**2`` over the pairs gone before each."""
        return pp + two_c * ((total2 - gone2) - lead * (total1 - gone1)) >= 0.0

    def first(flags):
        return int(np.argmax(flags)) if flags.any() else len(flags)

    # The ends at block starts first, from block sums; then the ends inside
    # the one block where the slope turns. Prefix sums over every leaving
    # pair would cost more than the sort.
    starts = np.arange(0, len(leaving), _RAY_BLOCK)
    sums1 = np.add.reduceat(leaving, starts)
    sums2 = np.add.reduceat(leaving * leaving, starts)
    gone1, gone2 = np.cumsum(sums1) - sums1, np.cumsum(sums2) - sums2
    block = first(turned(leaving[starts], gone1, gone2)) - 1
    k = 0
    if block >= 0:
        lo = starts[block]
        part = leaving[lo : lo + _RAY_BLOCK]
        squares = part * part
        inside1 = gone1[block] + np.cumsum(part) - part
        inside2 = gone2[block] + np.cumsum(squares) - squares
        k = lo + first(turned(part, inside1, inside2))
    # The sums again over that piece's own pairs, free of the cancellation in
    # the totals. (A BLAS dot over more than 10,000 pairs would run threaded.)
    active = np.concatenate([q[q >= 0.0], leaving[k:]])
    curv = float(np.einsum("i,i->", active, active))
    return -two_c * float(active.sum()) / (pp + two_c * curv)


def _serial_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` taken in blocks of rows that OpenBLAS runs on the calling
    thread. A row may differ from that of one call in its last bits, since
    OpenBLAS picks its kernel by the shape of the product."""
    rows = _serial_rows(a.shape[1] * b.shape[1])
    if rows >= a.shape[0]:
        return a @ b
    out = np.empty((a.shape[0], b.shape[1]))
    for start in range(0, a.shape[0], rows):
        np.matmul(a[start : start + rows], b, out=out[start : start + rows])
    return out


def solve_rank_kernel(
    frames: np.ndarray, config: RankPoolConfig
) -> tuple[np.ndarray, list[float]]:
    """Minimize ``f`` over already-smoothed frames by Newton's method.

    Returns the kernel and the objective per iteration from the zero kernel
    (``reg_c * pairs``) on; the trace strictly decreases. The solve stops at
    the first of:

    - the gradient certificate ``||grad f(d)|| <= _GRAD_TOL * scale``; as
      ``f`` is 1-strongly convex, ``||d - d*|| <= ||grad f(d)||``. ``scale``
      is ``||d|| + 2 reg_c || |V|^T G ||``, ``G`` the active residuals summed
      per frame without signs: the size of the terms the gradient sums, so
      frames times ``s`` with ``reg_c / s**2`` give ``d / s`` in as many
      iterations;
    - a step that does not lower ``f`` (it is not taken). When ``reg_c``
      times the squared frame differences is huge (about 1e12 for frames in
      the millions at the default ``reg_c``), residual rounding keeps the
      gradient above the certificate, and this rule ends the solve. A full
      Newton step that keeps every pair's activity is taken all the same:
      it lands on the optimum, and only rounding failed the comparison. It
      is not traced, and its ``f`` differs from the last traced one by
      rounding;
    - ``max_epochs`` iterations.

    The first iteration, from the zero kernel, is counted like every other.
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
    reg_c = config.reg_c
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
        r += 1.0
        active = (r > 0).nonzero()[0]
        hinge = r[active]
        f = 0.5 * float(d @ d) + reg_c * float(np.einsum("i,i->", hinge, hinge))
        return r, active, hinge, f

    # At the zero kernel every pair is active at the residual 1
    # (frame i is the larger of i pairs and the smaller of n - 1 - i), so the
    # first iteration needs no pair list; see the module docstring.
    d = np.zeros(dim)
    r = None  # the pair residuals at d, once d is no longer the zero kernel
    f_curr = reg_c * len(ia)
    trace = [f_curr]
    for _ in range(config.max_epochs):
        if r is None:
            into_a, into_b = per_row.astype(np.float64), (n - 1.0) - per_row
        else:
            act_a, act_b = ia[active], ib[active]
            into_a = np.bincount(act_a, hinge, minlength=n)
            into_b = np.bincount(act_b, hinge, minlength=n)
        grad = d - two_c * (w.T @ (into_a - into_b))
        terms = np.linalg.norm(w_abs.T @ (into_a + into_b))
        if np.linalg.norm(grad) <= _GRAD_TOL * (np.linalg.norm(d) + two_c * terms):
            break
        if r is None:
            total = w.sum(axis=0)
            hessian = n * (w.T @ w) - np.outer(total, total)
        else:
            adjacency = np.zeros(n * n)
            adjacency[cells[active]] = 1.0
            cross = w.T @ _serial_matmul(adjacency.reshape(n, n), w)
            degree = np.bincount(act_a, minlength=n) + np.bincount(act_b, minlength=n)
            hessian = (w.T * degree) @ w - cross - cross.T
        hessian *= two_c
        hessian.flat[:: dim + 1] += 1.0
        p = np.linalg.solve(hessian, -grad)
        if not float(grad @ p) < 0.0:
            break
        q = drop(w @ p)
        if r is None:
            t = _ray_search(q, float(p @ p), two_c)
        else:
            t = _line_search(r, q, float(d @ p), float(p @ p), two_c)
        d_try = d + t * p
        r_try, active_try, hinge_try, f_try = evaluate(d_try)
        if not f_try < f_curr:
            # A full Newton step that keeps every pair's activity lands on the
            # minimizer of d's piece, where f is stationary: the comparison
            # failed on rounding, not on the step. The solve ends there.
            if r is not None and t == 1.0 and np.array_equal(active_try, active):
                d = d_try
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

