"""Per-segment linear ranking kernels summarizing short-term AU dynamics.

Each window of frames is summarized by the weight vector ``d`` of a linear
scorer trained so later frames score higher than earlier ones by at least a
margin: minimize

    0.5 * ||d||^2 + reg_c * sum_{a > b} max(0, margin - <d, v_a - v_b>)

over all ordered frame pairs, where ``v_a`` is the running mean of the first
``a`` frames. The smoothing is always applied, as in Fernando et al.'s rank
pooling: it stabilizes the ordering signal. The minimizer encodes the
segment's temporal evolution and becomes its 17-dimensional dynamic
descriptor.

The solver is deterministic full-batch subgradient descent on the diminishing
step schedule ``1 / (1 + epoch)`` (normalized by the subgradient norm), with
step halving until the objective does not increase, so the objective trace is
non-increasing by construction.

The solver works on the list of the n(n-1)/2 ordered pairs (a > b), not on
n x n matrices. The pair indices are built once per window length and cached
read-only, so every window of that length shares them. One evaluation builds
the pair differences ``scores[a] - scores[b]`` in row-major order (repeating
``scores[a]`` once per pair in row a), takes the indices of the pairs with
``diff < margin`` as the active set, and sums ``margin - diff`` over them; the
next subgradient counts the active indices per frame. The values and their
order are those a masked lower triangle would give, so the kernels and
objective traces equal those of the matrix formulation bit for bit.

Pairs are screened safely (in the sense of Ogawa, Suzuki & Takeuchi, ICML
2013): every trial step of epoch ``j`` has norm at most ``1 / (1 + j)``, so
from epoch ``e`` on the kernel stays within ``reach[e] = sum_{j >= e} 1 / (1 +
j)`` of where it is, and a pair's difference moves by at most ``reach[e]``
times the distance between its two frames. A pair whose difference already
exceeds the margin by more than that can never be active again, and a few
times per run such pairs are dropped from the list. The kept list is still
in row-major order and holds every pair that is ever active, so the active
values, their order and their sum are unchanged: screening changes no kernel
and no trace, only the work per evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .ingest import AU_COUNT, AUClip, Segment, _freeze, segment_clip

_EPS = float(np.finfo(np.float64).eps)


class SegmentTooShort(ValueError):
    """Ranking needs at least two frames."""


@dataclass(frozen=True)
class RankPoolConfig:
    margin: float = 1.0  # required score gap between consecutive ranks
    reg_c: float = 1.0  # hinge-vs-regularizer trade-off
    max_epochs: int = 200

    def __post_init__(self):
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
def _reach(max_epochs: int) -> np.ndarray:
    """``reach[e] = sum_{j=e}^{max_epochs-1} 1 / (1 + j)``, the most the
    kernel can move from epoch ``e`` on; ``reach[max_epochs] = 0``."""
    tail = np.cumsum(1.0 / np.arange(max_epochs, 0, -1))  # smallest terms first
    reach = np.append(tail[::-1], 0.0)
    reach.setflags(write=False)
    return reach


def _pair_distances(v: np.ndarray, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """An upper bound on ``||v[a] - v[b]||`` for every pair, from the Gram
    matrix of the centered frames (one 17-term product per frame pair
    instead of 17 gathered columns).

    Centering rounds each coordinate by at most one unit in the last place,
    and the Gram entries, diagonal sums and the subtraction err by at most
    ``40 * eps * max_a ||w_a||^2``; the ``256 * eps`` term added under the
    square root covers both, so the bound holds however the squared
    distance cancels.
    """
    w = v - v.mean(axis=0)
    gram = w @ w.T
    sq = np.diagonal(gram)
    sq_sum = sq[ia] + sq[ib]
    sq_sum -= 2.0 * gram.ravel()[ia * v.shape[0] + ib]
    sq_sum += 256.0 * _EPS * float(sq.max())
    return np.sqrt(sq_sum)


def _screen(diffs: np.ndarray, dist: np.ndarray, radius: float, limit: float) -> np.ndarray:
    """Positions of the pairs to keep: ``diffs <= limit + dist * radius``.
    The others stay above ``limit`` wherever the kernel moves within
    ``radius``."""
    bound = dist * radius
    bound += limit
    return (diffs <= bound).nonzero()[0]


def solve_rank_kernel(
    frames: np.ndarray, config: RankPoolConfig
) -> tuple[np.ndarray, list[float]]:
    """Minimize the pairwise hinge objective over already-smoothed frames.

    Returns the kernel and the per-epoch objective trace (starting at the
    zero kernel). The trace is non-increasing.

    Screening runs at the start of the epochs ``max_epochs // 2**k`` (k >=
    1), where ``reach`` has fallen by about ``ln 2`` since the previous one,
    and only once ``||d|| > reach[e]``: before that no pair's difference
    ``<d, v_a - v_b> <= ||d|| * ||v_a - v_b||`` can clear the bound. A pair
    is dropped when its computed difference exceeds
    ``margin + tol + dist * radius``, with this floating-point slack
    (``eps`` is the float64 machine epsilon, ``T = max_epochs``):

    - ``radius = reach[e] * (1 + 2**-20 + T * eps * reach[0])``. A step's
      norm rounds by about 13 ulps (``grad_norm`` and ``eta``), and each
      accepted ``d - eta * grad`` adds at most ``eps / 2 * ||d|| <= eps / 2
      * reach[0]``; over the at most ``T * reach[e]`` epochs left that is
      within the ``T * eps * reach[0]`` share of ``reach[e]``. ``2**-20``
      also covers the roundings of ``reach``'s sum (at most ``T`` ulps), of
      the pair distances' square root and of the bound itself.
    - ``dist`` bounds the pair's frame distance from above
      (``_pair_distances``).
    - ``tol = 64 * eps * (vmax * (||d|| + radius) + margin)``, with ``vmax``
      the largest frame norm. A computed difference errs by at most ``18 *
      eps * vmax * ||d||`` (two 17-term scores and one subtraction), at the
      screen and at every later kernel, whose norm is at most ``||d|| +
      radius``; the ``margin`` term covers rounding ``margin + tol``.

    Frames with a non-finite norm are never screened.
    """
    v = np.asarray(frames, dtype=np.float64)
    n = v.shape[0]
    if n < 2:
        raise SegmentTooShort("need at least two frames to rank")
    ia, ib = _pair_indices(n)
    margin, reg_c, max_epochs = config.margin, config.reg_c, config.max_epochs
    reach = _reach(max_epochs)
    vmax = math.sqrt(float(np.einsum("ij,ij->i", v, v).max()))
    screens = {max_epochs >> k for k in range(1, max_epochs.bit_length())}
    if not math.isfinite(vmax):
        screens = set()
    slack = 1.0 + 2.0**-20 + max_epochs * _EPS * reach[0]
    kept_a, kept_b, dist = ia, ib, None
    per_row = np.arange(n)  # kept pairs per row: repeating scores[a] gathers scores[kept_a]

    def evaluate(d: np.ndarray, scores: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """Objective at ``d``, the positions of the kept pairs whose hinge is
        active, and the kept pairs' differences."""
        diffs = scores.repeat(per_row)
        diffs -= scores[kept_b]
        active = (diffs < margin).nonzero()[0]
        return 0.5 * float(d @ d) + reg_c * float((margin - diffs[active]).sum()), active, diffs

    d = np.zeros(v.shape[1])
    f_curr, active, diffs = evaluate(d, v @ d)
    trace = [f_curr]

    for epoch in range(max_epochs):
        coef = np.bincount(kept_a[active], minlength=n) - np.bincount(kept_b[active], minlength=n)
        if epoch in screens:
            radius = reach[epoch] * slack
            d_norm = math.sqrt(float(d @ d))
            if d_norm > radius:
                if dist is None:
                    dist = _pair_distances(v, ia, ib)
                tol = 64.0 * _EPS * (vmax * (d_norm + radius) + margin)
                keep = _screen(diffs, dist, radius, margin + tol)
                kept_a, kept_b, dist = kept_a[keep], kept_b[keep], dist[keep]
                per_row = np.bincount(kept_a, minlength=n)
        grad = d - reg_c * (v.T @ coef.astype(np.float64))
        grad_norm = math.sqrt(grad @ grad)
        if grad_norm < 1e-12:
            break
        eta = 1.0 / ((1.0 + epoch) * grad_norm)
        accepted = False
        for _ in range(60):
            d_try = d - eta * grad
            f_try, active_try, diffs_try = evaluate(d_try, v @ d_try)
            if f_try <= f_curr:
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break
        improvement = f_curr - f_try
        d, active, diffs, f_curr = d_try, active_try, diffs_try, f_try
        trace.append(f_curr)
        if improvement <= 1e-12 * (1.0 + abs(f_curr)):
            break
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


_DESCRIPTOR_HEADER = "source_id\tstart_index\t" + "\t".join(f"d{i:02d}" for i in range(AU_COUNT))


def write_descriptors(descriptors: dict[str, np.ndarray], stride: int, path: str | Path):
    """Tab-separated dump: source_id, start_index, 17 weights per row. Row i
    of a clip's matrix starts at frame ``i * stride``."""
    lines = [_DESCRIPTOR_HEADER]
    for source_id, matrix in descriptors.items():
        for i, d in enumerate(matrix):
            lines.append(f"{source_id}\t{i * stride}\t" + "\t".join(repr(float(x)) for x in d))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_descriptors(path: str | Path) -> dict[str, np.ndarray]:
    """Read a ``write_descriptors`` dump into one read-only matrix per source,
    in file order; a bad header, field count, start index or weight is
    reported with the file and line."""
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not lines or lines[0] != _DESCRIPTOR_HEADER:
        raise ValueError(f"{path}: line 1: expected the header {_DESCRIPTOR_HEADER!r}")
    rows: dict[str, list[np.ndarray]] = {}
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        try:
            if len(parts) != 2 + AU_COUNT:
                raise ValueError(f"expected {2 + AU_COUNT} fields, found {len(parts)}")
            int(parts[1])  # the start index must be an integer
            d = np.array([float(x) for x in parts[2:]])
            if not np.isfinite(d).all():
                raise ValueError("descriptor weights must be finite")
        except ValueError as exc:
            raise ValueError(f"{path}: line {line_no}: {exc}") from None
        rows.setdefault(parts[0], []).append(d)
    return {source_id: _freeze(matrix) for source_id, matrix in rows.items()}
