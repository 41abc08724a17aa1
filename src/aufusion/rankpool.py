"""Per-segment linear ranking kernels summarizing short-term AU dynamics.

Each window of frames is summarized by the weight vector ``d`` of a linear
scorer trained so later frames score higher than earlier ones by at least a
margin: minimize

    0.5 * ||d||^2 + reg_c * sum_{a > b} max(0, margin - <d, v_a - v_b>)

over all ordered frame pairs, where ``v_a`` is the running mean of the first
``a`` frames (running-mean smoothing stabilizes the ordering signal and is
on by default). The minimizer encodes the segment's temporal evolution and
becomes its 17-dimensional dynamic descriptor.

The solver is deterministic full-batch subgradient descent on a diminishing
step schedule ``step_size / (1 + epoch)`` (normalized by the subgradient
norm), with step halving until the objective does not increase, so the
objective trace is non-increasing by construction.

The solver works on the list of the n(n-1)/2 ordered pairs (a > b), not on
n x n matrices. The pair indices are built once per window length and cached
read-only, so every window of that length shares them. One evaluation builds
the pair differences ``scores[a] - scores[b]`` in row-major order (repeating
``scores[a]`` once per pair in row a), takes the indices of the pairs with
``diff < margin`` as the active set, and sums ``margin - diff`` over them; the
next subgradient counts the active indices per frame. The values and their
order are those a masked lower triangle would give, so the kernels and
objective traces equal those of the matrix formulation bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .ingest import AU_COUNT, AUClip, Segment, _freeze, segment_clip


class SegmentTooShort(ValueError):
    """Ranking needs at least two frames."""


@dataclass(frozen=True)
class RankPoolConfig:
    margin: float = 1.0  # required score gap between consecutive ranks
    reg_c: float = 1.0  # hinge-vs-regularizer trade-off
    max_epochs: int = 200
    step_size: float = 1.0
    smooth: bool = True  # running-mean smoothing before pair construction

    def __post_init__(self):
        # Each check is written so that NaN fails it.
        if not self.margin > 0:
            raise ValueError("margin must be positive")
        if not self.reg_c > 0:
            raise ValueError("reg_c must be positive")
        if not self.max_epochs >= 1:
            raise ValueError("max_epochs must be >= 1")
        if not self.step_size > 0:
            raise ValueError("step_size must be positive")


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


def solve_rank_kernel(
    frames: np.ndarray, config: RankPoolConfig
) -> tuple[np.ndarray, list[float]]:
    """Minimize the pairwise hinge objective over already-smoothed frames.

    Returns the kernel and the per-epoch objective trace (starting at the
    zero kernel). The trace is non-increasing.
    """
    v = np.asarray(frames, dtype=np.float64)
    n = v.shape[0]
    if n < 2:
        raise SegmentTooShort("need at least two frames to rank")
    ia, ib = _pair_indices(n)
    repeats = np.arange(n)  # row a holds a pairs, so repeating scores[a] gathers scores[ia]
    margin, reg_c = config.margin, config.reg_c

    def evaluate(d: np.ndarray, scores: np.ndarray) -> tuple[float, np.ndarray]:
        """Objective at ``d`` and the indices of pairs whose hinge is active."""
        diffs = scores.repeat(repeats)
        diffs -= scores[ib]
        active = (diffs < margin).nonzero()[0]
        return 0.5 * float(d @ d) + reg_c * float((margin - diffs[active]).sum()), active

    d = np.zeros(v.shape[1])
    f_curr, active = evaluate(d, v @ d)
    trace = [f_curr]

    for epoch in range(config.max_epochs):
        coef = np.bincount(ia[active], minlength=n) - np.bincount(ib[active], minlength=n)
        grad = d - reg_c * (v.T @ coef.astype(np.float64))
        grad_norm = math.sqrt(grad @ grad)
        if grad_norm < 1e-12:
            break
        eta = config.step_size / ((1.0 + epoch) * grad_norm)
        accepted = False
        for _ in range(60):
            d_try = d - eta * grad
            f_try, active_try = evaluate(d_try, v @ d_try)
            if f_try <= f_curr:
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break
        improvement = f_curr - f_try
        d, active, f_curr = d_try, active_try, f_try
        trace.append(f_curr)
        if improvement <= 1e-12 * (1.0 + abs(f_curr)):
            break
    return d, trace


def rank_pool(segment: Segment, config: RankPoolConfig) -> np.ndarray:
    """The segment's ranking kernel ``d``: its 17-dimensional descriptor."""
    frames = smooth_frames(segment.frames) if config.smooth else segment.frames
    d, _ = solve_rank_kernel(frames, config)
    return d


def order_agreement(d: np.ndarray, segment: Segment, smooth: bool = True) -> float:
    """Fraction of ordered frame pairs (a > b) scored in the right order.

    Scores are taken over the smoothed frames; only strict inequalities
    count, so the zero kernel scores 0.
    """
    frames = smooth_frames(segment.frames) if smooth else segment.frames
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
