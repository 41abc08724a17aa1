"""Combine the clip likelihood gap with per-segment votes into one decision.

The fused score is

    P = gap + omega * sum(votes),    gap = ll_dep - ll_ndep,

and the clip is called depressed when P strictly exceeds a threshold tau.
By default tau = omega * N / 2 for N segments, which recenters the one-sided
vote sum so an evenly split vote contributes nothing, and the likelihood gap
is divided by the clip's frame count so both terms stay on comparable scales
across clip lengths. Setting ``normalize_ll=False`` and an explicit ``tau``
recovers the raw score.

The rule needs only the vote count, so it runs on ``(gap, n_dep, N)``, and
it is written once, in ``_fused``. ``omega`` there is either one float or a
float64 array that the score and the threshold broadcast over; both apply the
same IEEE operations in the same order, so they give the same decisions.
``fuse`` counts a clip's vote list, and ``refuse_record`` hands a cached
record's counts to the rule with a scalar weight. ``sweep_omega`` hands each
cached record to it once with the whole omega grid, keeps one count of correct
decisions per omega, and returns a ``SweepTable``: the omega column and the
correct counts, from which it derives the accuracies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .ingest import Label, check_kinds


class EmptyVotes(ValueError):
    """Fusion needs at least one segment vote."""


class BadRecord(ValueError):
    """A cached record that re-fusion cannot use."""


def _check_omega(omega):
    """Raise unless the vote weight (or every weight of an array) lies in
    ``[0, inf)``; NaN fails."""
    if not np.all((omega >= 0) & (omega < math.inf)):
        raise ValueError("omega must be nonnegative and finite")


@dataclass(frozen=True)
class FusionConfig:
    omega: float = 1.0
    tau: float | None = None  # None: omega * n_segments / 2
    normalize_ll: bool = True  # divide the likelihood gap by the frame count

    def __post_init__(self):
        check_kinds(self)
        # Each check is written so that NaN fails it.
        _check_omega(self.omega)
        if self.tau is not None and not -math.inf < self.tau < math.inf:
            raise ValueError("tau must be finite")


@dataclass(frozen=True)
class FusionResult:
    score: float
    decision: Label
    tau: float
    ll_dep: float
    ll_ndep: float
    n_segments: int
    n_dep_votes: int

    def __post_init__(self):
        if not 0 <= self.n_dep_votes <= self.n_segments:
            raise ValueError("vote count out of range")


def fuse(
    ll_dep: float,
    ll_ndep: float,
    votes: Sequence[int],
    config: FusionConfig,
    n_frames: int | None = None,
) -> FusionResult:
    """Fuse one clip's likelihood pair and segment votes.

    ``n_frames`` is required when ``config.normalize_ll`` is set. Ties
    (score equal to the threshold) resolve non-depressed, matching the
    likelihood-ratio tie rule.
    """
    if any(v not in (0, 1) for v in votes):
        raise ValueError("votes must be binary")
    return _fuse_counts(ll_dep, ll_ndep, int(sum(votes)), len(votes), config, n_frames)


def _fuse_counts(
    ll_dep: float,
    ll_ndep: float,
    n_dep: int,
    n_segments: int,
    config: FusionConfig,
    n_frames: int | None,
) -> FusionResult:
    """The fusion rule on a clip's vote count; ``FusionResult`` rejects a
    count outside ``[0, n_segments]``."""
    if n_segments < 1:
        raise EmptyVotes("need at least one segment vote")
    score, tau, depressed = _fused(
        ll_dep, ll_ndep, n_dep, n_segments, n_frames, config.omega, config
    )
    decision = Label.DEPRESSED if depressed else Label.NONDEPRESSED
    return FusionResult(
        score=score,
        decision=decision,
        tau=tau,
        ll_dep=ll_dep,
        ll_ndep=ll_ndep,
        n_segments=n_segments,
        n_dep_votes=n_dep,
    )


def _fused(ll_dep, ll_ndep, n_dep, n_segments, n_frames, omega, config: FusionConfig):
    """Score, threshold and depressed flag of the fusion rule at ``omega``, a
    float or a float64 array; ``config`` supplies ``tau`` and ``normalize_ll``."""
    gap = ll_dep - ll_ndep
    if config.normalize_ll:
        if n_frames is None or n_frames < 1:
            raise ValueError("normalize_ll requires the clip frame count")
        gap /= n_frames
    score = gap + omega * n_dep
    tau = omega * n_segments / 2.0 if config.tau is None else config.tau
    return score, tau, score > tau


# Keys every cached per-clip record must provide for re-fusion.
RECORD_KEYS = ("label", "ll_dep", "ll_ndep", "n_segments", "n_dep_votes", "n_frames")


def refuse_record(record: Mapping, omega: float, base: FusionConfig) -> FusionResult:
    """Re-run fusion on one cached record at a different vote weight."""
    config = FusionConfig(omega=omega, tau=base.tau, normalize_ll=base.normalize_ll)
    return _fuse_counts(
        float(record["ll_dep"]),
        float(record["ll_ndep"]),
        int(record["n_dep_votes"]),
        int(record["n_segments"]),
        config,
        n_frames=int(record["n_frames"]),
    )


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Accuracy per omega: a read-only float64 omega column, the read-only
    count of correct decisions per omega (in the smallest unsigned dtype
    that holds the record count) and the record count. Iterating yields
    ``(omega, accuracy)`` pairs of floats; ``==`` compares the values."""

    omegas: np.ndarray
    correct: np.ndarray
    n_records: int

    @property
    def accuracies(self) -> list[float]:
        return [count / self.n_records for count in self.correct.tolist()]

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return zip(self.omegas.tolist(), self.accuracies)

    def __len__(self) -> int:
        return len(self.omegas)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SweepTable):
            return NotImplemented
        return (
            self.n_records == other.n_records
            and np.array_equal(self.correct, other.correct)
            and np.array_equal(self.omegas, other.omegas)
        )


def sweep_omega(
    records: Sequence[Mapping],
    omegas: Sequence[float],
    base: FusionConfig = FusionConfig(),
) -> SweepTable:
    """Accuracy of re-fused decisions per vote weight, without retraining.

    ``records`` are cached per-clip intermediates carrying ``RECORD_KEYS``
    (labels as ``Label`` values or their string names).
    """
    if not records:
        raise ValueError("need at least one cached record")
    if not omegas:
        raise ValueError("need at least one omega value")
    checked = []
    for index, record in enumerate(records):
        where = f"record {index}"
        if "participant_id" in record:
            where += f" ({record['participant_id']})"
        missing = [k for k in RECORD_KEYS if k not in record]
        if missing:
            raise BadRecord(f"cached {where} is missing {missing}")
        # A record is checked once here, at the base weight, so a bad one is
        # reported with its row; omega never affects the check.
        try:
            label = Label(record["label"])
            counts = refuse_record(record, base.omega, base)
        except (TypeError, ValueError) as exc:  # a bad label, count or null value
            raise BadRecord(f"{where}: {exc}") from None
        checked.append((label, counts, int(record["n_frames"])))
    grid = np.array([float(omega) for omega in omegas], dtype=np.float64)
    _check_omega(grid)
    correct = np.zeros(len(grid), dtype=np.min_scalar_type(len(records)))
    # A huge finite omega overflows to inf exactly as Python floats do.
    with np.errstate(over="ignore"):
        for label, counts, n_frames in checked:
            _, _, depressed = _fused(
                counts.ll_dep, counts.ll_ndep, counts.n_dep_votes, counts.n_segments, n_frames,
                grid, base,
            )
            correct += depressed if label is Label.DEPRESSED else ~depressed
    grid.setflags(write=False)
    correct.setflags(write=False)
    return SweepTable(grid, correct, len(records))
