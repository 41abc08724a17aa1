"""Combine the clip likelihood gap with per-segment votes into one decision.

The fused score is

    P = gap + omega * sum(votes),    gap = ll_dep - ll_ndep,

and the clip is called depressed when P strictly exceeds a threshold tau.
By default tau = omega * N / 2 for N segments, which recenters the one-sided
vote sum so an evenly split vote contributes nothing, and the likelihood gap
is divided by the clip's frame count so both terms stay on comparable scales
across clip lengths. Setting ``normalize_ll=False`` and an explicit ``tau``
recovers the raw score.

The rule needs only the vote count, so it runs on ``(gap, n_dep, N)``:
``fuse`` counts a clip's vote list, and ``refuse_record`` hands a cached
record's counts to the same rule without rebuilding the votes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .ingest import Label


class EmptyVotes(ValueError):
    """Fusion needs at least one segment vote."""


@dataclass(frozen=True)
class FusionConfig:
    omega: float = 1.0
    tau: float | None = None  # None: omega * n_segments / 2
    normalize_ll: bool = True  # divide the likelihood gap by the frame count

    def __post_init__(self):
        # Each check is written so that NaN fails it.
        if not 0 <= self.omega < math.inf:
            raise ValueError("omega must be nonnegative and finite")
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
    gap = ll_dep - ll_ndep
    if config.normalize_ll:
        if n_frames is None or n_frames < 1:
            raise ValueError("normalize_ll requires the clip frame count")
        gap /= n_frames
    score = gap + config.omega * n_dep
    tau = config.omega * n_segments / 2.0 if config.tau is None else config.tau
    decision = Label.DEPRESSED if score > tau else Label.NONDEPRESSED
    return FusionResult(
        score=score,
        decision=decision,
        tau=tau,
        ll_dep=ll_dep,
        ll_ndep=ll_ndep,
        n_segments=n_segments,
        n_dep_votes=n_dep,
    )


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


def sweep_omega(
    records: Sequence[Mapping],
    omegas: Sequence[float],
    base: FusionConfig = FusionConfig(),
) -> list[tuple[float, float]]:
    """Accuracy of re-fused decisions per vote weight, without retraining.

    ``records`` are cached per-clip intermediates carrying ``RECORD_KEYS``
    (labels as ``Label`` values or their string names).
    """
    if not records:
        raise ValueError("need at least one cached record")
    if not omegas:
        raise ValueError("need at least one omega value")
    for index, record in enumerate(records):
        where = f"record {index}"
        if "participant_id" in record:
            where += f" ({record['participant_id']})"
        missing = [k for k in RECORD_KEYS if k not in record]
        if missing:
            raise ValueError(f"cached {where} is missing {missing}")
        # A record's counts are checked once here, at the base weight, so a
        # bad one is reported with its row; omega never affects the check.
        try:
            refuse_record(record, base.omega, base)
        except ValueError as exc:
            raise type(exc)(f"{where}: {exc}") from None
    # Every accuracy is one of these n + 1 values; the table shares them
    # rather than holding one float object per omega.
    fractions = [correct / len(records) for correct in range(len(records) + 1)]
    table = []
    for omega in omegas:
        correct = 0
        for record in records:
            label = record["label"]
            if not isinstance(label, Label):
                label = Label(label)
            if refuse_record(record, omega, base).decision == label:
                correct += 1
        table.append((float(omega), fractions[correct]))
    return table
