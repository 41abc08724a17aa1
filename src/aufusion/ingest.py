"""Parse, validate, segment, and synthesize AU intensity time-series corpora.

A clip is one participant's recording: a frames x 17 matrix of facial
action-unit intensities (typical range [0, 5]) plus an optional binary
depression label. CSV input follows the common AU-extraction convention:
intensity columns are those whose header contains ``AU`` and ends in ``_r``;
everything else (frame counters, timestamps, confidences) is ignored.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

AU_COUNT = 17

# Canonical intensity column names used when emitting CSV.
AU_COLUMN_NAMES = [
    "AU01_r", "AU02_r", "AU04_r", "AU05_r", "AU06_r", "AU07_r", "AU09_r",
    "AU10_r", "AU12_r", "AU14_r", "AU15_r", "AU17_r", "AU20_r", "AU23_r",
    "AU25_r", "AU26_r", "AU45_r",
]

DEFAULT_WINDOW = 150
DEFAULT_STRIDE = 150

MANIFEST_NAME = "manifest.jsonl"
CLIP_DIR = "clips"


class MissingColumn(ValueError):
    """Fewer than 17 AU intensity columns in the header."""


class ExtraColumn(ValueError):
    """More than 17 AU intensity columns in the header."""


class ParseError(ValueError):
    """Non-numeric or non-finite cell in an intensity column."""


class EmptyClip(ValueError):
    """CSV has a header but no data rows."""


class ClipTooShort(ValueError):
    """Clip has fewer frames than the window length."""


class Label(Enum):
    DEPRESSED = "Depressed"
    NONDEPRESSED = "NonDepressed"


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class AUClip:
    """One participant's full AU time-series plus optional label."""

    participant_id: str
    frames: np.ndarray  # (n_frames, 17)
    label: Label | None = None

    def __post_init__(self):
        frames = _freeze(self.frames)
        if frames.ndim != 2 or frames.shape[1] != AU_COUNT:
            raise ValueError(
                f"clip {self.participant_id!r}: expected an (n, {AU_COUNT}) frame "
                f"matrix, got shape {frames.shape}"
            )
        if frames.shape[0] < 1:
            raise EmptyClip(f"clip {self.participant_id!r} has no frames")
        if not np.isfinite(frames).all():
            raise ValueError(f"clip {self.participant_id!r} contains non-finite values")
        object.__setattr__(self, "frames", frames)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


@dataclass(frozen=True, eq=False)
class Segment:
    """A contiguous fixed-length window of frames cut from a clip."""

    source_id: str
    start_index: int
    frames: np.ndarray  # (window, 17)

    def __post_init__(self):
        frames = _freeze(self.frames)
        if frames.ndim != 2 or frames.shape[1] != AU_COUNT:
            raise ValueError(f"segment frames must be (window, {AU_COUNT})")
        object.__setattr__(self, "frames", frames)

    @property
    def length(self) -> int:
        return self.frames.shape[0]


@dataclass(frozen=True, eq=False)
class Corpus:
    clips: list[AUClip]

    def __post_init__(self):
        ids = [c.participant_id for c in self.clips]
        if len(set(ids)) != len(ids):
            raise ValueError("participant ids must be unique")

    def __len__(self) -> int:
        return len(self.clips)

    def by_id(self, participant_id: str) -> AUClip:
        for clip in self.clips:
            if clip.participant_id == participant_id:
                return clip
        raise KeyError(participant_id)

    def require_labels(self):
        """Training corpora need both classes present."""
        labels = {c.label for c in self.clips}
        if None in labels:
            raise ValueError("all clips must be labelled for training")
        if labels != {Label.DEPRESSED, Label.NONDEPRESSED}:
            raise ValueError("training corpus must contain both classes")


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings for the synthetic stand-in corpus.

    Depression signal is encoded twice so both subsystems can learn it:
    depressed clips get a baseline shift of ``class_separation`` on every AU
    (clip-level signal) and the within-window intensity trend ramps up for
    depressed participants and down for non-depressed ones (short-term
    signal). ``class_separation=0`` makes the two classes statistically
    identical.
    """

    n_participants: int = 30
    frames_per_clip: int = 9000
    class_separation: float = 2.0
    noise_std: float = 0.3
    seed: int = 7

    def __post_init__(self):
        # Each check is written so that NaN fails it.
        if self.n_participants < 2 or self.n_participants % 2 != 0:
            raise ValueError("n_participants must be even and >= 2 (balanced classes)")
        if not self.frames_per_clip >= 2 * DEFAULT_WINDOW:
            raise ValueError(
                f"frames_per_clip must be >= {2 * DEFAULT_WINDOW} (two default windows)"
            )
        if not self.class_separation >= 0:
            raise ValueError("class_separation must be nonnegative")
        if not self.noise_std > 0:
            raise ValueError("noise_std must be positive")


def _is_au_column(name: str) -> bool:
    name = name.strip()
    return "AU" in name and name.endswith("_r")


def parse_au_csv(
    source: str | Iterable[str],
    participant_id: str = "clip",
    label: Label | None = None,
) -> AUClip:
    """Read one clip from CSV text (a string, a text file or an iterable of lines).

    The header must name exactly 17 AU intensity columns; other columns are
    ignored. Column order in the file is preserved in the frame matrix.

    The header is read with ``csv``, and the body of a string or file with
    NumPy's C reader, which converts each AU cell exactly as ``float`` does.
    A per-cell loop, the only code that locates bad input, parses the body
    instead when csv's rules could differ, when the C reader rejects it or
    finds no data line or a non-finite value, and for an iterable of lines.
    It accepts what ``float`` accepts, skips blank, whitespace-only and
    comma-only rows, and raises ``ParseError`` naming the bad cell's line and
    column.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyClip("empty CSV: no header row") from None

    au_indices = [i for i, name in enumerate(header) if _is_au_column(name)]
    if len(au_indices) < AU_COUNT:
        raise MissingColumn(
            f"expected {AU_COUNT} AU intensity columns, found {len(au_indices)}"
        )
    if len(au_indices) > AU_COUNT:
        raise ExtraColumn(
            f"expected {AU_COUNT} AU intensity columns, found {len(au_indices)}"
        )

    if hasattr(source, "read"):
        body = source.read()
        # A quote or a CR brings in csv's quoting and line rules; the C reader
        # strips \x1c-\x1f around a number, which float() rejects in ASCII.
        if body.strip() and not any(char in body for char in '"\r\x1c\x1d\x1e\x1f'):
            try:
                frames = np.loadtxt(
                    body.split("\n"), delimiter=",", comments=None, usecols=au_indices, ndmin=2
                )
            except ValueError:
                pass  # the loop below locates the bad cell
            else:
                if np.isfinite(frames).all():
                    return AUClip(participant_id=participant_id, frames=frames, label=label)
        reader = csv.reader(io.StringIO(body))

    rows = []
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        values = []
        for i in au_indices:
            cell = row[i] if i < len(row) else ""
            try:
                value = float(cell)
            except ValueError:
                value = math.nan  # one message for unparsable and non-finite cells
            if not math.isfinite(value):
                raise ParseError(
                    f"line {line_no}, column {header[i]!r}: {cell!r} is not a finite number"
                )
            values.append(value)
        rows.append(values)
    if not rows:
        raise EmptyClip("CSV has a header but no data rows")
    return AUClip(participant_id=participant_id, frames=np.array(rows), label=label)


def read_clip(path: str | Path, participant_id: str, label: Label | None = None) -> AUClip:
    """Parse one clip CSV file; a parse error names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return parse_au_csv(fh, participant_id, label)
        except (MissingColumn, ExtraColumn, ParseError, EmptyClip) as exc:
            raise type(exc)(f"{path}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def emit_au_csv(clip: AUClip) -> str:
    """Serialize a clip back to CSV with canonical AU column names.

    Values are written with shortest round-trip precision, so
    ``parse_au_csv(emit_au_csv(c))`` reproduces ``c.frames`` bit for bit.
    Rows are joined as plain text: no name or float repr holds a comma, a
    quote or a line break, so the text equals the output of a ``csv.writer``
    with a newline line terminator byte for byte.
    """
    lines = ["frame," + ",".join(AU_COLUMN_NAMES)]
    lines += [f"{i}," + ",".join(map(repr, row)) for i, row in enumerate(clip.frames.tolist())]
    return "\n".join(lines) + "\n"


def check_segmentable(clips: Sequence[AUClip], window: int, stride: int):
    """Reject bad window settings and every clip shorter than ``window``."""
    if not window >= 2:
        raise ValueError("window must be >= 2")
    if not stride >= 1:
        raise ValueError("stride must be >= 1")
    short = [
        f"clip {c.participant_id!r} has {c.n_frames} frames"
        for c in clips
        if c.n_frames < window
    ]
    if short:
        raise ClipTooShort(f"{', '.join(short)}; needs at least {window}")


def segment_clip(clip: AUClip, window: int, stride: int) -> list[Segment]:
    """Cut a clip into fixed-length windows at start indices 0, stride, ...

    A trailing remainder shorter than ``window`` is dropped; the returned
    segment count is ``floor((n_frames - window) / stride) + 1``.
    """
    check_segmentable([clip], window, stride)
    return [
        Segment(
            source_id=clip.participant_id,
            start_index=start,
            frames=clip.frames[start : start + window],
        )
        for start in range(0, clip.n_frames - window + 1, stride)
    ]


# Synthetic generator internals. The intensity trend is a zero-mean sawtooth
# with this period, aligned with the default window so each default segment
# sees one clean ramp; the per-period rise is half the class separation.
TREND_PERIOD = DEFAULT_WINDOW
BASE_LEVEL = 1.25
# Small fixed per-AU offsets, identical for both classes.
_AU_PROFILE = np.linspace(-0.3, 0.3, AU_COUNT)
_PARTICIPANT_JITTER_STD = 0.1


def synth_corpus(config: SynthConfig) -> Corpus:
    """Generate a balanced labelled corpus, deterministic given the seed.

    Participant ids alternate classes: P001 depressed, P002 non-depressed,
    and so on.
    """
    rng = np.random.default_rng(config.seed)
    m = config.frames_per_clip
    phase = np.arange(m) % TREND_PERIOD
    ramp = (phase - (TREND_PERIOD - 1) / 2.0) / TREND_PERIOD  # zero-mean in [-.5, .5)
    trend_amp = 0.5 * config.class_separation

    clips = []
    for idx in range(config.n_participants):
        depressed = idx % 2 == 0
        label = Label.DEPRESSED if depressed else Label.NONDEPRESSED
        shift = config.class_separation if depressed else 0.0
        slope = trend_amp if depressed else -trend_amp
        jitter = rng.normal(0.0, _PARTICIPANT_JITTER_STD, AU_COUNT)
        noise = rng.normal(0.0, config.noise_std, (m, AU_COUNT))
        frames = BASE_LEVEL + _AU_PROFILE + shift + jitter + slope * ramp[:, None] + noise
        clips.append(AUClip(f"P{idx + 1:03d}", frames, label))
    return Corpus(clips)


def write_corpus(corpus: Corpus, directory: str | Path) -> Path:
    """Write per-clip CSVs plus a line-delimited JSON manifest; returns the
    manifest path."""
    directory = Path(directory)
    (directory / CLIP_DIR).mkdir(parents=True, exist_ok=True)
    manifest_path = directory / MANIFEST_NAME
    with open(manifest_path, "w", encoding="utf-8") as manifest:
        for clip in corpus.clips:
            rel = f"{CLIP_DIR}/{clip.participant_id}.csv"
            with open(directory / rel, "w", encoding="utf-8") as fh:
                fh.write(emit_au_csv(clip))
            record = {
                "participant_id": clip.participant_id,
                "label": clip.label.value if clip.label is not None else None,
                "path": rel,
            }
            manifest.write(json.dumps(record) + "\n")
    return manifest_path


def read_corpus(directory: str | Path) -> Corpus:
    """Load a corpus written by :func:`write_corpus`; a bad manifest record
    or a missing clip file is reported with the manifest and its line."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {directory}")
    clips = []
    first_line: dict[str, int] = {}
    with open(manifest_path, encoding="utf-8") as manifest:
        for line_no, line in enumerate(manifest, start=1):
            if not line.strip():
                continue
            at = f"{manifest_path}: line {line_no}"
            try:
                record = json.loads(line)
                label = Label(record["label"]) if record["label"] is not None else None
                clip_path = directory / record["path"]
                if not clip_path.is_file():
                    raise ValueError(f"clip file not found: {clip_path}")
                participant_id = record["participant_id"]
                if participant_id in first_line:
                    raise ValueError(
                        f"duplicate participant id {participant_id!r}"
                        f" (first on line {first_line[participant_id]})"
                    )
            except json.JSONDecodeError as exc:
                raise ValueError(f"{at}: {exc.msg} at column {exc.colno}") from None
            except KeyError as exc:
                raise ValueError(f"{at}: missing key {exc}") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{at}: {exc}") from None
            first_line[participant_id] = line_no
            clips.append(read_clip(clip_path, participant_id, label))
    return Corpus(clips)


def read_json(path: str | Path, keys: Sequence[str] = ()) -> dict:
    """The JSON object in ``path``; text that is not a JSON object, or one
    without every key in ``keys``, raises a ValueError naming the file."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise ValueError(f"{path}: missing keys {missing}")
    return payload


def pooled_class_frames(clips: Sequence[AUClip]) -> dict[Label, np.ndarray]:
    """Stack all frames of all clips per class into one matrix per class."""
    groups: dict[Label, list[np.ndarray]] = {}
    for clip in clips:
        if clip.label is None:
            raise ValueError(f"clip {clip.participant_id!r} is unlabelled")
        groups.setdefault(clip.label, []).append(clip.frames)
    return {label: np.vstack(mats) for label, mats in groups.items()}
