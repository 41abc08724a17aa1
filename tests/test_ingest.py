import csv
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aufusion.ingest import (
    AU_COLUMN_NAMES,
    AU_COUNT,
    AUClip,
    ClipTooShort,
    Corpus,
    EmptyClip,
    ExtraColumn,
    Label,
    MissingColumn,
    ParseError,
    SynthConfig,
    emit_au_csv,
    parse_au_csv,
    pooled_class_frames,
    read_corpus,
    segment_clip,
    synth_corpus,
    write_corpus,
)


def _csv_text(frames, names=None, extra_col=False):
    names = list(names or AU_COLUMN_NAMES)
    header = ["frame"] + names + (["confidence"] if extra_col else [])
    lines = [",".join(header)]
    for i, row in enumerate(frames):
        cells = [str(i)] + [repr(float(v)) for v in row] + (["0.9"] if extra_col else [])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class TestParseAuCsv:
    def test_zero_matrix(self):
        clip = parse_au_csv(_csv_text(np.zeros((2, AU_COUNT))))
        assert clip.frames.shape == (2, AU_COUNT)
        assert (clip.frames == 0.0).all()

    def test_sixteen_columns_rejected(self):
        text = _csv_text(np.zeros((2, 16)), names=AU_COLUMN_NAMES[:16])
        with pytest.raises(MissingColumn):
            parse_au_csv(text)

    def test_eighteen_columns_rejected(self):
        names = AU_COLUMN_NAMES + ["AU99_r"]
        text = _csv_text(np.zeros((2, 18)), names=names)
        with pytest.raises(ExtraColumn):
            parse_au_csv(text)

    def test_non_numeric_cell(self):
        text = _csv_text(np.zeros((2, AU_COUNT))).replace("0.0", "oops", 1)
        with pytest.raises(ParseError):
            parse_au_csv(text)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_cell_names_line_and_column(self, cell):
        frames = np.zeros((3, AU_COUNT))
        frames[1, 4] = float(cell)
        with pytest.raises(ParseError, match=f"line 3, column '{AU_COLUMN_NAMES[4]}'.*{cell}"):
            parse_au_csv(_csv_text(frames))

    def test_header_only(self):
        with pytest.raises(EmptyClip):
            parse_au_csv(",".join(AU_COLUMN_NAMES) + "\n")

    def test_non_au_columns_ignored(self):
        clip = parse_au_csv(_csv_text(np.ones((3, AU_COUNT)), extra_col=True))
        assert clip.frames.shape == (3, AU_COUNT)
        assert (clip.frames == 1.0).all()

    def test_accepts_file_object(self):
        buf = io.StringIO(_csv_text(np.zeros((2, AU_COUNT))))
        assert parse_au_csv(buf, "p1", Label.DEPRESSED).participant_id == "p1"

    def test_round_trip_random_file(self):
        rng = np.random.default_rng(42)
        frames = rng.uniform(0.0, 5.0, (100, AU_COUNT))
        first = parse_au_csv(_csv_text(frames))
        second = parse_au_csv(emit_au_csv(first))
        np.testing.assert_array_equal(first.frames, second.frames)


def reference_parse(source, participant_id="clip", label=None):
    """The per-cell csv loop that parsed every body before the C reader did;
    the oracle."""
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyClip("empty CSV: no header row") from None
    names = [name.strip() for name in header]
    au_indices = [i for i, name in enumerate(names) if "AU" in name and name.endswith("_r")]
    if len(au_indices) < AU_COUNT:
        raise MissingColumn(f"expected {AU_COUNT} AU intensity columns, found {len(au_indices)}")
    if len(au_indices) > AU_COUNT:
        raise ExtraColumn(f"expected {AU_COUNT} AU intensity columns, found {len(au_indices)}")
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
                value = math.nan
            if not math.isfinite(value):
                raise ParseError(
                    f"line {line_no}, column {header[i]!r}: {cell!r} is not a finite number"
                )
            values.append(value)
        rows.append(values)
    if not rows:
        raise EmptyClip("CSV has a header but no data rows")
    return AUClip(participant_id=participant_id, frames=np.array(rows), label=label)


def reference_emit(clip):
    """``csv.writer`` output, as ``emit_au_csv`` wrote it before; the oracle."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["frame"] + AU_COLUMN_NAMES)
    for idx, row in enumerate(clip.frames):
        writer.writerow([idx] + [repr(float(v)) for v in row])
    return out.getvalue()


def outcome(parse, source):
    """Frames as int64 bits (so -0.0 and 0.0 differ), or the exception's type
    and message; a warning is raised as an error and so shows in the outcome."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return parse(source).frames.view(np.int64).tolist()
        except Exception as exc:  # noqa: BLE001
            return type(exc), str(exc)


def _rows(n=4, seed=0):
    rng = np.random.default_rng(seed)
    return [[repr(v) for v in row] for row in rng.uniform(0.0, 5.0, (n, AU_COUNT)).tolist()]


def _text(rows, header=("frame", *AU_COLUMN_NAMES), newline="\n"):
    lines = [",".join(header)] + [",".join(row) if isinstance(row, list) else row for row in rows]
    return newline.join(lines) + newline


def _with_cell(row, column, cell):
    return row[:column] + [cell] + row[column + 1 :]


_MIXED_HEADER = [
    "frame", "timestamp", *AU_COLUMN_NAMES[:6], "confidence", "face_id", "pose",
    *AU_COLUMN_NAMES[6:], "success",
]


def _mixed(row, confidence="0.98"):
    """A row for ``_MIXED_HEADER``: non-AU cells before, between and after."""
    return ["0", "0.033", *row[:6], confidence, "0", "1.5", *row[6:], "1"]


def _synthetic_text(seed):
    config = SynthConfig(n_participants=2, frames_per_clip=300, seed=seed)
    return emit_au_csv(synth_corpus(config).clips[seed % 2])


PARSE_CASES = {
    "emitted-synthetic-0": lambda: _synthetic_text(0),
    "emitted-synthetic-1": lambda: _synthetic_text(1),
    "negative-zero": lambda: _text(
        [_with_cell(_with_cell(r, 0, "-0.0"), 16, "-0") for r in _rows()], AU_COLUMN_NAMES
    ),
    "non-au-columns": lambda: _text([_mixed(r) for r in _rows()], header=_MIXED_HEADER),
    # Split at its commas, the quoted cell would fill the two non-AU columns
    # after it and shift numeric cells into the AU columns without an error.
    "quoted-list-between-au-columns": lambda: _text(
        [_mixed(r, confidence='"1,2,3"') for r in _rows()], header=_MIXED_HEADER
    ),
    "quoted-au-cell": lambda: _text([_with_cell(r, 3, '"2.5"') for r in _rows()], AU_COLUMN_NAMES),
    "underscore-digits": lambda: _text(
        [_with_cell(r, 0, "1_000") for r in _rows()], AU_COLUMN_NAMES
    ),
    "non-ascii-digits": lambda: _text(
        [_with_cell(r, 5, "\u0663.\u0665") for r in _rows()], AU_COLUMN_NAMES
    ),
    "blank-space-comma-rows": lambda: _text(
        [_rows()[0], "", "   ", ",,,,", _rows()[1], " , ,"], AU_COLUMN_NAMES
    ),
    "crlf": lambda: _text(_rows(), AU_COLUMN_NAMES, newline="\r\n"),
    "cr-only": lambda: _text(_rows(), AU_COLUMN_NAMES, newline="\r"),
    # csv rejects a bare CR inside a line. NumPy 2's C reader rejects it too,
    # but the body goes to the loop before the C reader sees it.
    "cr-between-rows": lambda: _text(
        [",".join(_rows()[0]) + "\r" + ",".join(_rows()[1])], AU_COLUMN_NAMES
    ),
    # float() does not strip \x1c-\x1f from ASCII text; the C reader does.
    "info-separator-after-number": lambda: _text(
        [_with_cell(r, 2, "1.5\x1c") for r in _rows()], AU_COLUMN_NAMES
    ),
    "short-row": lambda: _text([_rows()[0], _rows()[1][:10]], AU_COLUMN_NAMES),
    "empty-cell": lambda: _text([_rows()[0], _with_cell(_rows()[1], 7, "")], AU_COLUMN_NAMES),
    "nan": lambda: _text([_rows()[0], _with_cell(_rows()[1], 4, "nan")], AU_COLUMN_NAMES),
    "inf": lambda: _text([_with_cell(_rows()[0], 16, "-inf")], AU_COLUMN_NAMES),
    "overflow": lambda: _text([_rows()[0], _with_cell(_rows()[1], 9, "1e400")], AU_COLUMN_NAMES),
    "header-only": lambda: _text([], header=_MIXED_HEADER),
    "header-and-blank-lines": lambda: _text(["", "  "], header=_MIXED_HEADER),
}


class TestParseMatchesReference:
    """The C reader and the per-cell loop give the reference's frames or its
    error, and never a warning."""

    @pytest.mark.parametrize("case", PARSE_CASES)
    def test_text(self, case):
        text = PARSE_CASES[case]()
        assert outcome(parse_au_csv, text) == outcome(reference_parse, text)

    @pytest.mark.parametrize("case", ["emitted-synthetic-0", "non-au-columns", "crlf", "nan"])
    def test_file_and_lines(self, tmp_path, case):
        # A file opened in text mode turns CRLF into LF, so the CRLF file
        # takes the C reader; a list of lines takes the loop.
        path = tmp_path / "clip.csv"
        path.write_bytes(PARSE_CASES[case]().encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            expected = outcome(reference_parse, fh)
        with open(path, encoding="utf-8") as fh:
            assert outcome(parse_au_csv, fh) == expected
        with open(path, encoding="utf-8") as fh:
            assert outcome(parse_au_csv, list(fh)) == expected

    def test_cases_reach_both_readers(self, monkeypatch):
        parsed_by_c_reader = []
        loadtxt = np.loadtxt

        def recording(*args, **kwargs):
            frames = loadtxt(*args, **kwargs)
            parsed_by_c_reader.append(frames.shape)
            return frames

        monkeypatch.setattr(np, "loadtxt", recording)
        parse_au_csv(PARSE_CASES["non-au-columns"]())
        assert parsed_by_c_reader == [(4, AU_COUNT)]
        parse_au_csv(PARSE_CASES["quoted-list-between-au-columns"]())
        assert len(parsed_by_c_reader) == 1


class TestEmitMatchesCsvWriter:
    def test_extreme_values(self):
        frames = np.array(
            [[-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e-300,
              1.7976931348623157e308, 0.1, 1 / 3, -2.5, 4.0, 1e16, 1e-7, 123456789.0, 1.0]] * 2
        )
        clip = AUClip("p", frames)
        assert emit_au_csv(clip) == reference_emit(clip)

    def test_synthetic_clip(self):
        clip = synth_corpus(SynthConfig(n_participants=2, frames_per_clip=300, seed=4)).clips[0]
        assert emit_au_csv(clip) == reference_emit(clip)


class TestAuClip:
    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            AUClip("p", np.zeros((5, AU_COUNT - 1)))

    def test_non_finite_rejected(self):
        frames = np.zeros((3, AU_COUNT))
        frames[1, 4] = np.nan
        with pytest.raises(ValueError):
            AUClip("p", frames)

    def test_frames_read_only(self):
        clip = AUClip("p", np.zeros((3, AU_COUNT)))
        with pytest.raises(ValueError):
            clip.frames[0, 0] = 1.0

    def test_duplicate_ids_rejected(self):
        clip = AUClip("p", np.zeros((3, AU_COUNT)))
        with pytest.raises(ValueError):
            Corpus([clip, AUClip("p", np.zeros((3, AU_COUNT)))])


class TestSegmentClip:
    def _clip(self, m):
        rng = np.random.default_rng(m)
        return AUClip("p", rng.normal(size=(m, AU_COUNT)))

    def test_exact_tiling(self):
        segs = segment_clip(self._clip(10), window=5, stride=5)
        assert [s.start_index for s in segs] == [0, 5]

    def test_boundary_arithmetic(self):
        # start 6 would need frames 6..10, one past the end
        segs = segment_clip(self._clip(10), window=5, stride=3)
        assert [s.start_index for s in segs] == [0, 3]

    def test_default_scale_count_matches_enumeration(self):
        m, window, stride = 9000, 150, 150
        expected_starts = [s for s in range(0, m) if s + window <= m and s % stride == 0]
        assert len(expected_starts) == 60
        segs = segment_clip(self._clip(m), window, stride)
        assert [s.start_index for s in segs] == expected_starts

    def test_too_short(self):
        with pytest.raises(ClipTooShort):
            segment_clip(self._clip(4), window=5, stride=1)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(min_value=2, max_value=60),
        window=st.integers(min_value=2, max_value=60),
        stride=st.integers(min_value=1, max_value=20),
    )
    def test_segments_are_exact_in_bounds_slices(self, m, window, stride):
        if m < window:
            return
        clip = self._clip(m)
        segs = segment_clip(clip, window, stride)
        assert len(segs) == (m - window) // stride + 1
        for i, seg in enumerate(segs):
            assert seg.start_index == i * stride
            assert seg.start_index + window <= m
            np.testing.assert_array_equal(
                seg.frames, clip.frames[seg.start_index : seg.start_index + window]
            )


class TestSynthCorpus:
    def test_same_seed_identical(self):
        config = SynthConfig(n_participants=4, frames_per_clip=450, seed=11)
        a, b = synth_corpus(config), synth_corpus(config)
        for ca, cb in zip(a.clips, b.clips):
            np.testing.assert_array_equal(ca.frames, cb.frames)
            assert ca.label == cb.label

    def test_balanced_labels(self):
        corpus = synth_corpus(SynthConfig(n_participants=6, frames_per_clip=450, seed=2))
        counts = {Label.DEPRESSED: 0, Label.NONDEPRESSED: 0}
        for clip in corpus.clips:
            counts[clip.label] += 1
        assert counts[Label.DEPRESSED] == counts[Label.NONDEPRESSED] == 3

    def test_zero_separation_classes_identical_in_distribution(self):
        config = SynthConfig(n_participants=10, frames_per_clip=600, class_separation=0.0, seed=5)
        pooled = pooled_class_frames(synth_corpus(config).clips)
        dep, ndep = pooled[Label.DEPRESSED], pooled[Label.NONDEPRESSED]
        gap = abs(dep.mean() - ndep.mean())
        assert gap < 0.1  # same generator up to sampling noise

    def test_class_mean_gap_matches_separation(self):
        config = SynthConfig(n_participants=30, frames_per_clip=900, seed=7)
        pooled = pooled_class_frames(synth_corpus(config).clips)
        diff = pooled[Label.DEPRESSED].mean(axis=0) - pooled[Label.NONDEPRESSED].mean(axis=0)
        # Participant baseline jitter dominates the spread of the per-class
        # mean: SEM ~ sqrt(2 * jitter_var / 15) per AU.
        frames_per_class = 15 * config.frames_per_clip
        sem = np.sqrt(2 * 0.1**2 / 15 + 2 * config.noise_std**2 / frames_per_class)
        assert (np.abs(diff - config.class_separation) < 3 * sem).all()

    def test_odd_participants_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(n_participants=29)

    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(n_participants=4, frames_per_clip=250)
        for field in ("frames_per_clip", "class_separation", "noise_std"):
            with pytest.raises(ValueError):
                SynthConfig(n_participants=4, **{field: float("nan")})


class TestCorpusRoundTrip:
    def test_write_read_identical(self, tmp_path):
        corpus = synth_corpus(SynthConfig(n_participants=4, frames_per_clip=450, seed=9))
        write_corpus(corpus, tmp_path)
        loaded = read_corpus(tmp_path)
        assert [c.participant_id for c in loaded.clips] == [
            c.participant_id for c in corpus.clips
        ]
        for ca, cb in zip(corpus.clips, loaded.clips):
            np.testing.assert_array_equal(ca.frames, cb.frames)
            assert ca.label == cb.label

    def test_parse_error_names_the_file(self, tmp_path):
        corpus = synth_corpus(SynthConfig(n_participants=2, frames_per_clip=300, seed=9))
        write_corpus(corpus, tmp_path)
        clip = tmp_path / "clips" / "P002.csv"
        lines = clip.read_text().splitlines()
        cells = lines[4].split(",")
        cells[1] = "inf"
        lines[4] = ",".join(cells)
        clip.write_text("\n".join(lines) + "\n")
        where = re.escape(str(clip))
        with pytest.raises(ParseError, match=f"^{where}: line 5, column 'AU01_r': 'inf'"):
            read_corpus(tmp_path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda rec: json.dumps({k: v for k, v in rec.items() if k != "label"}),
             "missing key 'label'"),
            (lambda rec: "{" + json.dumps(rec)[2:], "Expecting property name"),
            (lambda rec: json.dumps({**rec, "label": "Sad"}), "'Sad' is not a valid Label"),
            (lambda rec: json.dumps({**rec, "path": "clips/P404.csv"}), "clip file not found"),
            (lambda rec: json.dumps({**rec, "participant_id": "P001"}),
             r"duplicate participant id 'P001' \(first on line 1\)$"),
        ],
        ids=["no-label", "bad-json", "bad-label", "no-clip-file", "duplicate-id"],
    )
    def test_bad_manifest_record_names_file_and_line(self, tmp_path, edit, message):
        corpus = synth_corpus(SynthConfig(n_participants=2, frames_per_clip=300, seed=9))
        manifest = write_corpus(corpus, tmp_path)
        lines = manifest.read_text().splitlines()
        lines[1] = edit(json.loads(lines[1]))
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(manifest))}: line 2: {message}"):
            read_corpus(tmp_path)
