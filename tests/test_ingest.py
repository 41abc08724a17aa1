import io
import json
import re

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
