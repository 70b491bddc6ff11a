import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvtfractals import (
    CellSet,
    DegenerateSeriesError,
    EmptyInputError,
    InsufficientDataError,
    SCALES,
    Notes,
    cells_to_notes,
    pitch_series,
    read_series_csv,
    spectral_exponent,
    write_midi,
    write_notes_csv,
    zero_carry_set,
)
from cvtfractals.melody import MAX_DELTA, MAX_TEMPO, MIN_TEMPO
from helpers import (
    _smf_vlq,
    brute_force_run_count,
    brute_force_runs,
    cell_keys,
    cell_pairs,
    csv_bytes,
    parse_smf,
    reference_midi,
    top_voice,
)

CSV_HEADER = "onset,duration,pitch,velocity"
# Notes' onset, duration and pitch columns
COLUMN_TYPES = (np.int64, np.int64, np.uint8)


def note_rows(notes):
    """The notes as (onset, duration, pitch) tuples in table order."""
    return list(zip(notes.onset.tolist(), notes.duration.tolist(), notes.pitch.tolist()))


def make_notes(*rows):
    """Notes from (onset, duration, pitch) tuples."""
    return Notes(*(list(col) for col in zip(*rows))) if rows else Notes([], [], [])


def csv_rows(rows):
    """(onset, duration, pitch) rows as written to CSV, every note at velocity 100."""
    return [row + (100,) for row in rows]


def run_walk_notes(pairs, extent, scale="major", base_pitch=60):
    """The notes of the brute-force run walk, and how many were clamped to 127.

    Notes are (onset, duration, pitch) tuples stably sorted by (onset, pitch), so
    notes tied on both keep the row-major order of their runs.
    """
    intervals = SCALES[scale]
    expected, high = [], 0
    for row, start, length in brute_force_runs(pairs):
        octave, degree = divmod(extent - 1 - row, len(intervals))
        raw = base_pitch + 12 * octave + intervals[degree]
        high += raw > 127
        expected.append((start * 120, length * 120, min(127, raw)))
    expected.sort(key=lambda n: (n[0], n[2]))
    return expected, high


@st.composite
def run_cells_st(draw, grids):
    """(base, depth, cells) on one of the (base, depth) grids: a few horizontal runs.

    Some runs end at a row's last column, some of those are followed by a run from
    column 0 of the next row, so that the two are adjacent keys; on grids of at most
    2**10 columns some runs fill their row.
    """
    base, depth = draw(st.sampled_from(grids))
    extent = base**depth
    short = st.integers(1, min(extent, 20))
    cells = set()
    for _ in range(draw(st.integers(1, 6))):
        row, length = draw(st.integers(0, extent - 1)), draw(short)
        kind = draw(st.sampled_from(["inside", "row-end", "wrap", "full-row"]))
        if kind == "full-row" and extent <= 2**10:
            start, length = 0, extent
        elif kind == "inside":
            start = draw(st.integers(0, extent - length))
        else:
            start = extent - length
        cells.update((row, col) for col in range(start, start + length))
        if kind == "wrap" and row + 1 < extent:
            cells.update((row + 1, col) for col in range(draw(short)))
    return base, depth, sorted(cells)


class TestCellsToNotes:
    def test_generator_melody(self):
        notes = cells_to_notes(zero_carry_set(2, 1))
        assert len(notes) == 2
        # bottom row maps to the base pitch, the row above to the next degree
        assert note_rows(notes) == [(0, 120, 60), (0, 240, 62)]

    def test_single_cell(self):
        notes = cells_to_notes(CellSet(2, 0, cell_keys([(0, 0)], 1)))
        assert note_rows(notes) == [(0, 120, 60)]

    def test_full_row_is_one_note(self):
        extent = 8
        cells = CellSet(2, 3, cell_keys([(0, c) for c in range(extent)], extent))
        notes = cells_to_notes(cells)
        assert len(notes) == 1
        assert notes.duration.tolist() == [extent * 120]

    def test_gap_splits_runs(self):
        cells = CellSet(2, 2, cell_keys([(1, 0), (1, 1), (1, 3)], 4))
        notes = cells_to_notes(cells)
        assert notes.onset.tolist() == [0, 360]
        assert notes.duration.tolist() == [240, 120]

    def test_empty_cells(self):
        with pytest.raises(EmptyInputError):
            cells_to_notes(CellSet(2, 1, []))

    def test_pitch_clamped_to_midi_range(self):
        cells = zero_carry_set(2, 6)  # extent 64, top rows push past pitch 127
        notes = cells_to_notes(cells, base_pitch=80)
        assert notes.pitch.max() == 127
        assert notes.pitch.min() >= 0

    def test_sorted_by_onset_then_pitch(self):
        notes = cells_to_notes(zero_carry_set(3, 3))
        keys = list(zip(notes.onset.tolist(), notes.pitch.tolist()))
        assert keys == sorted(keys)

    def test_runs_are_found_in_narrow_temporaries(self):
        # 177,147 cells: runs are found in 32-bit keys, each temporary dropped once used,
        # 18.5 B/cell; int64 run keys and their differences took 54 B/cell, and the bound
        # was 36 B/cell while the set held int64 keys
        cells = zero_carry_set(2, 11)
        tracemalloc.start()
        try:
            notes = cells_to_notes(cells)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(notes) == 88_574
        assert peak <= 22 * len(cells)

    @pytest.mark.parametrize("base,depth", [(2, 4), (2, 5), (3, 3), (5, 2)])
    def test_note_count_matches_run_oracle(self, base, depth):
        cells = zero_carry_set(base, depth)
        assert len(cells_to_notes(cells)) == brute_force_run_count(cell_pairs(cells))

    @pytest.mark.parametrize("base,depth", [(2, 5), (4, 2)])
    def test_total_duration_covers_every_cell(self, base, depth):
        cells = zero_carry_set(base, depth)
        notes = cells_to_notes(cells)
        assert int(notes.duration.sum()) == len(cells) * 120

    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=3),
        st.data(),
        st.sampled_from(sorted(SCALES)),
        st.integers(min_value=0, max_value=127),
    )
    @settings(max_examples=60)
    def test_notes_match_run_walk(self, base, depth, data, scale, base_pitch):
        extent = base**depth
        coord = st.integers(min_value=0, max_value=extent - 1)
        pairs = data.draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=40))
        cells = CellSet(base, depth, cell_keys(pairs, extent))
        expected, high = run_walk_notes(pairs, extent, scale, base_pitch)
        notes = cells_to_notes(cells, scale=scale, base_pitch=base_pitch)
        assert len(notes) == brute_force_run_count(pairs)
        assert note_rows(notes) == expected
        assert notes.clamped_high == high

    @pytest.mark.parametrize("grids", [
        [(2, 0), (2, 1), (3, 2), (16, 2), (17, 2), (2, 10), (256, 2)],
        [(300, 2), (2, 17), (2**16 + 1, 1), (3, 11)],
    ], ids=["8-and-16-bit-columns", "32-bit-columns"])
    @given(data=st.data(), scale=st.sampled_from(sorted(SCALES)),
           base_pitch=st.integers(min_value=0, max_value=127))
    @settings(max_examples=80, deadline=None)
    def test_runs_at_row_ends_match_run_walk(self, grids, data, scale, base_pitch):
        # a run ending at a row's last column and one starting at the next row's
        # column 0 are adjacent keys, and must stay two notes; the grids put the
        # columns in 8-, 16- and 32-bit sort keys, with sparse cells on the widest
        base, depth, pairs = data.draw(run_cells_st(grids))
        cells = CellSet(base, depth, cell_keys(pairs, base**depth))
        expected, high = run_walk_notes(pairs, base**depth, scale, base_pitch)
        notes = cells_to_notes(cells, scale=scale, base_pitch=base_pitch)
        assert note_rows(notes) == expected
        assert notes.clamped_high == high

    @given(
        st.integers(min_value=0, max_value=63),
        st.lists(st.tuples(st.integers(0, 35), st.integers(1, 20)), min_size=2, max_size=8,
                 unique_by=lambda run: run[0]),
        st.sampled_from(sorted(SCALES)),
        st.integers(min_value=100, max_value=127),
    )
    @settings(max_examples=60, deadline=None)
    def test_tied_clamped_notes_keep_row_major_order_in_csv(
            self, tmp_path_factory, start, runs, scale, base_pitch):
        # rows 0..35 of a 64-row grid rank 28 or more from the bottom, so from
        # base pitch 100 every scale clamps them to 127: runs from one column tie on
        # (onset, pitch), and the CSV shows their durations in row-major order
        pairs = sorted({(row, col) for row, length in runs
                        for col in range(start, min(64, start + length))})
        notes = cells_to_notes(CellSet(2, 6, cell_keys(pairs, 64)), scale=scale,
                               base_pitch=base_pitch)
        expected, high = run_walk_notes(pairs, 64, scale, base_pitch)
        assert high == len(runs)
        path = tmp_path_factory.mktemp("ties") / "n.csv"
        write_notes_csv(notes, path)
        assert path.read_bytes() == csv_bytes(csv_rows(expected), header=CSV_HEADER)

    def test_scale_degrees(self):
        cells = CellSet(8, 1, cell_keys([(row, 0) for row in range(8)], 8))
        notes = cells_to_notes(cells, scale="major", base_pitch=60)
        assert sorted(notes.pitch.tolist()) == [60, 62, 64, 65, 67, 69, 71, 72]

    def test_unknown_scale(self):
        with pytest.raises(ValueError, match="unknown scale"):
            cells_to_notes(zero_carry_set(3, 2), scale="dorian-ish")

    @pytest.mark.parametrize("scale", [(0, 2, 3, 5, 7, 8, 10), [0, 2, 4]], ids=["tuple", "list"])
    def test_refuses_explicit_intervals(self, scale):
        with pytest.raises(ValueError, match="unknown scale"):
            cells_to_notes(zero_carry_set(3, 2), scale=scale)

    @pytest.mark.parametrize("base_pitch", [-1, 128])
    def test_refuses_base_pitch_outside_midi_range(self, base_pitch):
        with pytest.raises(ValueError, match=r"base_pitch must be in \[0, 127\]"):
            cells_to_notes(zero_carry_set(3, 2), base_pitch=base_pitch)


class TestPitchSeries:
    def test_max_reduction_at_shared_onset(self):
        notes = make_notes((0, 120, 60), (0, 120, 64))
        assert pitch_series(notes) == [64.0]

    def test_sequential_onsets(self):
        notes = make_notes((0, 120, 60), (120, 120, 62), (240, 120, 64))
        assert pitch_series(notes) == [60.0, 62.0, 64.0]

    def test_held_note_does_not_mask_later_onsets(self):
        notes = make_notes((0, 500, 70), (100, 100, 50))
        assert pitch_series(notes) == [70.0, 50.0]

    def test_length_is_distinct_onset_count(self):
        notes = cells_to_notes(zero_carry_set(2, 4))
        assert len(pitch_series(notes)) == len(set(notes.onset.tolist()))

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            pitch_series(make_notes())


class TestSpectralExponent:
    def test_white_noise(self):
        rng = np.random.default_rng(0)
        report = spectral_exponent(rng.uniform(size=4096))
        assert -0.3 <= report.beta <= 0.3
        assert report.series_length == 4096
        assert report.frequencies_used == 2048

    def test_random_walk(self):
        rng = np.random.default_rng(0)
        report = spectral_exponent(np.cumsum(rng.uniform(size=4096)))
        assert 1.6 <= report.beta <= 2.4

    def test_constant_series(self):
        # 0.3, 0.7 and 107.3 have no exact float mean, so mean removal leaves residue
        for series in ([5.0] * 64, [0.3] * 1000, [0.7] * 100, [107.3] * 1024):
            with pytest.raises(DegenerateSeriesError, match="zero variance"):
                spectral_exponent(series)

    @pytest.mark.parametrize("series", [
        np.cos(2 * np.pi * 3 * np.arange(64) / 64),
        np.sin(2 * np.pi * 5 * np.arange(128) / 128) + 3,
        [1.0, -1.0] * 32,
    ], ids=["cos-3-of-64", "sin-5-of-128", "nyquist"])
    def test_pure_tone_has_one_bin_above_rounding(self, series):
        # every other bin holds only FFT round-off, which is no slope to fit
        with pytest.raises(DegenerateSeriesError, match="fewer than 2 frequency bins"):
            spectral_exponent(series)

    @pytest.mark.parametrize("series", [
        # the top voice of `music --base 2 --depth 6 --base-pitch 0`; its periodogram
        # is exactly flat
        [108.0] + [107.0] * 31,
        # single spikes elsewhere, whose periodograms are flat up to rounding
        [107.0] * 20 + [108.0] + [107.0] * 12,
        [0.0] * 99 + [1.0],
    ], ids=["readme-example", "spike-33", "spike-100"])
    def test_flat_spectrum_refused(self, series):
        with pytest.raises(DegenerateSeriesError, match="flat"):
            spectral_exponent(series)

    @pytest.mark.parametrize(
        "series",
        [
            [float("nan")] * 64,
            [0.0] * 31 + [float("inf")] + [1.0] * 32,
            list(range(63)) + [float("nan")],
            [float("-inf")] + [1.0, 2.0] * 32,
        ],
    )
    def test_non_finite_series_rejected(self, series):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSeriesError, match="non-finite"):
                spectral_exponent(series)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            spectral_exponent(list(range(31)))

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=0.01, max_value=100),
    )
    @settings(max_examples=40)
    def test_shift_and_scale_invariance(self, seed, shift, scale):
        rng = np.random.default_rng(seed)
        series = rng.normal(size=256)
        base = spectral_exponent(series)
        shifted = spectral_exponent(series + shift)
        scaled = spectral_exponent(series * scale)
        assert shifted.beta == pytest.approx(base.beta, abs=1e-6)
        assert scaled.beta == pytest.approx(base.beta, abs=1e-6)


class TestWriteMidi:
    def test_events_are_built_in_narrow_words(self, tmp_path):
        # 88,574 notes: the event ticks fit 32-bit keys, sorted in place, and every delta
        # one VLQ byte, so each event is a 32-bit word; at most the keys, the words and one
        # temporary of their size live at once, 8 B/note each: 24 B/note. int64 ticks and
        # words took 98 B/note, and a merge sort's permutation beside the ticks 50 to 61 B/note
        notes = cells_to_notes(zero_carry_set(2, 11))
        tracemalloc.start()
        try:
            write_midi(notes, tempo_bpm=120, path=tmp_path / "m.mid")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 26 * len(notes)

    def test_empty_notes(self, tmp_path):
        path = tmp_path / "empty.mid"
        write_midi(make_notes(), tempo_bpm=120, path=path)
        data = path.read_bytes()
        assert data.startswith(b"MThd")
        division, tempo_us, notes = parse_smf(data)
        assert division == 480
        assert tempo_us == 500_000
        assert notes == []

    def test_single_note_deltas(self, tmp_path):
        path = tmp_path / "one.mid"
        write_midi(make_notes((0, 120, 60)), tempo_bpm=120, path=path)
        data = path.read_bytes()
        # after the tempo event: delta 0 note-on 60, delta 120 note-off 60
        assert b"\x00\x90\x3c\x64\x78\x80\x3c\x40" in data
        _, _, notes = parse_smf(data)
        assert notes == [(0, 120, 60)]

    def test_header_and_single_track(self, tmp_path):
        path = tmp_path / "m.mid"
        notes = cells_to_notes(zero_carry_set(2, 3))
        write_midi(notes, tempo_bpm=90, path=path)
        data = path.read_bytes()
        assert data.startswith(b"MThd")
        assert data.count(b"MTrk") == 1

    @pytest.mark.parametrize("base,depth", [(2, 4), (3, 3)])
    def test_round_trip_multiset(self, tmp_path, base, depth):
        notes = cells_to_notes(zero_carry_set(base, depth))
        path = tmp_path / "rt.mid"
        write_midi(notes, tempo_bpm=120, path=path)
        _, _, parsed = parse_smf(path.read_bytes())
        assert sorted(parsed) == sorted(note_rows(notes))

    def test_byte_stable(self, tmp_path):
        notes = cells_to_notes(zero_carry_set(3, 2))
        a, b = tmp_path / "a.mid", tmp_path / "b.mid"
        write_midi(notes, tempo_bpm=120, path=a)
        write_midi(notes, tempo_bpm=120, path=b)
        assert a.read_bytes() == b.read_bytes()

    def test_simultaneous_offs_precede_ons(self, tmp_path):
        notes = make_notes((0, 100, 60), (100, 100, 62))
        path = tmp_path / "seq.mid"
        write_midi(notes, tempo_bpm=120, path=path)
        data = path.read_bytes()
        off_60 = data.index(b"\x80\x3c")
        on_62 = data.index(b"\x90\x3e")
        assert off_60 < on_62

    def test_tempo_too_slow_for_three_bytes(self, tmp_path):
        with pytest.raises(ValueError):
            write_midi(make_notes(), tempo_bpm=3, path=tmp_path / "x.mid")

    @pytest.mark.parametrize("tempo", [7813, 45_000_000, 100_000_000])
    def test_tempo_outside_the_exact_range_refused(self, tmp_path, tempo):
        # above 7812 bpm tempos share their rounded microseconds, and
        # 40M..120M bpm all became 1 us
        path = tmp_path / "x.mid"
        with pytest.raises(ValueError, match=r"tempo_bpm must be in \[4, 7812\]"):
            write_midi(make_notes((0, 120, 60)), tempo_bpm=tempo, path=path)
        assert not path.exists()

    @pytest.mark.parametrize("tempo", [4, 7812])
    def test_tempo_range_ends_read_back(self, tmp_path, tempo):
        path = tmp_path / "x.mid"
        write_midi(make_notes((0, 120, 60)), tempo_bpm=tempo, path=path)
        _, tempo_us, _ = parse_smf(path.read_bytes())
        assert round(60_000_000 / tempo_us) == tempo

    def test_tempo_range_is_every_tempo_that_reads_back(self):
        def exact(t):
            return round(60_000_000 / round(60_000_000 / t)) == t

        assert round(60_000_000 / MIN_TEMPO) <= 0xFFFFFF < round(60_000_000 / (MIN_TEMPO - 1))
        assert all(exact(t) for t in range(MIN_TEMPO, MAX_TEMPO + 1))
        assert not exact(MAX_TEMPO + 1)

    @pytest.mark.parametrize("tempo", [0, -120, 0.0])
    def test_non_positive_tempo(self, tmp_path, tempo):
        path = tmp_path / "x.mid"
        with pytest.raises(ValueError, match=r"tempo_bpm must be in \[4, 7812\]"):
            write_midi(make_notes(), tempo_bpm=tempo, path=path)
        assert not path.exists()

    def test_long_delta_uses_vlq(self, tmp_path):
        notes = make_notes((0, 100, 60), (100_000, 50, 61))
        path = tmp_path / "vlq.mid"
        write_midi(notes, tempo_bpm=120, path=path)
        _, _, parsed = parse_smf(path.read_bytes())
        assert sorted(parsed) == [(0, 100, 60), (100_000, 50, 61)]


class TestNotesCsv:
    def test_empty_list(self, tmp_path):
        path = tmp_path / "notes.csv"
        write_notes_csv(make_notes(), path)
        assert path.read_bytes() == b"onset,duration,pitch,velocity\n"

    def test_single_note(self, tmp_path):
        path = tmp_path / "notes.csv"
        write_notes_csv(make_notes((0, 120, 60)), path)
        assert path.read_bytes() == b"onset,duration,pitch,velocity\n0,120,60,100\n"

    def test_round_trip(self, tmp_path):
        notes = cells_to_notes(zero_carry_set(3, 2))
        path = tmp_path / "notes.csv"
        write_notes_csv(notes, path)
        lines = path.read_text().splitlines()
        parsed = [tuple(int(v) for v in line.split(",")) for line in lines[1:]]
        assert parsed == csv_rows(note_rows(notes))


class TestReadSeriesCsv:
    def test_plain_values(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("1.5\n2\n-3.25\n")
        assert read_series_csv(path) == [1.5, 2.0, -3.25]

    def test_optional_header(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("value\n1\n2\n")
        assert read_series_csv(path) == [1.0, 2.0]

    def test_header_after_blank_lines(self, tmp_path):
        # the header was allowed on the file's first line only, blank or not
        path = tmp_path / "series.csv"
        path.write_text("\n  \nvalue\n1\n\n2\n")
        assert read_series_csv(path) == [1.0, 2.0]

    def test_second_header_is_refused(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("\nvalue\nunits\n1\n")
        with pytest.raises(ValueError, match="line 3 of .* is not a number: 'units'"):
            read_series_csv(path)

    def test_garbage_mid_file(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("1\nbogus\n3\n")
        with pytest.raises(ValueError):
            read_series_csv(path)


class TestNotes:
    @pytest.mark.parametrize(
        "columns",
        [
            ([-1], [1], [60]),
            ([0], [0], [60]),
            ([0], [1], [128]),
            ([0], [1], [60.0]),
            ([0], [1], [-1]),
            ([0], [1], []),
            ([2**62], [1], [60]),
            ([0], [2**63], [60]),
            ([0], [1], [2**70]),
            ([0.5], [1], [60]),
            ([[0]], [[1]], [[60]]),
            ([0, 1], [1], [60]),
            ([0], [1, 1], [60, 60]),
        ],
    )
    def test_refuses_malformed_columns(self, columns):
        with pytest.raises(ValueError):
            Notes(*columns)

    def test_columns_are_read_only_copies(self):
        onset = np.array([5, 0])
        notes = Notes(onset, [1, 2], [60, 61])
        onset[0] = 99
        assert note_rows(notes) == [(0, 2, 61), (5, 1, 60)]
        for col, dtype in zip((notes.onset, notes.duration, notes.pitch), COLUMN_TYPES):
            assert col.dtype == dtype
            with pytest.raises(ValueError):
                col[0] = 1

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_ordered_and_shuffled_tables_build_equal_columns(self, data):
        # (onset, pitch) is unique, so a shuffled copy sorts back to the ordered table;
        # small onsets give many notes of one onset, told apart by their pitch alone
        onset_st = st.one_of(st.integers(0, 3), st.integers(0, 2**55 - 1))
        rows = sorted(data.draw(st.lists(
            st.tuples(onset_st, st.integers(1, 2**55 - 1), st.integers(0, 127)),
            unique_by=lambda row: (row[0], row[2]), max_size=30)), key=lambda row: (row[0], row[2]))
        ordered = [np.array(col, dtype=dtype)
                   for col, dtype in zip(list(zip(*rows)) or [()] * 3, COLUMN_TYPES)]
        given_bytes = [col.tobytes() for col in ordered]
        shuffle = np.array(data.draw(st.permutations(range(len(rows)))), dtype=np.intp)
        notes, shuffled = Notes(*ordered), Notes(*(col[shuffle] for col in ordered))
        columns = (notes.onset, notes.duration, notes.pitch)
        for col, given_col, built, rebuilt in zip(
                ordered, given_bytes, columns, (shuffled.onset, shuffled.duration, shuffled.pitch)):
            assert built.tobytes() == given_col and rebuilt.tobytes() == given_col
            # the caller's arrays are neither frozen, changed nor shared
            assert col.flags.writeable and col.tobytes() == given_col
            assert not np.shares_memory(col, built)
            assert not built.flags.writeable and built.dtype == col.dtype

    def test_stable_sort_by_onset_then_pitch(self):
        notes = make_notes((3, 1, 60), (0, 9, 70), (0, 4, 70), (0, 2, 50))
        assert note_rows(notes) == [(0, 2, 50), (0, 9, 70), (0, 4, 70), (3, 1, 60)]
        assert len(notes) == 4

    def test_refuses_a_velocity_column(self):
        # every note sounds at one velocity; clamped_high is keyword-only
        with pytest.raises(TypeError):
            Notes([0], [1], [60], [100])


BOUNDARY_DELTAS = [0, 1, 2**7 - 1, 2**7, 2**14 - 1, 2**14, 2**21 - 1, 2**21, MAX_DELTA]
delta_st = st.one_of(st.sampled_from(BOUNDARY_DELTAS), st.integers(0, MAX_DELTA))


@st.composite
def note_rows_st(draw):
    """(onset, duration, pitch) rows in any order, every MIDI delta <= MAX_DELTA.

    Onsets step by at most MAX_DELTA and notes last at most MAX_DELTA, so any
    two adjacent event times are at most MAX_DELTA apart.
    """
    rows, onset = [], 0
    for _ in range(draw(st.integers(0, 25))):
        onset += draw(delta_st)
        duration = draw(st.one_of(st.sampled_from(BOUNDARY_DELTAS[1:]), st.integers(1, 300)))
        pitch = draw(st.one_of(st.sampled_from([0, 60, 61, 127]), st.integers(0, 127)))
        rows.append((onset, duration, pitch))
    return draw(st.permutations(rows))


@st.composite
def vlq_width_rows_st(draw):
    """(rows, width): notes one after another whose longest MIDI delta needs `width` VLQ bytes.

    The deltas are each gap to the next onset (the first from tick 0) and each
    duration; one of them is the drawn longest, and every other is at most that.
    A note may sound with a second one of the same onset and duration, adding
    deltas of 0.
    """
    width = draw(st.integers(1, 4))
    lo = 0 if width == 1 else 2 ** (7 * (width - 1))
    hi = 2 ** (7 * width) - 1
    longest = draw(st.sampled_from([lo, hi]) | st.integers(lo, hi))
    count = draw(st.integers(1, 12))
    deltas = [draw(st.sampled_from([0, 1, longest]) | st.integers(0, longest))
              for _ in range(2 * count)]
    deltas[draw(st.integers(0, 2 * count - 1))] = longest
    rows, clock = [], 0
    for gap, duration in zip(deltas[::2], deltas[1::2]):
        onset, duration = clock + gap, max(1, duration)
        rows.append((onset, duration, draw(st.integers(0, 127))))
        if draw(st.booleans()):
            rows.append((onset, duration, draw(st.integers(0, 127))))
        clock = onset + duration
    return draw(st.permutations(rows)), width


class TestColumnarOracles:
    @given(note_rows_st(), st.sampled_from([4, 61, 120, 3000]))
    @settings(max_examples=80, deadline=None)
    def test_midi_matches_reference_encoder(self, tmp_path_factory, rows, tempo):
        path = tmp_path_factory.mktemp("midi") / "n.mid"
        write_midi(make_notes(*rows), tempo_bpm=tempo, path=path)
        data = path.read_bytes()
        assert data == reference_midi(rows, 480, tempo)
        division, tempo_us, parsed = parse_smf(data)
        assert (division, tempo_us) == (480, round(60_000_000 / tempo))
        # overlapping notes of one pitch pair up ambiguously, so compare the
        # note-on and note-off times of each pitch
        for is_end in (0, 1):
            assert sorted((n[2], n[0] + is_end * n[1]) for n in parsed) == sorted(
                (r[2], r[0] + is_end * r[1]) for r in rows)

    @given(vlq_width_rows_st(), st.sampled_from([4, 120, 7812]))
    @settings(max_examples=80, deadline=None)
    def test_vlq_width_set_by_longest_delta_matches_reference(
            self, tmp_path_factory, drawn, tempo):
        rows, width = drawn
        path = tmp_path_factory.mktemp("vlq") / "n.mid"
        write_midi(make_notes(*rows), tempo_bpm=tempo, path=path)
        data = path.read_bytes()
        assert data == reference_midi(rows, 480, tempo)
        ticks = sorted(tick for onset, duration, _ in rows for tick in (onset, onset + duration))
        assert max(len(_smf_vlq(b - a)) for a, b in zip([0] + ticks, ticks)) == width

    def test_one_byte_deltas_make_four_byte_records(self, tmp_path):
        # every delta of a zero-carry melody is at most one cell, 120 ticks < 2**7
        notes = cells_to_notes(zero_carry_set(2, 6))
        path = tmp_path / "m.mid"
        write_midi(notes, tempo_bpm=120, path=path)
        data = path.read_bytes()
        assert data == reference_midi(note_rows(notes), 480, 120)
        tempo, end_of_track = 7, 4
        assert int.from_bytes(data[18:22], "big") == tempo + 4 * 2 * len(notes) + end_of_track

    @pytest.mark.parametrize("delta", BOUNDARY_DELTAS)
    def test_every_vlq_length(self, tmp_path, delta):
        rows = [(delta, 1, 60), (delta + 1 + delta, 3, 61)]
        path = tmp_path / "d.mid"
        write_midi(make_notes(*rows), tempo_bpm=120, path=path)
        assert path.read_bytes() == reference_midi(rows, 480, 120)
        assert sorted(parse_smf(path.read_bytes())[2]) == rows

    @pytest.mark.parametrize("rows", [
        [(MAX_DELTA + 1, 1, 60)],
        [(0, 1, 60), (MAX_DELTA + 2, 1, 60)],
        [(0, MAX_DELTA + 1, 60)],
    ])
    def test_refuses_delta_beyond_smf_limit(self, tmp_path, rows):
        path = tmp_path / "d.mid"
        with pytest.raises(ValueError, match="exceeds the MIDI limit"):
            write_midi(make_notes(*rows), tempo_bpm=120, path=path)
        assert not path.exists()

    @pytest.mark.parametrize("last_end", [2**24 - 1, 2**24])
    def test_key_width_matches_reference(self, tmp_path, last_end):
        # the latest onsets hold the longest notes, so their end is the bound that picks
        # 32-bit event keys (every tick below 2**24) or 64-bit ones; a note-off and a
        # note-on of pitch 127, which sets every low key bit, meet at the last onset
        longest = 2**23
        start = last_end - longest
        rows = [(0, 5, 60), (0, 5, 0), (start - 2, 2, 127), (start, longest, 127),
                (start, 3, 64), (start, longest, 0)]
        notes = make_notes(*rows)
        assert int(notes.onset[-1]) + int(notes.duration.max()) == last_end
        path = tmp_path / "k.mid"
        write_midi(notes, tempo_bpm=120, path=path)
        assert path.read_bytes() == reference_midi(rows, 480, 120)

    def test_largest_admitted_note_names_its_delta(self, tmp_path):
        # the Notes bounds end every note below 2**56, so its tick fits a 64-bit key above
        # the 8 bits of flag and pitch; the longest delta is named exactly, nothing wraps
        path = tmp_path / "w.mid"
        with pytest.raises(ValueError, match=f"^delta time {2**55 - 1} exceeds the MIDI limit"):
            write_midi(make_notes((2**55 - 1, 2**55 - 1, 127)), tempo_bpm=120, path=path)
        assert not path.exists()

    @pytest.mark.parametrize("rows", [
        # deltas within MAX_DELTA reach ticks past 2**30
        [(k * MAX_DELTA, 1, 60 + k) for k in range(6)],
        # one note-off and one note-on of a pitch meet at each tick past 2**30
        [(0, 5, 60), (0, MAX_DELTA, 0)] + [(k * MAX_DELTA, MAX_DELTA, 127) for k in (1, 2, 3)]
        + [(3 * MAX_DELTA, 9, 0), (4 * MAX_DELTA, 9, 127), (4 * MAX_DELTA, 9, 0)],
        # the last onset plus the longest duration passes 2**30, no tick does
        [(0, MAX_DELTA, 60)] + [(k * MAX_DELTA, 1, 61) for k in range(1, 5)],
    ])
    def test_ticks_past_the_key_limit_match_reference(self, tmp_path, rows):
        # ticks far past the 32-bit keys' 2**24 take the 64-bit key path
        assert max(onset for onset, _, _ in rows) + max(d for _, d, _ in rows) >= 2**30
        path = tmp_path / "w.mid"
        write_midi(make_notes(*rows), tempo_bpm=120, path=path)
        assert path.read_bytes() == reference_midi(rows, 480, 120)

    @given(note_rows_st())
    @settings(max_examples=60, deadline=None)
    def test_csv_matches_stable_sorted_rows(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "n.csv"
        write_notes_csv(make_notes(*rows), path)
        expected = sorted(rows, key=lambda row: (row[0], row[2]))
        assert path.read_bytes() == csv_bytes(csv_rows(expected), header=CSV_HEADER)

    @given(note_rows_st().filter(bool))
    @settings(max_examples=60, deadline=None)
    def test_pitch_series_matches_top_voice(self, rows):
        assert pitch_series(make_notes(*rows)) == top_voice(rows)
