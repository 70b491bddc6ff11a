"""Note sequences from cell patterns, MIDI/CSV output, and 1/f spectral analysis.

Each maximal horizontal run of cells becomes one note: the run's start column
sets the onset, its length the duration, and its row the pitch through a named
scale (rows near the bottom of the grid sound low). The pitch series of a note
sequence can be checked for its spectral exponent beta, where power falls off
as 1/f**beta: 0 for white noise, about 1 for pink, 2 for Brownian.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateSeriesError,
    EmptyInputError,
    InsufficientDataError,
    _check_int,
    _int_array,
)
from .dimension import _ols_fit
from .output import ascii_rows, write_chunks
from .table import CellSet

SCALES: dict[str, tuple[int, ...]] = {
    "major": (0, 2, 4, 5, 7, 9, 11),
    "minor": (0, 2, 3, 5, 7, 8, 10),
    "pentatonic": (0, 2, 4, 7, 9),
    "chromatic": (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),
}

# one grid cell is a sixteenth note
TICKS_PER_CELL = 120
TICKS_PER_QUARTER = 480
VELOCITY = 100
_NOTE_OFF_VELOCITY = 64
MIN_SPECTRUM_LENGTH = 32
# log-power spread below which a spectrum counts as flat: rounding in the FFT
# moves log power by about 1e-14 on series of up to 2**22 samples
_FLAT_SPECTRUM_SPREAD = 1e-9
# the largest delta time a Standard MIDI File can encode: four VLQ bytes of 7 bits
MAX_DELTA = 2**28 - 1
# the tempos a set-tempo event holds exactly: 60e6 / 4 is the slowest that fits
# its 24 bits, and above 7812 bpm two tempos round to the same microseconds
MIN_TEMPO = 4
MAX_TEMPO = 7812
# the range of each Notes column; onsets and durations below 2**55 keep every note end
# below 2**56, so write_midi's 64-bit event keys hold it above 8 bits of flag and pitch
_COLUMN_BOUNDS = {
    "onset": (0, 2**55 - 1),
    "duration": (1, 2**55 - 1),
    "pitch": (0, 127),
}


@dataclass(frozen=True, eq=False)
class Notes:
    """A note table: three read-only int64 columns sorted by (onset, pitch).

    Each index is one note: onset and duration in ticks and MIDI pitch; every
    note sounds at velocity VELOCITY. The constructor takes any three
    equal-length 1-D integer sequences, checks each column's range once and
    copies it, stable-sorting notes given out of order, so notes tied on
    (onset, pitch) keep their order. clamped_high counts the pitches that were
    lowered to 127 to fit the MIDI range before the table was built.
    """

    onset: np.ndarray
    duration: np.ndarray
    pitch: np.ndarray
    clamped_high: int = field(default=0, kw_only=True)

    def __post_init__(self) -> None:
        object.__setattr__(self, "clamped_high", _check_int("clamped_high", self.clamped_high, 0))
        columns = {name: _int_array(name, getattr(self, name), 1, lo, hi)
                   for name, (lo, hi) in _COLUMN_BOUNDS.items()}
        if len({col.size for col in columns.values()}) > 1:
            sizes = ", ".join(f"{name} {col.size}" for name, col in columns.items())
            raise ValueError(f"note columns differ in length: {sizes}")
        onset, pitch = columns["onset"], columns["pitch"]
        # notes in order already skip the sort, whose permutation would be the identity
        later, tied = onset[1:] > onset[:-1], onset[1:] == onset[:-1]
        if not np.all(later | tied & (pitch[1:] >= pitch[:-1])):
            order = np.lexsort((pitch, onset))
            columns = {name: col[order] for name, col in columns.items()}
        for name, col in columns.items():
            col = col.astype(np.int64)
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return self.onset.size


@dataclass(frozen=True)
class SpectralReport:
    """Fitted spectral exponent beta of a series, with fit quality."""

    series_length: int
    beta: float
    fit_quality: float
    frequencies_used: int


def cells_to_notes(cells: CellSet, scale: str = "major", base_pitch: int = 60) -> Notes:
    """One note per maximal horizontal run of cells, sorted by (onset, pitch).

    Each cell lasts TICKS_PER_CELL ticks. Rows map to the degrees of the
    named scale from SCALES, counted up from the bottom row at base_pitch
    (a MIDI pitch, 0..127); pitches above 127 are lowered to 127 and counted
    in the result's clamped_high. Overlapping notes from different rows are
    kept (the melody may be polyphonic). Notes tied on (onset, pitch) keep the
    row-major order of their runs.

    The runs are found in row-major order, in the narrowest unsigned type that
    holds their keys and ticks, and handed to Notes in (onset, pitch) order, so
    it does not sort them again. They are put in that order by a stable lexsort
    on narrow keys, the pitch as uint8 and the column in the smallest unsigned
    type that holds extent - 1: on keys of 8 and 16 bits numpy's stable sort is
    a radix sort, and being stable it keeps tied notes in row-major order.
    """
    if not len(cells):
        raise EmptyInputError("cannot render an empty cell set")
    if not (isinstance(scale, str) and scale in SCALES):
        raise ValueError(f"unknown scale {scale!r}; choices: {sorted(SCALES)}")
    base_pitch = _check_int("base_pitch", base_pitch, 0, 127)
    intervals = SCALES[scale]
    extent = cells.extent
    # pitch rises with the row's rank counted from the bottom, by at least one a rank,
    # so at most 128 ranks sound below 128: the first `top` ranks look their pitch up,
    # and every higher rank looks up the clamped 127 at index top
    octave, degree = np.divmod(np.arange(min(extent, 128)), len(intervals))
    pitches = base_pitch + np.array(intervals)[degree] + 12 * octave
    top = int(np.count_nonzero(pitches <= 127))
    lookup = np.append(pitches[:top], 127).astype(np.uint8)
    keys = cells.keys
    # keys are sorted row-major; with a spare column after each row,
    # row * (extent + 1) + col steps by one exactly between the cells of a run; it
    # and every run's ticks fit the narrowest type that holds it and a row's ticks
    spaced = keys.astype(np.min_scalar_type(extent * max(extent + 1, TICKS_PER_CELL)))
    spaced += spaced // extent
    # edge[i] is set where a run starts at cell i, edge[i + 1] where one ends there
    edge = np.ones(keys.size + 1, dtype=bool)
    np.not_equal(np.diff(spaced), 1, out=edge[1:-1])
    start = spaced[edge[:-1]]
    length = spaced[edge[1:]] - start + 1
    del spaced, edge
    row = start // (extent + 1)
    col = start - row * (extent + 1)
    # each run's row ranked from the bottom and capped at top: its index in lookup
    rank = np.subtract(extent - 1, row, out=row)
    np.minimum(rank, top, out=rank)
    pitch = lookup[rank]
    order = np.lexsort((pitch, col.astype(np.min_scalar_type(extent - 1))))
    onset, duration = (a[order] * TICKS_PER_CELL for a in (col, length))
    pitch = pitch[order]
    del start, col, length, order
    return Notes(onset, duration, pitch, clamped_high=int(np.count_nonzero(rank == top)))


def pitch_series(notes: Notes) -> list[float]:
    """Monophonic reduction: the highest pitch struck at each distinct onset.

    Held notes do not mask later onsets; a chord contributes its top voice.
    """
    if not len(notes):
        raise EmptyInputError("cannot reduce an empty note sequence")
    # notes are sorted by onset, so each onset's notes are one contiguous slice
    firsts = np.concatenate(([0], np.flatnonzero(notes.onset[1:] != notes.onset[:-1]) + 1))
    return np.maximum.reduceat(notes.pitch, firsts).astype(float).tolist()


def spectral_exponent(series: Sequence[float]) -> SpectralReport:
    """Fit S(f) ~ 1/f**beta to the periodogram of a mean-removed series.

    The periodogram is |DFT|^2 / length at frequencies j/length for
    j = 1..length//2; the fit is ordinary least squares on the log-log points,
    excluding the DC bin and any bin at or below the rounding floor
    max power * length * eps**2. A constant series or a flat spectrum, where every
    usable bin carries the same power, has no slope to fit and is refused.
    """
    arr = np.asarray(series, dtype=float)
    if not np.isfinite(arr).all():
        raise DegenerateSeriesError("series contains non-finite values")
    n = int(arr.size)
    if n < MIN_SPECTRUM_LENGTH:
        raise InsufficientDataError(f"need at least {MIN_SPECTRUM_LENGTH} samples, got {n}")
    # decided on the input: removing a rounded mean leaves residue in a constant series
    if np.ptp(arr) == 0:
        raise DegenerateSeriesError("series has zero variance")
    power = np.abs(np.fft.rfft(arr - arr.mean())[1:]) ** 2 / n
    freqs = np.arange(1, power.size + 1) / n
    usable = power > power.max() * n * np.finfo(float).eps ** 2
    if int(usable.sum()) < 2:
        raise DegenerateSeriesError("fewer than 2 frequency bins carry power")
    log_power = np.log(power[usable])
    if np.ptp(log_power) < _FLAT_SPECTRUM_SPREAD:
        raise DegenerateSeriesError("spectrum is flat: every frequency bin carries equal power")
    slope, fit_quality = _ols_fit(np.log(freqs[usable]), log_power)
    beta = 0.0 - slope  # avoids returning -0.0 for a zero slope
    return SpectralReport(n, beta, fit_quality, int(usable.sum()))


def write_midi(notes: Notes, tempo_bpm: int, path) -> None:
    """Write a format-0 Standard MIDI File on channel 0, TICKS_PER_QUARTER ticks per beat.

    tempo_bpm is the one control of playback speed: a cell of TICKS_PER_CELL
    ticks lasts 15 / tempo_bpm seconds. The single track opens with a
    set-tempo meta event, then note-on/note-off pairs in onset order with
    variable-length delta times, then end-of-track. Simultaneous events are
    ordered note-off first, then by pitch, so the byte stream is fully
    determined by the notes. A delta time above MAX_DELTA has no Standard
    MIDI encoding, and a tempo outside [MIN_TEMPO, MAX_TEMPO] does not read
    back as itself; both are refused before anything is written.

    Each event is one key, tick << 8 | is_on << 7 | pitch, and one sort of the
    keys by value puts them in that order; equal keys are equal events, so the
    bytes do not depend on the sort's stability. The keys are 32-bit when every
    tick is below 2**24 (notes are sorted by onset, so none ends after the last
    onset plus the longest duration), else 64-bit: Notes bounds every tick
    below 2**56. Every delta gets as many VLQ bytes as the longest one needs;
    when that is one, each event is a 32-bit word and no byte is dropped.
    """
    tempo_bpm = _check_int("tempo_bpm", tempo_bpm, MIN_TEMPO, MAX_TEMPO)
    micros_per_quarter = round(60_000_000 / tempo_bpm)
    n = len(notes)
    last = int(notes.onset[-1]) + int(notes.duration.max()) if n else 0
    keys = np.empty(2 * n, np.uint32 if last < 2**24 else np.uint64)
    on, off = keys[:n], keys[n:]
    np.copyto(on, notes.onset, casting="unsafe")
    np.add(notes.onset, notes.duration, out=off, casting="unsafe")
    keys <<= 8
    pitch = notes.pitch.astype(keys.dtype)
    on |= pitch
    on |= 0x80
    off |= pitch
    del pitch  # freed before the words are built
    keys.sort()
    low = keys & 0xFF
    keys >>= 8  # each event's tick
    # each event's status, pitch and velocity bytes from its low byte: a note-off's
    # 0x80 and _NOTE_OFF_VELOCITY, or a note-on's 0x90 and VELOCITY
    off_word, on_word = 0x80_00_00 | _NOTE_OFF_VELOCITY, 0x90_00_00 | VELOCITY
    word = low >> 7
    word *= on_word - off_word
    word += off_word
    low &= 0x7F
    low <<= 8
    word |= low
    del low
    delta = keys
    delta[1:] -= delta[:-1]  # numpy reads an overlapping operand as it was before the write
    longest = int(delta.max(initial=0))
    if longest > MAX_DELTA:
        raise ValueError(f"delta time {longest} exceeds the MIDI limit {MAX_DELTA}")
    # one record per event, the low bytes of a big-endian word of `size` bytes: the
    # delta as a VLQ as wide as the longest delta needs, 7 bits a byte with the high
    # bit set on all but the last, then status, pitch and velocity
    vlq_bytes = max(1, -(-longest.bit_length() // 7))
    size = 4 if vlq_bytes == 1 else 8
    delta = delta.astype(f"u{size}", copy=False)
    word = word.astype(delta.dtype, copy=False)
    for k in range(vlq_bytes):
        # one temporary at a time, the size of the words
        part = delta >> 7 * k
        part &= 0x7F
        if k:
            part |= 0x80
        part <<= 8 * k + 24
        word |= part
    del part
    word.byteswap(inplace=True)  # big-endian
    body = word.view(np.uint8).reshape(-1, size)[:, size - 3 - vlq_bytes:]
    if vlq_bytes > 1:
        # leading VLQ bytes with no bits are dropped
        keep = np.ones(body.shape, dtype=bool)
        for k in range(1, vlq_bytes):
            keep[:, vlq_bytes - 1 - k] = delta >> 7 * k > 0
        body = body[keep]
    del delta  # freed before the body's bytes are copied out
    tempo = b"\x00\xff\x51\x03" + micros_per_quarter.to_bytes(3, "big")
    end_of_track = b"\x00\xff\x2f\x00"
    track_size = len(tempo) + body.size + len(end_of_track)
    # chunk length 6, format 0, one track, ticks per quarter note
    header = struct.pack(">4sIHHH", b"MThd", 6, 0, 1, TICKS_PER_QUARTER)
    write_chunks(path, [header, b"MTrk" + track_size.to_bytes(4, "big"), tempo,
                        body.tobytes(), end_of_track])


def write_notes_csv(notes: Notes, path) -> None:
    """CSV with header onset,duration,pitch,velocity, one row per note in table order.

    The velocity column holds VELOCITY, the velocity write_midi gives every note.
    """
    columns = (notes.onset, notes.duration, notes.pitch, np.broadcast_to(VELOCITY, len(notes)))
    tops = [int(col.max(initial=0)) for col in columns]
    body = ascii_rows(len(notes), 4, tops,
                      lambda rows: np.column_stack([c[rows] for c in columns]), ",")
    write_chunks(path, chain([b"onset,duration,pitch,velocity\n"], body))


def read_series_csv(path) -> list[float]:
    """Read one value per line, skipping blank lines; the first other line may be a header."""
    values: list[float] = []
    first = True
    with open(path, "r", encoding="ascii") as fh:
        for i, line in enumerate(fh):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                if not first:
                    raise ValueError(f"line {i + 1} of {path} is not a number: {text!r}") from None
            first = False
    return values
