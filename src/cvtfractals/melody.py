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
# the range of each Notes column; onsets and durations stay below 2**62, so
# every note end fits an int64
_COLUMN_BOUNDS = {
    "onset": (0, 2**62 - 1),
    "duration": (1, 2**62 - 1),
    "pitch": (0, 127),
}
# delta times that take one more VLQ byte each
_VLQ_STEPS = np.array([2**7, 2**14, 2**21])


@dataclass(frozen=True, eq=False)
class Notes:
    """A note table: three read-only int64 columns sorted by (onset, pitch).

    Each index is one note: onset and duration in ticks and MIDI pitch; every
    note sounds at velocity VELOCITY. The constructor takes any three
    equal-length 1-D integer sequences, checks each column's range once and
    stable-sorts the notes, so notes tied on (onset, pitch) keep the order
    they were given in. clamped_high counts the pitches that were lowered to
    127 to fit the MIDI range before the table was built.
    """

    onset: np.ndarray
    duration: np.ndarray
    pitch: np.ndarray
    clamped_high: int = field(default=0, kw_only=True)

    def __post_init__(self) -> None:
        columns = {name: _int64_column(name, getattr(self, name), lo, hi)
                   for name, (lo, hi) in _COLUMN_BOUNDS.items()}
        if len({col.size for col in columns.values()}) > 1:
            sizes = ", ".join(f"{name} {col.size}" for name, col in columns.items())
            raise ValueError(f"note columns differ in length: {sizes}")
        order = np.lexsort((columns["pitch"], columns["onset"]))
        for name, col in columns.items():
            col = col[order]
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return self.onset.size


def _int64_column(name: str, values, lo: int, hi: int) -> np.ndarray:
    """values as a 1-D int64 array, refused with ValueError unless all lie in [lo, hi]."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if not arr.size:
        return np.zeros(0, dtype=np.int64)
    if not np.issubdtype(arr.dtype, np.integer):
        # Python ints beyond 64 bits arrive as an object array
        raise ValueError(f"{name} must hold integers that fit int64, got dtype {arr.dtype}")
    low, high = arr.min(), arr.max()
    if low < lo or high > hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {low if low < lo else high}")
    return arr.astype(np.int64, copy=False)


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
    """
    if not len(cells):
        raise EmptyInputError("cannot render an empty cell set")
    if not (isinstance(scale, str) and scale in SCALES):
        raise ValueError(f"unknown scale {scale!r}; choices: {sorted(SCALES)}")
    if base_pitch not in range(128):
        raise ValueError(f"base_pitch must be in [0, 127], got {base_pitch!r}")
    intervals = SCALES[scale]
    rows, cols = np.divmod(cells.keys, cells.extent)
    # a run starts at every cell whose left neighbour is not in the set
    starts = np.ones(rows.size, dtype=bool)
    starts[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1] + 1)
    first = np.flatnonzero(starts)
    lengths = np.diff(first, append=rows.size)
    octave, degree = np.divmod(cells.extent - 1 - rows[first], len(intervals))
    # rows and columns stay below 2**31, so neither the pitch sum nor the
    # tick products can wrap int64, and no pitch falls below base_pitch
    pitch = (base_pitch + np.array(intervals))[degree] + 12 * octave
    return Notes(
        cols[first] * TICKS_PER_CELL,
        lengths * TICKS_PER_CELL,
        np.minimum(pitch, 127),
        clamped_high=int(np.count_nonzero(pitch > 127)),
    )


def pitch_series(notes: Notes) -> list[float]:
    """Monophonic reduction: the highest pitch struck at each distinct onset.

    Held notes do not mask later onsets; a chord contributes its top voice.
    """
    if not len(notes):
        raise EmptyInputError("cannot reduce an empty note sequence")
    # notes are sorted by onset, so each onset's notes are one contiguous slice
    firsts = np.flatnonzero(np.diff(notes.onset, prepend=-1))
    return np.maximum.reduceat(notes.pitch, firsts).astype(float).tolist()


def spectral_exponent(series: Sequence[float]) -> SpectralReport:
    """Fit S(f) ~ 1/f**beta to the periodogram of a mean-removed series.

    The periodogram is |DFT|^2 / length at frequencies j/length for
    j = 1..length//2; the fit is ordinary least squares on the log-log points,
    excluding the DC bin and any zero-power bins. A flat spectrum, where every
    usable bin carries the same power, has no slope to fit and is refused.
    """
    arr = np.asarray(series, dtype=float)
    if not np.isfinite(arr).all():
        raise DegenerateSeriesError("series contains non-finite values")
    n = int(arr.size)
    if n < MIN_SPECTRUM_LENGTH:
        raise InsufficientDataError(f"need at least {MIN_SPECTRUM_LENGTH} samples, got {n}")
    centered = arr - arr.mean()
    if not centered.any():
        raise DegenerateSeriesError("series has zero variance")
    power = np.abs(np.fft.rfft(centered)[1:]) ** 2 / n
    freqs = np.arange(1, power.size + 1) / n
    usable = power > 0
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
    MIDI encoding and is refused before anything is written.
    """
    if not tempo_bpm > 0:
        raise ValueError(f"tempo_bpm must be > 0, got {tempo_bpm}")
    micros_per_quarter = round(60_000_000 / tempo_bpm)
    if not 1 <= micros_per_quarter <= 0xFFFFFF:
        raise ValueError(f"tempo {tempo_bpm} bpm does not fit a set-tempo event")
    # each event's three bytes (status, pitch, velocity) as one big-endian
    # integer; sorting by (tick, event) puts note-offs (0x80) before note-ons
    tick = np.concatenate((notes.onset + notes.duration, notes.onset))
    event = np.concatenate((
        0x80_00_00 | notes.pitch << 8 | _NOTE_OFF_VELOCITY,
        0x90_00_00 | notes.pitch << 8 | VELOCITY,
    ))
    order = np.lexsort((event, tick))
    event = event[order]
    delta = np.diff(tick[order], prepend=0)
    longest = int(delta.max()) if delta.size else 0
    if longest > MAX_DELTA:
        raise ValueError(f"delta time {longest} exceeds the MIDI limit {MAX_DELTA}")
    vlq_size = 1 + np.searchsorted(_VLQ_STEPS, delta, side="right")
    ends = np.cumsum(vlq_size + 3)
    body = np.zeros(int(ends[-1]) if ends.size else 0, dtype=np.uint8)
    for k, shift in enumerate((16, 8, 0)):
        body[ends - 3 + k] = event >> shift & 0xFF
    # the VLQ's last byte carries the low 7 bits; earlier ones set the high bit
    for j in range(4):
        has = vlq_size > j
        body[ends[has] - 4 - j] = delta[has] >> 7 * j & 0x7F | (0x80 if j else 0)
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
    velocity = np.full(len(notes), VELOCITY)
    columns = np.column_stack((notes.onset, notes.duration, notes.pitch, velocity))
    write_chunks(path, chain([b"onset,duration,pitch,velocity\n"], ascii_rows(columns, ",")))


def read_series_csv(path) -> list[float]:
    """Read one value per line; a single leading non-numeric header is allowed."""
    values: list[float] = []
    with open(path, "r", encoding="ascii") as fh:
        for i, line in enumerate(fh):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                if i == 0:
                    continue
                raise ValueError(f"line {i + 1} of {path} is not a number: {text!r}") from None
    return values
