"""Note sequences from cell patterns, MIDI/CSV output, and 1/f spectral analysis.

Each maximal horizontal run of cells becomes one note: the run's start column
sets the onset, its length the duration, and its row the pitch through a named
scale (rows near the bottom of the grid sound low). The pitch series of a note
sequence can be checked for its spectral exponent beta, where power falls off
as 1/f**beta: 0 for white noise, about 1 for pink, 2 for Brownian.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
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

_NOTE_OFF_VELOCITY = 64
MIN_SPECTRUM_LENGTH = 32
# the largest delta time a Standard MIDI File can encode: four VLQ bytes of 7 bits
MAX_DELTA = 2**28 - 1
# the range of each Notes column; onsets and durations stay below 2**62, so
# every note end fits an int64
_COLUMN_BOUNDS = {
    "onset": (0, 2**62 - 1),
    "duration": (1, 2**62 - 1),
    "pitch": (0, 127),
    "velocity": (1, 127),
}
# delta times that take one more VLQ byte each
_VLQ_STEPS = np.array([2**7, 2**14, 2**21])


@dataclass(frozen=True, eq=False)
class Notes:
    """A note table: four read-only int64 columns sorted by (onset, pitch).

    Each index is one note: onset and duration in ticks, MIDI pitch and MIDI
    velocity. The constructor takes any four equal-length 1-D integer
    sequences, checks each column's range once and stable-sorts the notes, so
    notes tied on (onset, pitch) keep the order they were given in.
    clamped_low and clamped_high count the pitches that were raised to 0 or
    lowered to 127 to fit the MIDI range before the table was built.
    """

    onset: np.ndarray
    duration: np.ndarray
    pitch: np.ndarray
    velocity: np.ndarray
    clamped_low: int = 0
    clamped_high: int = 0

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


def resolve_scale(scale) -> tuple[int, ...]:
    """Accept a scale name from SCALES or an explicit interval pattern."""
    if isinstance(scale, str):
        try:
            return SCALES[scale]
        except KeyError:
            raise ValueError(f"unknown scale {scale!r}; choices: {sorted(SCALES)}") from None
    intervals = tuple(operator.index(i) for i in scale)
    if not intervals:
        raise ValueError("scale must have at least one interval")
    return intervals


def cells_to_notes(
    cells: CellSet,
    scale="major",
    base_pitch: int = 60,
    ticks_per_cell: int = 120,
    velocity: int = 100,
) -> Notes:
    """One note per maximal horizontal run of cells, sorted by (onset, pitch).

    Rows map to scale degrees counted up from the bottom row at base_pitch,
    clamped to the MIDI range and counted in the result's clamped_low and
    clamped_high; overlapping notes from different rows are kept (the melody
    may be polyphonic). Notes tied on (onset, pitch) keep the row-major order
    of their runs. ticks_per_cell must not exceed MAX_DELTA, since every
    delta time of a longer cell would be too long for a MIDI file.
    """
    if not len(cells):
        raise EmptyInputError("cannot render an empty cell set")
    intervals = resolve_scale(scale)
    ticks_per_cell = operator.index(ticks_per_cell)
    if not 1 <= ticks_per_cell <= MAX_DELTA:
        raise ValueError(f"ticks_per_cell must be in [1, {MAX_DELTA}], got {ticks_per_cell}")
    rows, cols = np.divmod(cells.keys, cells.extent)
    # a run starts at every cell whose left neighbour is not in the set
    starts = np.ones(rows.size, dtype=bool)
    starts[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1] + 1)
    first = np.flatnonzero(starts)
    lengths = np.diff(first, append=rows.size)
    octave, degree = np.divmod(cells.extent - 1 - rows[first], len(intervals))
    # 12 * octave stays below 2**36, so limiting each degree's pitch to +-2**40
    # keeps the int64 sum from wrapping without changing any clamped pitch
    degree_pitch = np.array([min(max(base_pitch + i, -(2**40)), 2**40) for i in intervals])
    pitch = degree_pitch[degree] + 12 * octave
    # columns stay below 2**31 and ticks below 2**28, so the products fit int64
    return Notes(
        cols[first] * ticks_per_cell,
        lengths * ticks_per_cell,
        np.clip(pitch, 0, 127),
        np.full(first.size, velocity),
        clamped_low=int(np.count_nonzero(pitch < 0)),
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
    excluding the DC bin and any zero-power bins.
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
    slope, fit_quality = _ols_fit(np.log(freqs[usable]), np.log(power[usable]))
    beta = 0.0 - slope  # avoids returning -0.0 for flat spectra
    return SpectralReport(n, beta, fit_quality, int(usable.sum()))


def write_midi(notes: Notes, ticks_per_quarter: int, tempo_bpm: int, path) -> None:
    """Write a format-0 Standard MIDI File on channel 0.

    The single track opens with a set-tempo meta event, then note-on/note-off
    pairs in onset order with variable-length delta times, then end-of-track.
    Simultaneous events are ordered note-off first, then by pitch, so the byte
    stream is fully determined by the notes. A delta time above MAX_DELTA has
    no Standard MIDI encoding and is refused before anything is written.
    """
    ticks_per_quarter = operator.index(ticks_per_quarter)
    if not 24 <= ticks_per_quarter <= 960:
        raise ValueError(f"ticks_per_quarter must be in [24, 960], got {ticks_per_quarter}")
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
        0x90_00_00 | notes.pitch << 8 | notes.velocity,
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
    header = struct.pack(">4sIHHH", b"MThd", 6, 0, 1, ticks_per_quarter)
    write_chunks(path, [header, b"MTrk" + track_size.to_bytes(4, "big"), tempo,
                        body.tobytes(), end_of_track])


def write_notes_csv(notes: Notes, path) -> None:
    """CSV with header onset,duration,pitch,velocity, one row per note in table order."""
    columns = np.column_stack((notes.onset, notes.duration, notes.pitch, notes.velocity))
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
