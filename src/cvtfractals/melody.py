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
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateSeriesError,
    EmptyInputError,
    InsufficientDataError,
)
from .dimension import _ols_fit
from .output import write_chunks
from .table import CellSet

SCALES: dict[str, tuple[int, ...]] = {
    "major": (0, 2, 4, 5, 7, 9, 11),
    "minor": (0, 2, 3, 5, 7, 8, 10),
    "pentatonic": (0, 2, 4, 7, 9),
    "chromatic": (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),
}

_NOTE_OFF_VELOCITY = 64
MIN_SPECTRUM_LENGTH = 32


@dataclass(frozen=True)
class NoteEvent:
    """One note: onset and duration in ticks, MIDI pitch, MIDI velocity."""

    onset: int
    duration: int
    pitch: int
    velocity: int

    def __post_init__(self) -> None:
        if self.onset < 0:
            raise ValueError(f"onset must be >= 0, got {self.onset}")
        if self.duration < 1:
            raise ValueError(f"duration must be >= 1, got {self.duration}")
        if not 0 <= self.pitch <= 127:
            raise ValueError(f"pitch must be in [0, 127], got {self.pitch}")
        if not 1 <= self.velocity <= 127:
            raise ValueError(f"velocity must be in [1, 127], got {self.velocity}")


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
) -> list[NoteEvent]:
    """One note per maximal horizontal run of cells, sorted by (onset, pitch).

    Rows map to scale degrees counted up from the bottom row at base_pitch,
    clamped to the MIDI range; overlapping notes from different rows are kept
    (the melody may be polyphonic). Notes tied on (onset, pitch) keep the
    row-major order of their runs.
    """
    if not len(cells):
        raise EmptyInputError("cannot render an empty cell set")
    intervals = resolve_scale(scale)
    ticks_per_cell = operator.index(ticks_per_cell)
    if ticks_per_cell < 1:
        raise ValueError(f"ticks_per_cell must be >= 1, got {ticks_per_cell}")
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
    pitch = np.clip(degree_pitch[degree] + 12 * octave, 0, 127)
    # lexsort is stable; onset order is column order, and onsets are multiplied
    # out as Python ints, which cannot overflow
    order = np.lexsort((pitch, cols[first]))
    return [
        NoteEvent(c * ticks_per_cell, n * ticks_per_cell, p, velocity)
        for c, n, p in zip(
            cols[first][order].tolist(), lengths[order].tolist(), pitch[order].tolist()
        )
    ]


def pitch_series(notes: Sequence[NoteEvent]) -> list[float]:
    """Monophonic reduction: the highest pitch struck at each distinct onset.

    Held notes do not mask later onsets; a chord contributes its top voice.
    """
    if not notes:
        raise EmptyInputError("cannot reduce an empty note sequence")
    top: dict[int, int] = {}
    for note in notes:
        top[note.onset] = max(top.get(note.onset, 0), note.pitch)
    return [float(top[t]) for t in sorted(top)]


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


def _vlq(value: int) -> bytes:
    """MIDI variable-length quantity: 7 data bits per byte, high bit continues."""
    chunks = [value & 0x7F]
    value >>= 7
    while value:
        chunks.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(chunks))


def write_midi(notes: Iterable[NoteEvent], ticks_per_quarter: int, tempo_bpm: int, path) -> None:
    """Write a format-0 Standard MIDI File on channel 0.

    The single track opens with a set-tempo meta event, then note-on/note-off
    pairs in onset order with variable-length delta times, then end-of-track.
    Simultaneous events are ordered note-off first, then by pitch, so the byte
    stream is fully determined by the note list.
    """
    ticks_per_quarter = operator.index(ticks_per_quarter)
    if not 24 <= ticks_per_quarter <= 960:
        raise ValueError(f"ticks_per_quarter must be in [24, 960], got {ticks_per_quarter}")
    if not tempo_bpm > 0:
        raise ValueError(f"tempo_bpm must be > 0, got {tempo_bpm}")
    micros_per_quarter = round(60_000_000 / tempo_bpm)
    if not 1 <= micros_per_quarter <= 0xFFFFFF:
        raise ValueError(f"tempo {tempo_bpm} bpm does not fit a set-tempo event")
    events = []
    for note in notes:
        events.append((note.onset + note.duration, 0, note.pitch, _NOTE_OFF_VELOCITY))
        events.append((note.onset, 1, note.pitch, note.velocity))
    events.sort()
    track = bytearray(b"\x00\xff\x51\x03" + micros_per_quarter.to_bytes(3, "big"))
    clock = 0
    for tick, is_on, pitch, vel in events:
        track += _vlq(tick - clock)
        track += bytes((0x90 if is_on else 0x80, pitch, vel))
        clock = tick
    track += b"\x00\xff\x2f\x00"
    # chunk length 6, format 0, one track, ticks per quarter note
    header = struct.pack(">4sIHHH", b"MThd", 6, 0, 1, ticks_per_quarter)
    write_chunks(path, [header, b"MTrk" + len(track).to_bytes(4, "big"), track])


def write_notes_csv(notes: Iterable[NoteEvent], path) -> None:
    """CSV with header onset,duration,pitch,velocity, rows sorted by (onset, pitch)."""
    ordered = sorted(notes, key=lambda n: (n.onset, n.pitch))
    lines = ["onset,duration,pitch,velocity"]
    lines += [f"{n.onset},{n.duration},{n.pitch},{n.velocity}" for n in ordered]
    write_chunks(path, [("\n".join(lines) + "\n").encode("ascii")])


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
