#!/usr/bin/env python3
"""Sweep carry patterns across bases and report their melodic spectra.

For each (base, depth) pair the zero-carry pattern becomes a melody; the run
writes one MIDI file per pair and prints the pitch-series spectral exponent
next to the pattern's fractal dimension.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from cvtfractals import (
    SCALES,
    DegenerateSeriesError,
    InsufficientDataError,
    cells_to_notes,
    similarity_dimension,
    spectral_exponent,
    write_midi,
    zero_carry_set,
)

# (base, depth) pairs
SWEEP = ((2, 7), (2, 8), (3, 5), (4, 4), (5, 4))
BASE_PITCH = 24
TEMPO_BPM = 110


def _beta(series) -> str:
    try:
        return f"{spectral_exponent(series).beta:9.3f}"
    except (DegenerateSeriesError, InsufficientDataError):
        return "      n/a"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("out"))
    parser.add_argument("--scale", choices=sorted(SCALES), default="major")
    args = parser.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)

    # the top voice of a zero-carry melody is constant (the dense top rows
    # strike at every onset), so the sweep fits the full pitch sequence of all
    # notes in playing order
    print(f"{'base':>4} {'depth':>5} {'dimension':>10} {'notes':>6} {'beta(all)':>9}")
    for base, depth in SWEEP:
        cells = zero_carry_set(base, depth)
        notes = cells_to_notes(cells, scale=args.scale, base_pitch=BASE_PITCH)
        midi = args.outdir / f"melody_base{base}_depth{depth}.mid"
        write_midi(notes, tempo_bpm=TEMPO_BPM, path=midi)
        print(
            f"{base:>4} {depth:>5} {similarity_dimension(base):>10.6f}"
            f" {len(notes):>6} {_beta(notes.pitch)}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
