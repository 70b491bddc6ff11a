#!/usr/bin/env python3
"""Sweep carry patterns across bases and report their melodic spectra.

For each (base, depth) pair the zero-carry pattern becomes a melody; the run
writes one MIDI file per pair and prints the pitch-series spectral exponent
next to the pattern's fractal dimension.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from cvtfractals import (
    DegenerateSeriesError,
    InsufficientDataError,
    cells_to_notes,
    pitch_series,
    similarity_dimension,
    spectral_exponent,
    write_midi,
    zero_carry_set,
)


@dataclass
class Config:
    outdir: Path = Path("out")
    sweep: tuple[tuple[int, int], ...] = ((2, 7), (2, 8), (3, 5), (4, 4), (5, 4))
    base_pitch: int = 24
    scale: str = "major"
    tempo_bpm: int = 110
    ticks_per_cell: int = 120


def _beta(series) -> str:
    try:
        return f"{spectral_exponent(series).beta:9.3f}"
    except (DegenerateSeriesError, InsufficientDataError):
        return "      n/a"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Config.outdir)
    parser.add_argument("--scale", default=Config.scale)
    args = parser.parse_args(argv)
    cfg = Config(outdir=args.outdir, scale=args.scale)
    cfg.outdir.mkdir(parents=True, exist_ok=True)

    # the top-voice reduction of a zero-carry melody is usually flat (the
    # dense top rows strike at every onset), so the sweep also fits the full
    # pitch sequence of all notes in playing order
    print(f"{'base':>4} {'depth':>5} {'dimension':>10} {'notes':>6}"
          f" {'beta(all)':>9} {'beta(top)':>9}")
    for base, depth in cfg.sweep:
        cells = zero_carry_set(base, depth)
        notes = cells_to_notes(
            cells,
            scale=cfg.scale,
            base_pitch=cfg.base_pitch,
            ticks_per_cell=cfg.ticks_per_cell,
        )
        midi = cfg.outdir / f"melody_base{base}_depth{depth}.mid"
        write_midi(notes, ticks_per_quarter=480, tempo_bpm=cfg.tempo_bpm, path=midi)
        print(
            f"{base:>4} {depth:>5} {similarity_dimension(base):>10.6f}"
            f" {len(notes):>6} {_beta(notes.pitch)} {_beta(pitch_series(notes))}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
