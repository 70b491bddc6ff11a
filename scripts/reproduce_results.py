#!/usr/bin/env python3
"""Regenerate the headline artifacts in one run.

Writes, under the chosen output directory:
  - carry-pattern images fractal_base{n}.pbm for bases 2..5
  - gray table images table_base{n}.pgm for the same bases
  - overlay_{k}_to_{k+1}.txt reports for k = 2, 3
  - demo.mid plus demo_notes.csv for a base-2 melody

and prints a closed-form vs box-count dimension table to stdout, with the
closed-form increment D(n) - D(n-1) over the base before. The paper
conjectures a constant increment; these values shrink as the base grows.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from cvtfractals import (
    CLAIMED_INCREMENT,
    analyze_overlay,
    build_table,
    cells_to_notes,
    estimate_dimension,
    render_cellset,
    render_table,
    similarity_dimension,
    write_midi,
    write_notes_csv,
    write_overlay_report,
    write_pnm,
    zero_carry_set,
)

# depths chosen so every image stays near 256..625 pixels per side
DEPTH_BY_BASE = {2: 8, 3: 5, 4: 4, 5: 4}
TABLE_DIGITS = 2
OVERLAY_SMALL_BASES = (2, 3)
OVERLAY_DEPTH = 6
MELODY_BASE = 2
MELODY_DEPTH = 6
MELODY_BASE_PITCH = 36


def dimension_table() -> None:
    print(f"{'base':>4} {'closed form':>12} {'increment':>10} {'box count':>12} {'fit':>8}"
          f" {'cells':>8}")
    for base, depth in DEPTH_BY_BASE.items():
        cells = zero_carry_set(base, depth)
        est = estimate_dimension(cells)
        closed = similarity_dimension(base)
        increment = f"{closed - similarity_dimension(base - 1):.6f}" if base > 2 else ""
        print(
            f"{base:>4} {closed:>12.6f} {increment:>10}"
            f" {est.slope:>12.6f} {est.fit_quality:>8.4f} {len(cells):>8}"
        )


def render_patterns(outdir: Path) -> None:
    for base, depth in DEPTH_BY_BASE.items():
        pbm = outdir / f"fractal_base{base}.pbm"
        write_pnm(render_cellset(zero_carry_set(base, depth)), pbm)
        pgm = outdir / f"table_base{base}.pgm"
        zoom = max(1, 256 // base**TABLE_DIGITS)
        write_pnm(render_table(build_table(base, TABLE_DIGITS), zoom=zoom), pgm)
        print(f"wrote {pbm} and {pgm}")


def overlay_reports(outdir: Path) -> None:
    for small in OVERLAY_SMALL_BASES:
        report = analyze_overlay(small, OVERLAY_DEPTH)
        path = outdir / f"overlay_{small}_to_{small + 1}.txt"
        write_overlay_report(report, path)
        print(
            f"overlay {small}->{small + 1}: claimed {CLAIMED_INCREMENT:.6f},"
            f" measured {report.measured.slope:.6f} -> {path}"
        )


def demo_melody(outdir: Path) -> None:
    cells = zero_carry_set(MELODY_BASE, MELODY_DEPTH)
    notes = cells_to_notes(cells, base_pitch=MELODY_BASE_PITCH)
    midi = outdir / "demo.mid"
    write_midi(notes, tempo_bpm=110, path=midi)
    write_notes_csv(notes, outdir / "demo_notes.csv")
    print(f"melody: {len(notes)} notes -> {midi}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("out"))
    args = parser.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)
    dimension_table()
    render_patterns(args.outdir)
    overlay_reports(args.outdir)
    demo_melody(args.outdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
