"""Command-line front end: one subcommand per pipeline.

Exit codes: 0 on success, 2 for argument errors, 1 for runtime errors.
Results go to standard output, diagnostics to standard error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import dimension, melody, overlay, radix, raster, table
from .errors import CvtError, DegenerateSeriesError, InsufficientDataError, _check_int


def _int_arg(lo: int, hi: int | None = None):
    """argparse type: an integer >= lo, and <= hi when hi is given."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            if limit and len(text) > limit:  # name the interpreter's digit limit, not the digits
                raise argparse.ArgumentTypeError(
                    f"{text[:10]!r}... ({len(text)} characters) is not an integer"
                    f" of at most {limit} digits") from None
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        return _check_int("value", value, lo, hi, error=argparse.ArgumentTypeError)

    return parse


_base_arg = _int_arg(2)
_nonneg_arg = _int_arg(0)
_pos_arg = _int_arg(1)


def _write(path, write) -> None:
    """Call write(path) and report it, when the option naming path was given."""
    if path is not None:  # an empty path is given too, and fails in write
        write(path)
        print(f"wrote {path}")


def _cmd_cvt(args) -> int:
    carry = radix.cvt(args.a, args.b, args.base)
    residue = radix.sum_without_carry(args.a, args.b, args.base)
    total = args.a + args.b
    ok = carry + residue == total
    # spelled before any is printed: a sum past the interpreter's digit limit fails whole
    print(f"CVT({args.a}, {args.b}) in base {args.base} = {carry}\n"
          f"carry-free sum = {residue}\n"
          f"decomposition: {args.a} + {args.b} = {total} = {carry} + {residue}"
          f" [{'ok' if ok else 'MISMATCH'}]")
    return 0 if ok else 1


def _cmd_table(args) -> int:
    tab = table.build_table(args.base, args.digits)
    print(f"CV table base {args.base}, {args.digits} digit(s):"
          f" extent {tab.extent}, max carry value {int(tab.values.max())}")
    _write(args.csv, lambda path: table.write_table_csv(tab, path))
    _write(args.pgm, lambda path: raster.write_pnm(raster.render_table(tab, zoom=args.zoom), path))
    return 0


def _cmd_fractal(args) -> int:
    if args.value and args.depth < 1:
        print(f"error: --value {args.value} needs --depth >= 1", file=sys.stderr)
        return 2
    value = args.value or 0
    cells = table.carry_value_set(args.base, args.depth, value)
    print(f"pattern of carry value {value} in base {args.base}, depth {args.depth}:"
          f" {len(cells)} cells on a {cells.extent}x{cells.extent} grid")
    _write(args.pbm,
           lambda path: raster.write_pnm(raster.render_cellset(cells, zoom=args.zoom), path))
    _write(args.cells, lambda path: table.write_cells_csv(cells, path))
    return 0


def _cmd_dimension(args) -> int:
    # usage errors come before any output, so a refused run prints nothing
    for flag in ("report", "depth"):
        if getattr(args, flag) is not None and not args.estimate:
            print(f"error: --{flag} requires --estimate", file=sys.stderr)
            return 2
    if args.estimate and args.depth is None:
        print("error: --estimate requires --depth", file=sys.stderr)
        return 2
    closed = dimension.similarity_dimension(args.base)
    print(f"similarity dimension (base {args.base}) = {closed:.6f}")
    print(f"gap below plane dimension 2 = {dimension.dimension_gap(args.base):.6f}")
    if args.estimate:
        cells = table.zero_carry_set(args.base, args.depth)
        est = dimension.estimate_dimension(cells)
        print(f"box-count estimate (depth {args.depth}) = {est.slope:.6f}"
              f" (fit quality {est.fit_quality:.6f})")
        _write(args.report, lambda path: dimension.write_dimension_csv(est, path))
    return 0


def _cmd_target_base(args) -> int:
    base, achieved = dimension.base_for_target_dimension(args.dimension)
    print(f"base {base} achieves dimension {achieved:.6f} for target {args.dimension:.6f}")
    if base == dimension.SEARCH_CAP:
        print(f"note: search capped at base {dimension.SEARCH_CAP}", file=sys.stderr)
    return 0


def _cmd_overlay(args) -> int:
    report = overlay.analyze_overlay(args.small, args.depth)
    print(report.to_text())
    _write(args.report, lambda path: overlay.write_overlay_report(report, path))
    _write(args.csv, lambda path: overlay.write_overlay_scales_csv(report, path))
    return 0


def _cmd_music(args) -> int:
    cells = table.zero_carry_set(args.base, args.depth)
    notes = melody.cells_to_notes(cells, scale=args.scale, base_pitch=args.base_pitch)
    print(f"zero-carry pattern base {args.base} depth {args.depth}: {len(notes)} notes")
    if notes.clamped_high:
        print(f"note: clamped {notes.clamped_high} of {len(notes)} pitches above 127 to 127",
              file=sys.stderr)
    _write(args.midi, lambda path: melody.write_midi(notes, tempo_bpm=args.tempo, path=path))
    _write(args.csv, lambda path: melody.write_notes_csv(notes, path))
    if args.spectrum:
        # the melody is a valid artifact even when its top voice is constant
        # or too short to analyze; report that instead of failing the run
        series = melody.pitch_series(notes)
        try:
            _print_spectrum(melody.spectral_exponent(series))
        except (DegenerateSeriesError, InsufficientDataError) as exc:
            print(f"spectral exponent: undefined ({exc})")
    return 0


def _print_spectrum(report) -> None:
    print(f"spectral exponent beta = {report.beta:.4f}"
          f" (fit quality {report.fit_quality:.4f},"
          f" {report.frequencies_used} bins, {report.series_length} samples)")


def _cmd_spectrum(args) -> int:
    series = melody.read_series_csv(args.series)
    _print_spectrum(melody.spectral_exponent(series))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvtfractals",
        description="Carry-value fractals: patterns, dimensions, images, melodies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cvt", help="carry value and carry-free sum of two integers")
    p.add_argument("--base", type=_base_arg, required=True)
    p.add_argument("a", type=_nonneg_arg)
    p.add_argument("b", type=_nonneg_arg)
    p.set_defaults(func=_cmd_cvt)

    p = sub.add_parser("table", help="build a carry-value table")
    p.add_argument("--base", type=_base_arg, required=True)
    p.add_argument("--digits", type=_pos_arg, required=True)
    p.add_argument("--csv", metavar="PATH")
    p.add_argument("--pgm", metavar="PATH")
    p.add_argument("--zoom", type=_pos_arg, default=1)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("fractal", help="extract a carry-value pattern")
    p.add_argument("--base", type=_base_arg, required=True)
    p.add_argument("--depth", type=_nonneg_arg, required=True)
    p.add_argument("--value", type=_nonneg_arg, help="carry value to select (default 0)")
    p.add_argument("--pbm", metavar="PATH")
    p.add_argument("--cells", metavar="PATH")
    p.add_argument("--zoom", type=_pos_arg, default=1)
    p.set_defaults(func=_cmd_fractal)

    p = sub.add_parser("dimension", help="closed-form dimension, optional box-count estimate")
    p.add_argument("--base", type=_base_arg, required=True)
    p.add_argument("--estimate", action="store_true")
    p.add_argument("--depth", type=_int_arg(2))
    p.add_argument("--report", metavar="PATH")
    p.set_defaults(func=_cmd_dimension)

    p = sub.add_parser("target-base", help="base whose dimension is nearest a target")
    p.add_argument("--dimension", type=float, required=True)
    p.set_defaults(func=_cmd_target_base)

    p = sub.add_parser("overlay", help="overflow generator of consecutive bases")
    p.add_argument("--small", type=_base_arg, required=True)
    p.add_argument("--depth", type=_int_arg(2), required=True)
    p.add_argument("--report", metavar="PATH")
    p.add_argument("--csv", metavar="PATH")
    p.set_defaults(func=_cmd_overlay)

    p = sub.add_parser("music", help="render a zero-carry pattern as a MIDI melody")
    p.add_argument("--base", type=_base_arg, required=True)
    p.add_argument("--depth", type=_nonneg_arg, required=True)
    p.add_argument("--scale", choices=sorted(melody.SCALES), default="major")
    p.add_argument("--base-pitch", type=_int_arg(0, 127), default=60)
    p.add_argument("--tempo", type=_int_arg(melody.MIN_TEMPO, melody.MAX_TEMPO), default=120,
                   help="beats per minute; each grid cell is a sixteenth note")
    p.add_argument("--midi", metavar="PATH", required=True)
    p.add_argument("--csv", metavar="PATH")
    p.add_argument("--spectrum", action="store_true",
                   help="also fit the pitch series' spectral exponent")
    p.set_defaults(func=_cmd_music)

    p = sub.add_parser("spectrum", help="spectral exponent of a series")
    p.add_argument("--in", dest="series", metavar="SERIES.csv", required=True,
                   help="CSV with one value per line (optional header)")
    p.set_defaults(func=_cmd_spectrum)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (CvtError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
