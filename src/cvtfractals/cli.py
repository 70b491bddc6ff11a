"""Command-line front end: one subcommand per pipeline.

Exit codes: 0 on success, 2 for argument errors, 1 for runtime errors.
Results go to standard output, diagnostics to standard error.
"""

from __future__ import annotations

import argparse
import math
import os
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


def _same_output(args) -> str | None:
    """A refusal when two output options of args name one file that write_chunks would
    replace, a missing or regular one: the second write would replace the first's file."""
    flags = [names[0] for names, kw in SUBCOMMANDS[args.command][2] if kw.get("metavar") == "PATH"]
    paths = {flag: getattr(args, flag[2:].replace("-", "_")) or "" for flag in flags}
    # an option not given, or a path naming no file, which write_chunks refuses, is left out;
    # one path alone cannot clash, and costs no file system call
    given = [(flag, path) for flag, path in paths.items() if os.path.basename(path)]
    named = {}
    for flag, path in given if len(given) > 1 else ():
        real = os.path.realpath(path)
        if os.path.exists(real) and not os.path.isfile(real):
            continue  # a FIFO or device takes every write
        if real in named:
            return f"{named[real]} and {flag} name the same file {real}"
        named[real] = flag
    return None


def _cmd_cvt(args) -> int:
    carry = radix.cvt(args.a, args.b, args.base)
    residue = radix.sum_without_carry(args.a, args.b, args.base)
    total = args.a + args.b
    ok = carry + residue == total
    # spelled before any is printed: a sum past the interpreter's digit limit fails whole
    try:
        text = (f"CVT({args.a}, {args.b}) in base {args.base} = {carry}\n"
                f"carry-free sum = {residue}\n"
                f"decomposition: {args.a} + {args.b} = {total} = {carry} + {residue}"
                f" [{'ok' if ok else 'MISMATCH'}]")
    except ValueError:
        # the sum is the longest number printed, and its text is what was refused
        print(f"error: the sum a + b has {_decimal_digits(total)} digits, and this"
              f" interpreter prints integers of at most {sys.get_int_max_str_digits()} digits",
              file=sys.stderr)
        return 1
    print(text)
    return 0 if ok else 1


def _decimal_digits(n: int) -> int:
    """The number of decimal digits of n > 0, counted without spelling n."""
    # 2**(bits - 1) <= n < 2**bits, so n has either floor(bits * log10(2)) digits or one more
    digits = int(n.bit_length() * math.log10(2))
    return digits + (n >= 10**digits)


def _cmd_table(args) -> int:
    tab = table.build_table(args.base, args.digits)
    # the image comes before any output, so a zoom its size cap refuses leaves none
    image = raster.render_table(tab, zoom=args.zoom) if args.pgm is not None else None
    print(f"CV table base {args.base}, {args.digits} digit(s):"
          f" extent {tab.extent}, max carry value {tab.max_value}")
    _write(args.csv, lambda path: table.write_table_csv(tab, path))
    _write(args.pgm, lambda path: raster.write_pnm(image, path))
    return 0


def _cmd_fractal(args) -> int:
    if args.value and args.depth < 1:
        print(f"error: --value {args.value} needs --depth >= 1", file=sys.stderr)
        return 2
    value = args.value or 0
    cells = table.carry_value_set(args.base, args.depth, value)
    image = raster.render_cellset(cells, zoom=args.zoom) if args.pbm is not None else None
    print(f"pattern of carry value {value} in base {args.base}, depth {args.depth}:"
          f" {len(cells)} cells on a {cells.extent}x{cells.extent} grid")
    _write(args.pbm, lambda path: raster.write_pnm(image, path))
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
    # the estimate comes before any output too, so a size cap refuses it whole
    if args.estimate:
        est = dimension.estimate_dimension(table.zero_carry_set(args.base, args.depth))
    closed = dimension.similarity_dimension(args.base)
    print(f"similarity dimension (base {args.base}) = {closed:.6f}")
    print(f"gap below plane dimension 2 = {dimension.dimension_gap(args.base):.6f}")
    if args.estimate:
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
    # the cell set is dropped once its notes exist
    notes = melody.cells_to_notes(table.zero_carry_set(args.base, args.depth),
                                  scale=args.scale, base_pitch=args.base_pitch)
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


def _arg(*names, **kw):
    """One argument of a subcommand: the arguments of its add_argument call."""
    return names, kw


_BASE = _arg("--base", type=_base_arg, required=True)
_ZOOM = _arg("--zoom", type=_pos_arg, default=1)
# every subcommand in usage order: its help, its handler and its arguments in parser order;
# an option of metavar PATH names a file the subcommand writes
SUBCOMMANDS = {
    "cvt": ("carry value and carry-free sum of two integers", _cmd_cvt, [
        _BASE, _arg("a", type=_nonneg_arg), _arg("b", type=_nonneg_arg)]),
    "table": ("build a carry-value table", _cmd_table, [
        _BASE, _arg("--digits", type=_pos_arg, required=True), _arg("--csv", metavar="PATH"),
        _arg("--pgm", metavar="PATH"), _ZOOM]),
    "fractal": ("extract a carry-value pattern", _cmd_fractal, [
        _BASE, _arg("--depth", type=_nonneg_arg, required=True),
        _arg("--value", type=_nonneg_arg, help="carry value to select (default 0)"),
        _arg("--pbm", metavar="PATH"), _arg("--cells", metavar="PATH"), _ZOOM]),
    "dimension": ("closed-form dimension, optional box-count estimate", _cmd_dimension, [
        _BASE, _arg("--estimate", action="store_true"), _arg("--depth", type=_int_arg(2)),
        _arg("--report", metavar="PATH")]),
    "target-base": ("base whose dimension is nearest a target", _cmd_target_base, [
        _arg("--dimension", type=float, required=True)]),
    "overlay": ("overflow generator of consecutive bases", _cmd_overlay, [
        _arg("--small", type=_base_arg, required=True),
        _arg("--depth", type=_int_arg(2), required=True),
        _arg("--report", metavar="PATH"), _arg("--csv", metavar="PATH")]),
    "music": ("render a zero-carry pattern as a MIDI melody", _cmd_music, [
        _BASE, _arg("--depth", type=_nonneg_arg, required=True),
        _arg("--scale", choices=sorted(melody.SCALES), default="major"),
        _arg("--base-pitch", type=_int_arg(0, 127), default=60),
        _arg("--tempo", type=_int_arg(melody.MIN_TEMPO, melody.MAX_TEMPO), default=120,
             help="beats per minute; each grid cell is a sixteenth note"),
        _arg("--midi", metavar="PATH", required=True), _arg("--csv", metavar="PATH"),
        _arg("--spectrum", action="store_true",
             help="also fit the pitch series' spectral exponent")]),
    "spectrum": ("spectral exponent of a series", _cmd_spectrum, [
        _arg("--in", dest="series", metavar="SERIES.csv", required=True,
             help="CSV with one value per line (optional header)")]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone when it names one."""
    parser = argparse.ArgumentParser(
        prog="cvtfractals",
        description="Carry-value fractals: patterns, dimensions, images, melodies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    if command in SUBCOMMANDS:  # the usage line of an unrecognized-arguments error names them all
        sub.metavar = "{" + ",".join(SUBCOMMANDS) + "}"
    for name in [command] if command in SUBCOMMANDS else SUBCOMMANDS:
        help_text, func, arguments = SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for names, kw in arguments:
            p.add_argument(*names, **kw)
        p.set_defaults(func=func)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if clash := _same_output(args):
        print(f"error: {clash}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (CvtError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
