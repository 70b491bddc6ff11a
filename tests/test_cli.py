import argparse
import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cvtfractals import cli, raster
from cvtfractals.cli import run
from helpers import parse_pnm, parse_smf


def test_cvt_binary_worked_example(capsys):
    assert run(["cvt", "--base", "2", "13", "14"]) == 0
    out = capsys.readouterr().out
    assert "= 24" in out
    assert "carry-free sum = 3" in out
    assert "13 + 14 = 27" in out


def test_cvt_ternary_worked_example(capsys):
    assert run(["cvt", "--base", "3", "13", "14"]) == 0
    out = capsys.readouterr().out
    assert "= 3" in out
    assert "carry-free sum = 24" in out


@pytest.fixture
def digit_limit():
    """The interpreter's default limit on the digits int() and str() convert."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def test_cvt_sum_past_the_digit_limit_prints_nothing(capsys, digit_limit):
    # the sum has one digit more than str() spells: no line of the result is printed
    assert run(["cvt", "--base", "2", "9" * digit_limit, "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert f"{digit_limit} digits" in captured.err


@pytest.mark.parametrize("a,b,digits", [
    ("9" * 4300, "1", 4301),
    ("9" * 4300, "9" * 4300, 4301),
    ("5" * 4300, "5" * 4300, 4301),
], ids=["nines+1", "nines+nines", "fives+fives"])
def test_cvt_sum_past_the_digit_limit_is_explained_in_cli_terms(capsys, digit_limit, a, b, digits):
    # the message names the sum's digits and the limit, not a Python function to call
    assert run(["cvt", "--base", "10", a, b]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "set_int_max_str_digits" not in captured.err
    assert captured.err == (f"error: the sum a + b has {digits} digits, and this interpreter"
                            f" prints integers of at most {digit_limit} digits\n")


def test_operand_past_the_digit_limit_names_the_limit(capsys, digit_limit):
    assert run(["cvt", "--base", "2", "9" * (digit_limit + 1), "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"argument a: '9999999999'... ({digit_limit + 1} characters) is not an integer"
            f" of at most {digit_limit} digits") in captured.err
    assert "9" * 11 not in captured.err


def test_dimension_base_five(capsys):
    assert run(["dimension", "--base", "5"]) == 0
    assert "1.682606" in capsys.readouterr().out


def test_dimension_estimate_and_report(capsys, tmp_path):
    report = tmp_path / "dim.csv"
    code = run(
        ["dimension", "--base", "2", "--estimate", "--depth", "6", "--report", str(report)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "box-count estimate" in out
    lines = report.read_text().splitlines()
    assert lines[0] == "scale,count,log_scale,log_count"
    assert lines[-2].startswith("slope,1.58")


def test_dimension_report_requires_estimate(capsys, tmp_path):
    code = run(["dimension", "--base", "2", "--report", str(tmp_path / "x.csv")])
    assert code == 2
    captured = capsys.readouterr()
    assert "--estimate" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv,message", [
    (["--depth", "5"], "error: --depth requires --estimate\n"),
    (["--estimate"], "error: --estimate requires --depth\n"),
], ids=["depth-without-estimate", "estimate-without-depth"])
def test_dimension_usage_errors_print_nothing(capsys, argv, message):
    assert run(["dimension", "--base", "3", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_fractal_depth_zero_pbm(capsys, tmp_path):
    path = tmp_path / "dot.pbm"
    assert run(["fractal", "--base", "3", "--depth", "0", "--pbm", str(path)]) == 0
    assert path.read_bytes() == b"P1\n1 1\n1\n"


def test_fractal_value_filter(capsys, tmp_path):
    cells_path = tmp_path / "cells.csv"
    code = run(
        ["fractal", "--base", "2", "--depth", "2", "--value", "2", "--cells", str(cells_path)]
    )
    assert code == 0
    assert cells_path.read_text().splitlines() == ["1,1", "1,3", "3,1"]


def test_fractal_value_needs_table_depth(capsys):
    assert run(["fractal", "--base", "2", "--depth", "0", "--value", "2"]) == 2


def test_fractal_value_zero_at_depth_zero(capsys):
    # carry value 0 is the default pattern, which exists at every depth
    assert run(["fractal", "--base", "2", "--depth", "0"]) == 0
    default = capsys.readouterr().out
    assert run(["fractal", "--base", "2", "--depth", "0", "--value", "0"]) == 0
    assert capsys.readouterr().out == default


def test_fractal_artifacts_reproducible(tmp_path):
    args = ["fractal", "--base", "2", "--depth", "5", "--pbm"]
    first, second = tmp_path / "a.pbm", tmp_path / "b.pbm"
    assert run(args + [str(first)]) == 0
    assert run(args + [str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_table_outputs(capsys, tmp_path):
    csv_path = tmp_path / "t.csv"
    pgm_path = tmp_path / "t.pgm"
    code = run(
        ["table", "--base", "2", "--digits", "2", "--csv", str(csv_path), "--pgm", str(pgm_path)]
    )
    assert code == 0
    assert csv_path.read_text().startswith(",0,1,2,3\n")
    mode, w, h, _ = parse_pnm(pgm_path.read_bytes())
    assert (mode, w, h) == ("gray", 4, 4)


def test_target_base(capsys):
    assert run(["target-base", "--dimension", "1.68"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("base 5 ")
    assert "1.682606" in out


def test_target_base_out_of_range(capsys):
    assert run(["target-base", "--dimension", "2.5"]) == 1
    assert "error" in capsys.readouterr().err


def test_overlay_report(capsys, tmp_path):
    report = tmp_path / "overlay.txt"
    csv_path = tmp_path / "overlay.csv"
    code = run(
        ["overlay", "--small", "2", "--depth", "5", "--report", str(report), "--csv", str(csv_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "claimed dimension increment: 1.584963" in out
    assert "measured box-count dimension: 1.000000" in out
    assert report.read_text().splitlines()[0].startswith("overlay:")
    assert csv_path.read_text().splitlines()[0] == "scale,count"


def test_music_pipeline(capsys, tmp_path):
    midi = tmp_path / "m.mid"
    csv_path = tmp_path / "m.csv"
    code = run(
        [
            "music", "--base", "2", "--depth", "6",
            "--scale", "major", "--base-pitch", "0", "--tempo", "100",
            "--midi", str(midi), "--csv", str(csv_path), "--spectrum",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "notes" in out
    # the top voice is one 108 then 31 x 107, whose spectrum is flat
    assert ("spectral exponent: undefined (spectrum is flat: every frequency bin"
            " carries equal power)") in out
    data = midi.read_bytes()
    assert data.startswith(b"MThd")
    division, tempo_us, notes = parse_smf(data)
    assert division == 480
    assert tempo_us == 600_000
    assert len(notes) == len(csv_path.read_text().splitlines()) - 1


def test_music_degenerate_spectrum_still_succeeds(capsys, tmp_path):
    # with the default base pitch the clamped top voice is constant; the
    # melody is still written and the undefined spectrum is reported as such
    code = run(
        ["music", "--base", "2", "--depth", "6", "--midi", str(tmp_path / "m.mid"), "--spectrum"]
    )
    assert code == 0
    assert "spectral exponent: undefined" in capsys.readouterr().out


def test_music_byte_stable(tmp_path):
    args = ["music", "--base", "3", "--depth", "3", "--midi"]
    a, b = tmp_path / "a.mid", tmp_path / "b.mid"
    assert run(args + [str(a)]) == 0
    assert run(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv,err", [
    (["--base", "2", "--depth", "6"],
     "note: clamped 215 of 365 pitches above 127 to 127\n"),
    (["--base", "2", "--depth", "6", "--base-pitch", "0", "--scale", "chromatic"], ""),
], ids=["clamped", "in-range"])
def test_music_reports_clamped_pitches(capsys, tmp_path, argv, err):
    assert run(["music", *argv, "--midi", str(tmp_path / "m.mid")]) == 0
    captured = capsys.readouterr()
    assert captured.err == err
    assert captured.out.splitlines()[0] == "zero-carry pattern base 2 depth 6: 365 notes"


@pytest.mark.parametrize("tempo", ["3", "7813", "45000000", "100000000"])
def test_music_refuses_tempo_outside_the_exact_range(capsys, tmp_path, tempo):
    midi = tmp_path / "m.mid"
    assert run(["music", "--base", "2", "--depth", "3", "--tempo", tempo,
                "--midi", str(midi)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be in [4, 7812]" in captured.err
    assert not midi.exists()


@pytest.mark.parametrize("tempo", [4, 7812])
def test_music_accepts_the_tempo_range_ends(capsys, tmp_path, tempo):
    midi = tmp_path / "m.mid"
    assert run(["music", "--base", "2", "--depth", "3", "--tempo", str(tempo),
                "--midi", str(midi)]) == 0
    _, tempo_us, _ = parse_smf(midi.read_bytes())
    assert round(60_000_000 / tempo_us) == tempo


def test_spectrum_from_file(capsys, tmp_path):
    series = tmp_path / "series.csv"
    series.write_text("\n".join(str((i * 37 % 11) - 5) for i in range(128)) + "\n")
    assert run(["spectrum", "--in", str(series)]) == 0
    assert "spectral exponent beta" in capsys.readouterr().out


def test_spectrum_needs_exactly_one_source(capsys):
    assert run(["spectrum"]) == 2
    assert "the following arguments are required: --in" in capsys.readouterr().err
    for extra in (["--selftest"], ["--seed", "0"], ["--length", "4096"]):
        assert run(["spectrum", "--in", "x.csv", *extra]) == 2
        assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2
    assert run([]) == 2


def test_bad_flag_values_are_usage_errors(capsys):
    assert run(["cvt", "--base", "1", "3", "4"]) == 2
    assert run(["cvt", "--base", "x", "3", "4"]) == 2
    assert run(["music", "--base", "2", "--depth", "3", "--base-pitch", "128",
                "--midi", "x.mid"]) == 2
    # the overlay's estimate needs two scales, like `dimension --depth`
    assert run(["overlay", "--small", "2", "--depth", "1"]) == 2


def test_path_ending_in_a_separator_is_an_error(capsys, tmp_path, monkeypatch):
    # it names no file, and was written as the file without its separator
    monkeypatch.chdir(tmp_path)
    assert run(["fractal", "--base", "2", "--depth", "2", "--cells", "newdir" + os.sep]) == 1
    captured = capsys.readouterr()
    assert "wrote" not in captured.out
    assert captured.err == f"error: [Errno 21] Is a directory: 'newdir{os.sep}'\n"
    assert os.listdir(tmp_path) == []


def test_runtime_errors_exit_one(capsys, tmp_path):
    # extent beyond the size cap is a clean runtime failure
    assert run(["fractal", "--base", "2", "--depth", "25"]) == 1
    assert "error" in capsys.readouterr().err
    # unreadable series file
    assert run(["spectrum", "--in", str(tmp_path / "missing.csv")]) == 1


@pytest.mark.parametrize("argv,message", [
    (["table", "--base", "2", "--digits", "100000"],
     "error: table extent 2**100000 exceeds limit 4096"),
    (["fractal", "--base", "2", "--depth", "1000000000", "--value", "2"],
     "error: pattern extent 2**1000000000 exceeds limit 1048576"),
    (["overlay", "--small", "2", "--depth", "13"],
     "error: pattern extent 3**13 exceeds limit 1048576"),
    (["dimension", "--base", "2", "--estimate", "--depth", "21"],
     "error: pattern extent 2**21 exceeds limit 1048576"),
], ids=["table", "fractal", "overlay", "dimension"])
def test_oversized_requests_name_the_limit(capsys, argv, message):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


@pytest.mark.parametrize("argv", [
    ["table", "--base", "2", "--digits", "1"],
    ["fractal", "--base", "2", "--depth", "1"],
    ["dimension", "--base", "2", "--estimate", "--depth", "2"],
    ["overlay", "--small", "2", "--depth", "2"],
    ["music", "--base", "2", "--depth", "1", "--midi", "{tmp}/x.mid"],
], ids=lambda argv: argv[0])
def test_size_limits_are_not_flags(capsys, tmp_path, argv):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert run([*argv, "--max-extent", "4"]) == 2
    assert "unrecognized arguments: --max-extent" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--ticks", "120"), ("--division", "480"),
                                        ("--velocity", "100")])
def test_midi_timing_is_not_a_flag(capsys, tmp_path, flag, value):
    # each cell is a fixed sixteenth note at a fixed velocity; only --tempo is settable
    midi = tmp_path / "m.mid"
    assert run(["music", "--base", "2", "--depth", "1", "--midi", str(midi), flag, value]) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not midi.exists()


def test_negative_operand_rejected(capsys):
    assert run(["cvt", "--base", "2", "--", "-3", "4"]) == 2


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0


def _run_module(module, *argv, **kwargs):
    """Run `python -m module argv` on this checkout's package in a subprocess."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", module, *argv],
                          capture_output=True, text=True, env=env, timeout=120, **kwargs)


def test_value_pattern_over_the_cell_limit_is_refused_cleanly():
    # a dense carry-value table on this 2**20 grid would need 8 TiB, and the overflow
    # generator of base 2**30 8 GiB; under a 1 GiB address-space limit any attempt
    # to build either fails fast instead of paging
    resource = pytest.importorskip("resource")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    for argv in (["fractal", "--base", "2", "--depth", "20", "--value", "2"],
                 ["overlay", "--small", "1073741824", "--depth", "2"]):
        proc = _run_module("cvtfractals", *argv, preexec_fn=limit_memory)
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "exceeds limit" in lines[0]


@pytest.mark.parametrize("base,depth,cells,limit_mib", [
    (90, 2, 16_769_025, 320),
    (5792, 1, 16_776_528, 640),
])
def test_the_largest_admitted_patterns_fit_their_address_space(base, depth, cells, limit_mib):
    # the two patterns nearest MAX_CELLS, 134 MB of keys each; base 5792 finds its one
    # level among 33.5M digit pairs, base 90 substitutes 4,095 pairs into 4,095 cells
    resource = pytest.importorskip("resource")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit_mib << 20, limit_mib << 20))

    proc = _run_module("cvtfractals", "fractal", "--base", str(base), "--depth", str(depth),
                       preexec_fn=limit_memory)
    assert proc.returncode == 0, proc.stderr
    extent = base**depth
    assert proc.stdout == (f"pattern of carry value 0 in base {base}, depth {depth}: "
                           f"{cells} cells on a {extent}x{extent} grid\n")


def test_the_widest_admitted_melody_fits_its_address_space(tmp_path):
    # 5,792 notes from the 16,776,528 cells of base 5792, 134 MB of keys: the runs are
    # found in 32-bit keys, each temporary dropped once used, and the cells are let go
    # once their notes exist; with int64 run keys this call needed about 500 MiB
    resource = pytest.importorskip("resource")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (440 << 20, 440 << 20))

    path = tmp_path / "m.mid"
    proc = _run_module("cvtfractals", "music", "--base", "5792", "--depth", "1",
                       "--midi", str(path), preexec_fn=limit_memory)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"zero-carry pattern base 5792 depth 1: 5792 notes\nwrote {path}\n"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "dfdf2a48683bae4c35849218da0bc145457349ebfefd90e4ed62e70e0c30077e")


def test_cli_module_runs_as_a_script():
    proc = _run_module("cvtfractals.cli", "fractal", "--base", "2", "--depth", "3")
    assert proc.returncode == 0
    assert proc.stdout == "pattern of carry value 0 in base 2, depth 3: 27 cells on a 8x8 grid\n"
    assert _run_module("cvtfractals.cli").returncode == 2


@pytest.mark.parametrize("argv,renderer", [
    (["table", "--base", "3", "--digits", "2", "--zoom", "100000", "--csv"], "render_table"),
    (["fractal", "--base", "3", "--depth", "2", "--cells"], "render_cellset"),
], ids=["table", "fractal"])
def test_no_image_is_rendered_unless_asked_for(capsys, tmp_path, monkeypatch, argv, renderer):
    # an unused --zoom stays unchecked: only the image it scales would refuse it
    def refuse(*args, **kwargs):
        raise AssertionError(f"{renderer} ran without an image to write")

    monkeypatch.setattr(raster, renderer, refuse)
    path = tmp_path / "out.csv"
    assert run([*argv, str(path)]) == 0
    assert [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("wrote")] == [f"wrote {path}"]
    assert path.exists()


@pytest.mark.parametrize("argv", [
    ["table", "--base", "2", "--digits", "2", "--csv", "x.csv", "--pgm", "g.pgm"],
    ["fractal", "--base", "2", "--depth", "2", "--pbm", "f.pbm", "--cells", "c.csv"],
], ids=["table", "fractal"])
def test_refused_zoom_prints_and_writes_nothing(capsys, tmp_path, monkeypatch, argv):
    # the image is rendered before the summary line and every file, so its size cap
    # refuses the whole call, not the image alone
    monkeypatch.chdir(tmp_path)
    assert run([*argv, "--zoom", "5000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: image side 20000 exceeds limit 16384\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["music", "--base", "2", "--depth", "2", "--midi", ""],
    ["table", "--base", "2", "--digits", "2", "--csv", ""],
], ids=["music-midi", "table-csv"])
def test_empty_output_path_is_an_error(capsys, tmp_path, monkeypatch, argv):
    # an empty path names no file: refused before anything is created
    (tmp_path / "work").mkdir()
    monkeypatch.chdir(tmp_path / "work")
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert "wrote" not in captured.out
    assert captured.err.startswith("error: ")
    assert sorted(os.listdir(tmp_path)) == ["work"]


def _subparsers(parser):
    """The subcommand parsers that parser holds, by name, in the order it added them."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _path_options(name):
    """The option strings of subcommand name whose metavar is PATH, read from its parser."""
    actions = _subparsers(cli.build_parser(name))[name]._actions
    return [action.option_strings[0] for action in actions if action.metavar == "PATH"]


# every subcommand that writes two files or more: the arguments it needs besides its
# outputs, and each pair of its output options in parser order
TWO_OUTPUTS = {
    name: (argv, list(itertools.combinations(paths, 2)))
    for name, argv in {
        "table": ["table", "--base", "2", "--digits", "2"],
        "fractal": ["fractal", "--base", "2", "--depth", "2"],
        "dimension": ["dimension", "--base", "3", "--estimate", "--depth", "2"],
        "overlay": ["overlay", "--small", "3", "--depth", "3"],
        "music": ["music", "--base", "2", "--depth", "3"],
    }.items()
    if len(paths := _path_options(name)) > 1
}


def test_every_writing_subcommand_is_checked_for_output_pairs():
    # a subcommand that gains an output option joins the check, or this test names it
    writers = {name for name in _subparsers(cli.build_parser()) if len(_path_options(name)) > 1}
    assert writers == set(TWO_OUTPUTS)


@pytest.mark.parametrize("command", sorted(TWO_OUTPUTS))
@pytest.mark.parametrize("other", ["out", os.path.join(".", "sub", os.pardir, "out")])
def test_two_outputs_naming_one_file_are_refused(capsys, tmp_path, monkeypatch, command, other):
    # the second write would replace the first one's file: refused before anything is written
    monkeypatch.chdir(tmp_path)
    os.mkdir("sub")
    argv, pairs = TWO_OUTPUTS[command]
    for first, second in pairs:
        assert run([*argv, first, "out", second, other]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {first} and {second} name the same file"
                                f" {os.path.realpath('out')}\n")
        assert os.listdir(tmp_path) == ["sub"]


def test_a_symlink_to_another_output_names_its_file(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("notes.csv").write_bytes(b"old")
    os.symlink("notes.csv", "link")
    assert run(["music", "--base", "2", "--depth", "3", "--midi", "link", "--csv", "notes.csv"]) == 2
    assert "--midi and --csv name the same file" in capsys.readouterr().err
    assert Path("notes.csv").read_bytes() == b"old"
    assert sorted(os.listdir(tmp_path)) == ["link", "notes.csv"]


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
def test_a_device_may_take_two_outputs(capsys):
    # nothing is replaced at a device, so both writes reach it
    assert run(["music", "--base", "2", "--depth", "3",
                "--midi", os.devnull, "--csv", os.devnull]) == 0
    assert capsys.readouterr().out.count(f"wrote {os.devnull}") == 2


# one valid call per subcommand; each starts with a required flag and its value
VALID = {
    "cvt": ["--base", "2", "13", "14"],
    "table": ["--base", "3", "--digits", "2", "--csv", "t.csv"],
    "fractal": ["--base", "2", "--depth", "3", "--value", "2", "--pbm", "f.pbm"],
    "dimension": ["--base", "3", "--estimate", "--depth", "4"],
    "target-base": ["--dimension", "1.68"],
    "overlay": ["--small", "2", "--depth", "3", "--csv", "o.csv"],
    "music": ["--base", "2", "--depth", "3", "--scale", "major", "--midi", "m.mid", "--spectrum"],
    "spectrum": ["--in", "s.csv"],
}
BAD_VALUE = {name: [argv[0], "x", *argv[2:]] for name, argv in VALID.items()}
BAD_VALUE.update(music=[*VALID["music"], "--scale", "dorian"], spectrum=["--in"])
PARSES = [
    *([name, *argv] for name, argv in VALID.items()),
    *([name, "-h"] for name in VALID),
    *([name, *argv[2:]] for name, argv in VALID.items()),  # a required flag missing
    *([name, *argv] for name, argv in BAD_VALUE.items()),
    *([name, *argv, "--bogus"] for name, argv in VALID.items()),
    *([name, *argv, "--", "7"] for name, argv in VALID.items()),
    ["cvt", "--base", "2", "--", "13", "14"],
    [], ["-h"], ["--help", "music"], ["frobnicate"], ["frobnicate", "--bogus"],
]


def _parse(capsys, parser, argv):
    """Exit code, namespace, stdout and stderr of parser.parse_args(argv)."""
    try:
        result = 0, vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code, None
    return (*result, *capsys.readouterr())


@pytest.mark.parametrize("argv", PARSES, ids=" ".join)
def test_a_calls_parser_parses_as_the_full_parser_does(capsys, argv):
    # the usage line of an unrecognized-arguments error names every subcommand, also when
    # the parser holds only the one called
    assert _parse(capsys, cli.build_parser(argv[0] if argv else None), argv) == \
        _parse(capsys, cli.build_parser(), argv)


@pytest.fixture
def added_subcommands(monkeypatch):
    """The name of every subcommand added to a parser from now on, in order."""
    names, add_parser = [], argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    return names


def test_a_call_builds_only_its_own_subcommand(capsys, added_subcommands):
    assert run(["target-base", "--dimension", "1.68"]) == 0
    assert added_subcommands == ["target-base"]
    for name in cli.SUBCOMMANDS:
        added_subcommands.clear()
        assert run([name, "-h"]) == 0
        assert added_subcommands == [name]


def test_the_full_parser_adds_every_listed_subcommand(capsys, added_subcommands):
    # cli.SUBCOMMANDS decides which calls get a narrow parser and names them in its usage
    assert run(["-h"]) == 0
    assert added_subcommands == list(cli.SUBCOMMANDS)


# every subcommand in usage order, with its arguments in parser order: option strings, dest,
# required, default, choices and metavar, written out here rather than read from cli.py
SURFACE = {
    "cvt": [
        (["--base"], "base", True, None, None, None),
        ([], "a", True, None, None, None),
        ([], "b", True, None, None, None),
    ],
    "table": [
        (["--base"], "base", True, None, None, None),
        (["--digits"], "digits", True, None, None, None),
        (["--csv"], "csv", False, None, None, "PATH"),
        (["--pgm"], "pgm", False, None, None, "PATH"),
        (["--zoom"], "zoom", False, 1, None, None),
    ],
    "fractal": [
        (["--base"], "base", True, None, None, None),
        (["--depth"], "depth", True, None, None, None),
        (["--value"], "value", False, None, None, None),
        (["--pbm"], "pbm", False, None, None, "PATH"),
        (["--cells"], "cells", False, None, None, "PATH"),
        (["--zoom"], "zoom", False, 1, None, None),
    ],
    "dimension": [
        (["--base"], "base", True, None, None, None),
        (["--estimate"], "estimate", False, False, None, None),
        (["--depth"], "depth", False, None, None, None),
        (["--report"], "report", False, None, None, "PATH"),
    ],
    "target-base": [
        (["--dimension"], "dimension", True, None, None, None),
    ],
    "overlay": [
        (["--small"], "small", True, None, None, None),
        (["--depth"], "depth", True, None, None, None),
        (["--report"], "report", False, None, None, "PATH"),
        (["--csv"], "csv", False, None, None, "PATH"),
    ],
    "music": [
        (["--base"], "base", True, None, None, None),
        (["--depth"], "depth", True, None, None, None),
        (["--scale"], "scale", False, "major", ["chromatic", "major", "minor", "pentatonic"],
         None),
        (["--base-pitch"], "base_pitch", False, 60, None, None),
        (["--tempo"], "tempo", False, 120, None, None),
        (["--midi"], "midi", True, None, None, "PATH"),
        (["--csv"], "csv", False, None, None, "PATH"),
        (["--spectrum"], "spectrum", False, False, None, None),
    ],
    "spectrum": [
        (["--in"], "series", True, None, None, "SERIES.csv"),
    ],
}


@pytest.mark.parametrize("name", SURFACE)
def test_each_subcommand_takes_the_arguments_it_documents(name):
    parser = _subparsers(cli.build_parser(name))[name]
    arguments = [(action.option_strings, action.dest, action.required, action.default,
                  None if action.choices is None else list(action.choices), action.metavar)
                 for action in parser._actions if not isinstance(action, argparse._HelpAction)]
    assert arguments == SURFACE[name]
    assert parser.get_default("func") is not None


@pytest.mark.parametrize("command", [None, *SURFACE])
def test_the_usage_line_lists_every_subcommand_in_order(command):
    # a narrow parser names every subcommand too, in the order of the full one
    assert "{" + ",".join(SURFACE) + "}" in cli.build_parser(command).format_usage()
    assert list(_subparsers(cli.build_parser())) == list(SURFACE)
