"""Every integer input of the library is refused alike: a non-integer, or an
integer outside its range, raises ValueError whose message begins with the
argument's name (InvalidBaseError for a base), before any work is done."""

import numpy as np
import pytest

from cvtfractals import (
    CellSet,
    CvTable,
    InvalidBaseError,
    InvalidScaleError,
    Notes,
    RasterImage,
    box_count,
    build_table,
    carry_value_set,
    cells_to_notes,
    cvt,
    dimension_gap,
    iterate_overflow_fractal,
    overflow_generator,
    render_cellset,
    render_table,
    similarity_dimension,
    sum_without_carry,
    value_cells,
    write_midi,
    zero_carry_set,
)
from cvtfractals.cli import run

# id: (call taking the refused value, argument name, an out-of-range value or a tuple of
# them, error)
SCALARS = {
    "cvt.a": (lambda x: cvt(x, 1, 2), "a", -1, ValueError),
    "cvt.b": (lambda x: cvt(1, x, 2), "b", -1, ValueError),
    "cvt.base": (lambda x: cvt(1, 1, x), "base", 1, InvalidBaseError),
    "sum_without_carry.base": (lambda x: sum_without_carry(1, 1, x), "base", 0, InvalidBaseError),
    "similarity_dimension.base": (similarity_dimension, "base", 1, InvalidBaseError),
    "dimension_gap.base": (dimension_gap, "base", -2, InvalidBaseError),
    "CellSet.base": (lambda x: CellSet(x, 1, [0]), "base", 1, InvalidBaseError),
    "CellSet.depth": (lambda x: CellSet(2, x, [0]), "depth", -1, ValueError),
    "CvTable.base": (lambda x: CvTable(x, 1), "base", 1, InvalidBaseError),
    "CvTable.digits_k": (lambda x: CvTable(2, x), "digits_k", 0, ValueError),
    "build_table.base": (lambda x: build_table(x, 1), "base", 1, InvalidBaseError),
    "build_table.digits_k": (lambda x: build_table(2, x), "digits_k", 0, ValueError),
    "value_cells.v": (lambda x: value_cells(build_table(2, 1), x), "v", -1, ValueError),
    "carry_value_set.base": (lambda x: carry_value_set(x, 1), "base", 1, InvalidBaseError),
    "carry_value_set.depth": (lambda x: carry_value_set(2, x), "depth", -1, ValueError),
    "carry_value_set.value": (lambda x: carry_value_set(2, 2, x), "value", -2, ValueError),
    "zero_carry_set.base": (lambda x: zero_carry_set(x, 2), "base", 1, InvalidBaseError),
    "zero_carry_set.depth": (lambda x: zero_carry_set(2, x), "depth", -1, ValueError),
    "box_count.box_size": (lambda x: box_count(zero_carry_set(2, 2), x), "box_size", 0,
                           InvalidScaleError),
    "iterate_overflow_fractal.depth": (lambda x: iterate_overflow_fractal(overflow_generator(2), x),
                                       "depth", 0, ValueError),
    "render_cellset.zoom": (lambda x: render_cellset(zero_carry_set(2, 1), x), "zoom", 0,
                            ValueError),
    "render_table.zoom": (lambda x: render_table(build_table(2, 1), x), "zoom", 0, ValueError),
    "cells_to_notes.base_pitch": (lambda x: cells_to_notes(zero_carry_set(2, 1), base_pitch=x),
                                  "base_pitch", 128, ValueError),
    "Notes.clamped_high": (lambda x: Notes([0], [1], [60], clamped_high=x), "clamped_high", -1,
                           ValueError),
}

# the refused value goes in as the one element of the array
ARRAYS = {
    "CellSet.keys": (lambda x: CellSet(2, 1, [x]), "keys", 4),
    # 2**55 is one past the largest onset or duration write_midi's 64-bit event keys hold
    "Notes.onset": (lambda x: Notes([x], [1], [60]), "onset", (-1, 2**55)),
    "Notes.duration": (lambda x: Notes([0], [x], [60]), "duration", (0, 2**55)),
    "Notes.pitch": (lambda x: Notes([0], [1], [x]), "pitch", 128),
    "RasterImage.pixels": (lambda x: RasterImage(np.array([[x]]), "gray"), "pixels", 256),
}


def _cases(table):
    for case_id, (call, name, out_of_range, *error) in table.items():
        out_of_range = out_of_range if isinstance(out_of_range, tuple) else (out_of_range,)
        for value in (2.5, "3", True, *out_of_range):
            yield pytest.param(call, name, value, *(error or [ValueError]),
                               id=f"{case_id}-{value!r}")


@pytest.mark.parametrize("call,name,value,error", _cases(SCALARS))
def test_scalar_refused_naming_the_argument(call, name, value, error):
    with pytest.raises(error) as info:
        call(value)
    assert str(info.value).startswith(f"{name} must be ")


@pytest.mark.parametrize("call,name,value,error", _cases(ARRAYS))
def test_array_value_refused_naming_the_argument(call, name, value, error):
    with pytest.raises(error) as info:
        call(value)
    assert str(info.value).startswith(f"{name} must be ")


@pytest.mark.parametrize("tempo", [2.5, 120.5, "3", 3, 7813],
                         ids=["2.5", "120.5", "'3'", "3", "7813"])
def test_tempo_refused_before_writing(tmp_path, tempo):
    path = tmp_path / "x.mid"
    with pytest.raises(ValueError) as info:
        write_midi(Notes([0], [120], [60]), tempo, path)
    assert str(info.value).startswith("tempo_bpm must be ")
    assert not path.exists()


CLI_FLAGS = [
    (["cvt", "--base", "2", "1"], "b", "-1"),
    (["cvt", "--base", "{}", "1", "1"], "--base", "1"),
    (["table", "--base", "2", "--digits", "{}"], "--digits", "0"),
    (["table", "--base", "2", "--digits", "1", "--zoom", "{}"], "--zoom", "0"),
    (["fractal", "--base", "2", "--depth", "{}"], "--depth", "-1"),
    (["fractal", "--base", "2", "--depth", "1", "--value", "{}"], "--value", "-2"),
    (["dimension", "--base", "2", "--estimate", "--depth", "{}"], "--depth", "1"),
    (["overlay", "--small", "{}", "--depth", "2"], "--small", "1"),
    (["music", "--base", "2", "--depth", "{}"], "--depth", "-1"),
    (["music", "--base", "2", "--depth", "1", "--base-pitch", "{}"], "--base-pitch", "128"),
    (["music", "--base", "2", "--depth", "1", "--tempo", "{}"], "--tempo", "3"),
]


@pytest.mark.parametrize("flags,flag,value", CLI_FLAGS,
                         ids=[f"{flags[0]} {flag}" for flags, flag, _ in CLI_FLAGS])
@pytest.mark.parametrize("which", ["non-integer", "out-of-range"])
def test_cli_flag_refused_as_usage_error(capsys, tmp_path, flags, flag, value, which):
    # every flag arrives as text, so "3" is an integer here
    refused = "2.5" if which == "non-integer" else value
    argv = [refused if arg == "{}" else arg for arg in flags]
    if "{}" not in flags:
        argv.append(refused)  # a positional operand
    midi = tmp_path / "m.mid"
    if argv[0] == "music":
        argv += ["--midi", str(midi)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: " in captured.err
    assert not midi.exists()
