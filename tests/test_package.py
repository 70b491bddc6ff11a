"""The package namespace: one export table, each name imported from its module on use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cvtfractals

# the public names, as the package exported them when each was imported eagerly
NAMES = [
    "BILEVEL", "CLAIMED_INCREMENT", "CellSet", "CvTable", "CvtError", "DegenerateSeriesError",
    "DimensionEstimate", "DimensionRangeError", "EmptyInputError", "GRAY",
    "InsufficientDataError", "InsufficientScalesError", "InvalidBaseError", "InvalidScaleError",
    "MAX_SPARSE_EXTENT", "MAX_TABLE_EXTENT", "Notes", "OverlayReport", "RasterImage", "SCALES",
    "SEARCH_CAP", "SizeLimitError", "SpectralReport", "analyze_overlay",
    "base_for_target_dimension", "box_count", "build_table", "carry_value_set", "cells_to_notes",
    "cvt", "dimension_gap", "estimate_dimension", "iterate_overflow_fractal",
    "overflow_generator", "pitch_series", "read_series_csv", "render_cellset", "render_table",
    "similarity_dimension", "spectral_exponent", "sum_without_carry", "value_cells",
    "write_cells_csv", "write_dimension_csv", "write_midi", "write_notes_csv",
    "write_overlay_report", "write_overlay_scales_csv", "write_pnm", "write_table_csv",
    "zero_carry_set",
]


def test_all_lists_the_public_names():
    assert cvtfractals.__all__ == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_each_name_is_its_modules_object(name):
    value = getattr(cvtfractals, name)
    module = importlib.import_module(f"cvtfractals.{cvtfractals._MODULE_OF[name]}")
    assert value is getattr(module, name)
    # a function or class is exported from the module that defines it
    assert getattr(value, "__module__", module.__name__) == module.__name__
    assert name in dir(cvtfractals)


def test_names_are_read_from_their_module_on_every_use(monkeypatch):
    for name in NAMES:
        getattr(cvtfractals, name)
    assert not set(NAMES) & set(vars(cvtfractals))
    # so a name rebound in its module is rebound for the package's readers too
    monkeypatch.setattr(cvtfractals.radix, "cvt", len)
    assert cvtfractals.cvt is len


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'cvtfractals' has no attribute 'cvt2'"):
        cvtfractals.cvt2  # noqa: B018


def test_star_import_binds_every_name():
    namespace = {}
    exec("from cvtfractals import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES


def _imported_after(code):
    """The package modules and whether numpy is loaded, after running code in a fresh
    interpreter on this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    report = ("import sys; print(sorted(m for m in sys.modules"
              " if m.startswith('cvtfractals') or m == 'numpy'))")
    result = subprocess.run([sys.executable, "-c", f"{code}; {report}"],
                            capture_output=True, text=True, env=env, timeout=120, check=True)
    return eval(result.stdout)


@pytest.mark.parametrize("code,modules", [
    ("import cvtfractals", ["cvtfractals"]),
    ("import cvtfractals; assert cvtfractals.cvt(13, 14, 2) == 24"
     "; assert cvtfractals.sum_without_carry(13, 14, 2) == 3",
     ["cvtfractals", "cvtfractals.errors", "cvtfractals.radix"]),
    ("import cvtfractals; cvtfractals.InvalidBaseError",
     ["cvtfractals", "cvtfractals.errors"]),
], ids=["bare", "cvt", "errors"])
def test_integer_arithmetic_loads_no_numpy(code, modules):
    assert _imported_after(code) == modules


@pytest.mark.parametrize("module", ["table", "output", "raster"])
def test_a_submodule_resolves_after_a_bare_import(module):
    loaded = _imported_after(f"import cvtfractals; cvtfractals.{module}.__name__")
    assert f"cvtfractals.{module}" in loaded and "numpy" in loaded
