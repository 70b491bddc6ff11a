"""Carry-value fractals: radix-generic carry patterns, their dimensions,
raster images, and melodic renderings.

Each public name is imported from its module on first use, so the integer
arithmetic of `radix` and the checks of `errors` load without numpy.
"""

import importlib

__version__ = "0.1.0"

# each public name once, under the module that defines it; output exports none
_EXPORTS = {
    "dimension": ["SEARCH_CAP", "DimensionEstimate", "base_for_target_dimension", "box_count",
                  "dimension_gap", "estimate_dimension", "similarity_dimension",
                  "write_dimension_csv"],
    "errors": ["CvtError", "DegenerateSeriesError", "DimensionRangeError", "EmptyInputError",
               "InsufficientDataError", "InsufficientScalesError", "InvalidBaseError",
               "InvalidScaleError", "SizeLimitError"],
    "melody": ["SCALES", "Notes", "SpectralReport", "cells_to_notes", "pitch_series",
               "read_series_csv", "spectral_exponent", "write_midi", "write_notes_csv"],
    "output": [],
    "overlay": ["CLAIMED_INCREMENT", "OverlayReport", "analyze_overlay",
                "iterate_overflow_fractal", "overflow_generator", "write_overlay_report",
                "write_overlay_scales_csv"],
    "radix": ["cvt", "sum_without_carry"],
    "raster": ["BILEVEL", "GRAY", "RasterImage", "render_cellset", "render_table", "write_pnm"],
    "table": ["MAX_SPARSE_EXTENT", "MAX_TABLE_EXTENT", "CellSet", "CvTable", "build_table",
              "carry_value_set", "value_cells", "write_cells_csv", "write_table_csv",
              "zero_carry_set"],
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # nothing is cached here: the module's attribute is the one object, which a
    # caller that rebinds it (a tracer, a test's monkeypatch) rebinds for every reader
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
