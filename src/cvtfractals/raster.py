"""Bit-exact portable bitmap/graymap rendering of tables and cell patterns."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError, _check_int, _int_array
from .output import ascii_rows, write_chunks
from .table import CellSet, CvTable, _Fresh

MAX_SIDE = 1 << 14

BILEVEL = "bilevel"
GRAY = "gray"


@dataclass(frozen=True, eq=False)
class RasterImage:
    """Row-major integer pixel grid; bilevel pixels are 0/1, gray pixels 0..255.

    `pixels` is a read-only copy of the array or rows of integers given, so no
    later write through the caller's array or its base can change the image.
    """

    pixels: np.ndarray
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in (BILEVEL, GRAY):
            raise ValueError(f"unknown mode {self.mode!r}")
        pixels = self.pixels.array if isinstance(self.pixels, _Fresh) else np.array(self.pixels)
        _int_array("pixels", pixels, 2, 0, 1 if self.mode == BILEVEL else 255)
        pixels.setflags(write=False)
        object.__setattr__(self, "pixels", pixels)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def _check_zoom(extent: int, zoom: int) -> int:
    zoom = _check_int("zoom", zoom, 1)
    if extent * zoom > MAX_SIDE:
        raise SizeLimitError(f"image side {extent * zoom} exceeds limit {MAX_SIDE}")
    return zoom


def _zoomed(pixels: np.ndarray, zoom: int) -> np.ndarray:
    if zoom == 1:
        return pixels
    return pixels.repeat(zoom, axis=0).repeat(zoom, axis=1)


def render_cellset(cells: CellSet, zoom: int = 1) -> RasterImage:
    """Bilevel image of a pattern: one zoom x zoom block of 1s per cell."""
    zoom = _check_zoom(cells.extent, zoom)
    pixels = np.zeros((cells.extent, cells.extent), dtype=np.uint8)
    pixels.reshape(-1)[cells.keys] = 1  # a key is the cell's row-major pixel index
    return RasterImage(_Fresh(_zoomed(pixels, zoom)), BILEVEL)


def render_table(table: CvTable, zoom: int = 1) -> RasterImage:
    """Gray image of a table, intensities normalized to the maximum carry value.

    Intensity is 255 * value / max, rounded half up in exact integer arithmetic.
    """
    zoom = _check_zoom(table.extent, zoom)
    max_value = table.max_value  # in [2, 2 * extent]
    # floor(255 * v / max + 1/2) == (510 * v + max) // (2 * max), looked up for each value
    gray = ((510 * np.arange(max_value + 1) + max_value) // (2 * max_value)).astype(np.uint8)
    return RasterImage(_Fresh(_zoomed(gray[table.values], zoom)), GRAY)


def write_pnm(image: RasterImage, path) -> None:
    """Write ASCII PBM (P1) for bilevel images, ASCII PGM (P2) for gray.

    Layout: magic line, "width height" line (plus "255" maxval for PGM), then
    one line per pixel row with single-space separators and no comments. The
    byte stream is fully determined by the image.
    """
    if image.mode == BILEVEL:
        top, header = 1, f"P1\n{image.width} {image.height}\n"
    else:
        top, header = 255, f"P2\n{image.width} {image.height}\n255\n"
    body = ascii_rows(image.height, image.width, top, lambda rows: image.pixels[rows], " ")
    write_chunks(path, itertools.chain([header.encode("ascii")], body))
