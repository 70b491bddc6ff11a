"""Bit-exact portable bitmap/graymap rendering of tables and cell patterns."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError, _check_int, _int_array
from .output import ascii_rows, write_chunks
from .table import CellSet, CvTable

MAX_SIDE = 1 << 14

BILEVEL = "bilevel"
GRAY = "gray"


@dataclass(frozen=True, eq=False)
class RasterImage:
    """Row-major integer pixel grid; bilevel pixels are 0/1, gray pixels 0..255."""

    pixels: np.ndarray
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in (BILEVEL, GRAY):
            raise ValueError(f"unknown mode {self.mode!r}")
        _int_array("pixels", self.pixels, 2, 0, 1 if self.mode == BILEVEL else 255)
        self.pixels.setflags(write=False)

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
    return RasterImage(_zoomed(pixels, zoom), BILEVEL)


def render_table(table: CvTable, zoom: int = 1) -> RasterImage:
    """Gray image of a table, intensities normalized to the maximum carry value.

    Intensity is 255 * value / max, rounded half up in exact integer arithmetic.
    """
    zoom = _check_zoom(table.extent, zoom)
    max_value = int(table.values.max())  # n + n**2 + ... + n**k >= 2
    # floor(255 * v / max + 1/2) == (510 * v + max) // (2 * max), in one int64 array
    gray = table.values * 510
    gray += max_value
    gray //= 2 * max_value
    return RasterImage(_zoomed(gray.astype(np.uint8), zoom), GRAY)


def _pnm_chunks(image: RasterImage):
    if image.mode == BILEVEL:
        yield f"P1\n{image.width} {image.height}\n".encode("ascii")
    else:
        yield f"P2\n{image.width} {image.height}\n255\n".encode("ascii")
    yield from ascii_rows(image.pixels, " ")


def write_pnm(image: RasterImage, path) -> None:
    """Write ASCII PBM (P1) for bilevel images, ASCII PGM (P2) for gray.

    Layout: magic line, "width height" line (plus "255" maxval for PGM), then
    one line per pixel row with single-space separators and no comments. The
    byte stream is fully determined by the image.
    """
    write_chunks(path, _pnm_chunks(image))
