"""Generator overlays between consecutive bases and the iterated overflow fractal.

Embedding the base-k triangle generator at the top-left corner of the
base-(k+1) generator leaves the anti-diagonal x + y = k uncovered. Iterating
that overflow strip as its own substitution generator yields a fractal whose
dimension can be measured by box counting and compared against the k+1 copies
at scale 1/(k+1) it is built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dimension import DimensionEstimate, estimate_dimension
from .errors import _check_base, _check_int
from .output import write_chunks
from .table import MAX_SPARSE_EXTENT, CellSet, _check_extent, _substitute

# the increment this construction is conventionally assigned: 3 copies at
# scale 1/2, the Sierpinski gasket value
CLAIMED_INCREMENT = math.log(3) / math.log(2)


@dataclass(frozen=True)
class OverlayReport:
    """Overflow generator of a consecutive-base overlay plus its measured dimension.

    The base-k overlay's generator lies on a (k+1)-wide grid; the text puts
    the measured slope next to CLAIMED_INCREMENT, neither substituted for the
    other.
    """

    overflow_cells: CellSet
    measured: DimensionEstimate

    def to_text(self) -> str:
        copies = len(self.overflow_cells)
        grid = self.overflow_cells.extent
        cells = ", ".join("(%d, %d)" % divmod(k, grid) for k in self.overflow_cells.keys.tolist())
        slope = self.measured.slope
        lines = [
            f"overlay: base-{grid - 1} generator over base-{grid} generator",
            f"overflow cells ({copies}): {cells}",
            f"claimed dimension increment: {CLAIMED_INCREMENT:.6f}"
            " (3 copies at scale 1/2, the Sierpinski gasket value)",
            f"measured box-count dimension: {slope:.6f}"
            f" (fit quality {self.measured.fit_quality:.6f})",
            f"substitution law: log({copies})/log({grid})"
            f" = {math.log(copies) / math.log(grid):.6f}",
            f"note: the claimed increment assumes 3 copies at scale 1/2; on its own "
            f"{grid}-wide grid this generator substitutes {copies} copies at "
            f"scale 1/{grid}, which measures {slope:.6f}.",
        ]
        return "\n".join(lines)


def overflow_generator(small_base: int) -> CellSet:
    """Cells of the base-(k+1) generator not covered by the corner-embedded base-k one.

    k is small_base; the difference is the anti-diagonal x + y = k, which has
    k + 1 cells. A grid wider than MAX_SPARSE_EXTENT is refused before any is built.
    """
    small_base = _check_base(small_base)
    _check_extent(small_base + 1, 1, MAX_SPARSE_EXTENT, "pattern")
    # cell (x, k - x) on the (k + 1)-wide grid has key x * (k + 1) + k - x
    return CellSet(small_base + 1, 1, np.arange(small_base + 1) * small_base + small_base)


def iterate_overflow_fractal(gen: CellSet, depth: int) -> CellSet:
    """Substitute the generator into every retained cell, depth levels deep.

    Depth 1 reproduces the generator; depth d yields len(gen)**d cells on a
    grid of extent gen.extent**d.
    """
    depth = _check_int("depth", depth, 1)
    if not len(gen):
        raise ValueError("generator must be nonempty")
    if gen.extent < 2:
        raise ValueError(f"generator grid {gen.base}**{gen.depth} is 1 cell wide, needs >= 2")
    # one read-only view of the generator's keys per level, however deep
    return _substitute(np.broadcast_to(gen.keys, (depth, len(gen))), gen.extent)


def analyze_overlay(small_base: int, depth: int) -> OverlayReport:
    """Build the overflow generator, iterate it, and measure its dimension."""
    gen = overflow_generator(small_base)
    return OverlayReport(gen, estimate_dimension(iterate_overflow_fractal(gen, depth)))


def write_overlay_report(report: OverlayReport, path) -> None:
    """Write the human-readable report text."""
    write_chunks(path, [(report.to_text() + "\n").encode("ascii")])


def write_overlay_scales_csv(report: OverlayReport, path) -> None:
    """CSV of the measured (scale, count) pairs."""
    lines = ["scale,count"]
    lines += [f"{s},{c}" for s, c in zip(report.measured.scales, report.measured.counts)]
    write_chunks(path, [("\n".join(lines) + "\n").encode("ascii")])
