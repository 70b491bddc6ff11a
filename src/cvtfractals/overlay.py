"""Generator overlays between consecutive bases and the iterated overflow fractal.

Embedding the base-k triangle generator at the top-left corner of the
base-(k+1) generator leaves the anti-diagonal x + y = k uncovered. Iterating
that overflow strip as its own substitution generator yields a fractal whose
dimension can be measured by box counting and compared against the k+1 copies
at scale 1/(k+1) it is built from.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .dimension import DimensionEstimate, estimate_dimension
from .errors import InvalidPairError
from .output import write_chunks
from .radix import _check_base
from .table import CellSet, _substitute

# the increment this construction is conventionally assigned: 3 copies at
# scale 1/2, the Sierpinski gasket value
CLAIMED_INCREMENT = math.log(3) / math.log(2)


@dataclass(frozen=True)
class OverlayReport:
    """Overflow generator of a consecutive-base overlay plus its measured dimension."""

    small_base: int
    large_base: int
    overflow_cells: CellSet
    claimed_increment: float
    measured: DimensionEstimate
    commentary: str

    def to_text(self) -> str:
        cells = ", ".join(f"({r}, {c})" for r, c in self.overflow_cells)
        copies = len(self.overflow_cells)
        grid = self.overflow_cells.extent
        lines = [
            f"overlay: base-{self.small_base} generator over base-{self.large_base} generator",
            f"overflow cells ({copies}): {cells}",
            f"claimed dimension increment: {self.claimed_increment:.6f}"
            " (3 copies at scale 1/2, the Sierpinski gasket value)",
            f"measured box-count dimension: {self.measured.slope:.6f}"
            f" (fit quality {self.measured.fit_quality:.6f})",
            f"substitution law: log({copies})/log({grid})"
            f" = {math.log(copies) / math.log(grid):.6f}",
            self.commentary,
        ]
        return "\n".join(lines)


def overflow_generator(small_base: int, large_base: int) -> CellSet:
    """Cells of the base-(k+1) generator not covered by the corner-embedded base-k one.

    Only consecutive bases are supported; the difference is the anti-diagonal
    x + y = small_base, which has small_base + 1 cells.
    """
    small_base = _check_base(small_base)
    large_base = operator.index(large_base)
    if large_base != small_base + 1:
        raise InvalidPairError(f"bases must be consecutive, got {small_base} and {large_base}")
    return CellSet(large_base, 1, [(x, small_base - x) for x in range(large_base)])


def iterate_overflow_fractal(gen: CellSet, depth: int) -> CellSet:
    """Substitute the generator into every retained cell, depth levels deep.

    Depth 1 reproduces the generator; depth d yields len(gen)**d cells on a
    grid of extent gen.extent**d.
    """
    depth = operator.index(depth)
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if not len(gen):
        raise ValueError("generator must be nonempty")
    # one read-only view of the generator per level, however deep
    levels = np.broadcast_to(gen.to_array(), (depth, len(gen), 2))
    return _substitute(levels, gen.extent)


def analyze_overlay(small_base: int, depth: int) -> OverlayReport:
    """Build the overflow generator, iterate it, and measure its dimension.

    The report always carries both the measured box-count slope and the
    claimed constant increment; neither value is substituted for the other.
    """
    gen = overflow_generator(small_base, small_base + 1)
    iterated = iterate_overflow_fractal(gen, depth)
    measured = estimate_dimension(iterated)
    copies = len(gen)
    commentary = (
        f"note: the claimed increment assumes 3 copies at scale 1/2; on its own "
        f"{gen.extent}-wide grid this generator substitutes {copies} copies at "
        f"scale 1/{gen.extent}, which measures {measured.slope:.6f}."
    )
    return OverlayReport(
        small_base=small_base,
        large_base=small_base + 1,
        overflow_cells=gen,
        claimed_increment=CLAIMED_INCREMENT,
        measured=measured,
        commentary=commentary,
    )


def write_overlay_report(report: OverlayReport, path) -> None:
    """Write the human-readable report text."""
    write_chunks(path, [(report.to_text() + "\n").encode("ascii")])


def write_overlay_scales_csv(report: OverlayReport, path) -> None:
    """CSV of the measured (scale, count) pairs."""
    lines = ["scale,count"]
    lines += [f"{s},{c}" for s, c in zip(report.measured.scales, report.measured.counts)]
    write_chunks(path, [("\n".join(lines) + "\n").encode("ascii")])
