"""Similarity dimension in closed form plus an independent box-count estimator.

The base-n zero-carry fractal consists of n(n+1)/2 self-similar copies at
scale 1/n, so its similarity dimension is

    log(n(n+1)/2) / log(n)

which grows strictly with n and approaches the plane dimension 2 from below.
Box counting over power-of-base scales provides an empirical check that does
not rely on the closed form.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionRangeError,
    EmptyInputError,
    InsufficientScalesError,
    InvalidScaleError,
)
from .output import write_chunks
from .radix import _check_base
from .table import CellSet, _sort_unique

SEARCH_CAP = 10**6


@dataclass(frozen=True)
class DimensionEstimate:
    """Box counts per scale and the fitted log-log slope."""

    scales: tuple[int, ...]
    counts: tuple[int, ...]
    slope: float
    fit_quality: float

    def __post_init__(self) -> None:
        scales = self.scales
        if len(scales) < 2:
            raise InsufficientScalesError(f"need at least 2 scales, have {len(scales)}")
        if len(self.counts) != len(scales):
            raise ValueError(f"{len(scales)} scales but {len(self.counts)} counts")
        ratio = scales[1] // scales[0] if scales[0] >= 1 else 0
        if ratio < 2 or any(b != a * ratio for a, b in zip(scales, scales[1:])):
            raise ValueError(f"scales {scales} are not a geometric series of integer ratio >= 2")


def similarity_dimension(base: int) -> float:
    """Closed-form dimension log(n(n+1)/2) / log(n) of the base-n fractal."""
    base = _check_base(base)
    return math.log(base * (base + 1) // 2) / math.log(base)


def dimension_gap(base: int) -> float:
    """Distance 2 - similarity_dimension(base), as log(2n/(n+1)) / log(n).

    The rearranged form stays accurate when the gap is small at large bases.
    """
    base = _check_base(base)
    return math.log(2 * base / (base + 1)) / math.log(base)


def base_for_target_dimension(target: float) -> tuple[int, float]:
    """Base whose dimension is nearest the target, ties broken toward smaller.

    The dimension is strictly increasing in the base, so a binary search over
    [2, SEARCH_CAP] suffices. Targets above the cap's dimension return the cap
    itself as a best effort.
    """
    target = float(target)
    lower = similarity_dimension(2)
    if not lower <= target < 2.0:
        raise DimensionRangeError(f"target must lie in [{lower:.6f}, 2), got {target}")
    if similarity_dimension(SEARCH_CAP) < target:
        return SEARCH_CAP, similarity_dimension(SEARCH_CAP)
    lo, hi = 2, SEARCH_CAP
    while lo < hi:
        mid = (lo + hi) // 2
        if similarity_dimension(mid) >= target:
            hi = mid
        else:
            lo = mid + 1
    candidates = [lo] if lo == 2 else [lo - 1, lo]
    best = min(candidates, key=lambda n: (abs(similarity_dimension(n) - target), n))
    return best, similarity_dimension(best)


def box_count(cells: CellSet, box_size: int) -> int:
    """Number of aligned box_size x box_size boxes containing at least one cell."""
    box_size = operator.index(box_size)
    extent = cells.extent
    if box_size < 1 or extent % box_size != 0:
        raise InvalidScaleError(f"box size {box_size} does not divide extent {extent}")
    # box key (row // box_size) * boxes_across + col // box_size, built in place
    rows, cols = np.divmod(cells.keys, extent)
    rows //= box_size
    cols //= box_size
    rows *= extent // box_size
    rows += cols
    del cols
    return int(_sort_unique(rows).size)


def estimate_dimension(cells: CellSet) -> DimensionEstimate:
    """Box-count dimension over the scales base**0 .. base**(depth-1).

    Fits log(count) against log(extent / box_size) by ordinary least squares;
    the slope is the estimate and fit_quality is the coefficient of
    determination. Sets whose counts do not vary across scales carry no
    scaling information and are rejected.
    """
    if not len(cells):
        raise EmptyInputError("cannot estimate the dimension of an empty cell set")
    scales = tuple(cells.base**j for j in range(cells.depth))
    if len(scales) < 2:
        raise InsufficientScalesError(f"need at least 2 scales, have {len(scales)}")
    counts = tuple(box_count(cells, s) for s in scales)
    # tested on the integers: rounding in the mean can leave a constant log series a
    # tiny nonzero variance
    if len(set(counts)) == 1:
        raise InsufficientScalesError("box counts are constant across scales")
    x = np.log(cells.extent / np.asarray(scales, dtype=float))
    y = np.log(np.asarray(counts, dtype=float))
    return DimensionEstimate(scales, counts, *_ols_fit(x, y))


def _ols_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of y on x and its R^2; callers refuse a constant y first."""
    x_mean, y_mean = x.mean(), y.mean()
    slope = float(((x - x_mean) * (y - y_mean)).sum() / ((x - x_mean) ** 2).sum())
    ss_tot = float(((y - y_mean) ** 2).sum())
    residual = y - (y_mean + slope * (x - x_mean))
    return slope, 1.0 - float((residual**2).sum()) / ss_tot


def write_dimension_csv(estimate: DimensionEstimate, path) -> None:
    """CSV of scale, count, log-scale, log-count rows plus slope/fit footers.

    The log_scale column holds the fit's abscissa log(extent / scale), where
    the extent base**depth is the largest scale base**(depth-1) times the base.
    """
    extent = estimate.scales[-1] * (estimate.scales[1] // estimate.scales[0])
    lines = ["scale,count,log_scale,log_count"]
    for scale, count in zip(estimate.scales, estimate.counts):
        lines.append(f"{scale},{count},{math.log(extent / scale):.6f},{math.log(count):.6f}")
    lines.append(f"slope,{estimate.slope:.6f}")
    lines.append(f"fit_quality,{estimate.fit_quality:.6f}")
    write_chunks(path, [("\n".join(lines) + "\n").encode("ascii")])
