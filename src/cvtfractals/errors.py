"""Exception types shared across the toolkit, and the checks of integer inputs."""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class CvtError(Exception):
    """Base class for all toolkit errors."""


class InvalidBaseError(CvtError, ValueError):
    """Number base is not an integer >= 2."""


class SizeLimitError(CvtError, ValueError):
    """Requested grid, pattern, or image exceeds the configured size cap."""


class InvalidScaleError(CvtError, ValueError):
    """Box size does not evenly divide the grid extent."""


class InsufficientScalesError(CvtError, ValueError):
    """Fewer than two usable scales: no log-log slope can be fitted."""


class DimensionRangeError(CvtError, ValueError):
    """Target dimension lies outside the reachable interval."""


class EmptyInputError(CvtError, ValueError):
    """Operation requires a nonempty input."""


class InsufficientDataError(CvtError, ValueError):
    """Series is too short for spectral estimation."""


class DegenerateSeriesError(CvtError, ValueError):
    """Series carries no usable spectral information."""


def _check_int(name: str, value, lo: int, hi: int | None = None, error=ValueError) -> int:
    """value as an int, refused with `error` naming `name` unless it is an integer in [lo, hi]."""
    try:
        # a bool is refused, as numpy's bools are: True is not the integer 1
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or number < lo or hi is not None and number > hi:
        bound = f"an integer >= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise error(f"{name} must be {bound}, got {value if number is None else number!r}")
    return number


def _check_base(base) -> int:
    """base as an int, refused with InvalidBaseError unless it is an integer >= 2."""
    return _check_int("base", base, 2, error=InvalidBaseError)


def _int_array(name: str, values, ndim: int, lo: int, hi: int) -> np.ndarray:
    """values as an ndim-D array, refused with ValueError naming `name` unless
    every value is an integer in [lo, hi].

    An empty array passes with any dtype, since numpy reads [] as float64.
    """
    import numpy as np  # here alone, so radix and the integer checks load without numpy

    values = np.asarray(values)
    if values.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {values.shape}")
    if values.size and not np.issubdtype(values.dtype, np.integer):
        # bool is not an integer dtype, and Python ints past 64 bits arrive as objects
        raise ValueError(f"{name} must be integers, got dtype {values.dtype}")
    if values.size:
        # as Python ints, so a uint64 is compared with the bounds exactly
        low, high = int(values.min()), int(values.max())
        if low < lo or high > hi:
            raise ValueError(f"{name} must be in [{lo}, {hi}], got {low if low < lo else high}")
    return values
