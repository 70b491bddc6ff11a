"""Exception types shared across the toolkit."""


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
