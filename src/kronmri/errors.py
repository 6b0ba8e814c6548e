"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes, so new error sites should pick
the closest existing class instead of raising bare ValueError.
"""


class KronMriError(Exception):
    """Base class for all package errors."""


class ShapeError(KronMriError):
    """An array argument has the wrong shape, rank, dtype, or divisibility."""


class ConfigError(KronMriError):
    """A configuration value is out of range or inconsistent."""


class NumericError(KronMriError):
    """A computation produced NaN/Inf or failed a numerical verification."""


class TapeError(KronMriError):
    """Autodiff tape misuse: a loss not recorded on a tape, nested tapes,
    a second backward, recording onto a consumed tape, or an op that reads
    a result recorded on another tape."""
