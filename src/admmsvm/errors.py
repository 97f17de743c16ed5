"""Exception hierarchy shared by all admmsvm modules.

The command line exits 3 on a ``DataError``, 2 on a ``ConfigError``, and 1
on an error under neither base.
"""


class AdmmSvmError(Exception):
    """Base class for all errors raised by this package."""


class DataError(AdmmSvmError):
    """A data or model file holds rows, labels or fields that cannot be used."""


class ConfigError(AdmmSvmError):
    """A setting, or a combination of settings, that the solvers cannot run."""


class NonFiniteError(AdmmSvmError):
    """NaN or Inf encountered in an input or in solver iterates."""


class NoConvergenceError(AdmmSvmError):
    """An iterative routine failed to reach its tolerance."""


class RankDeficientError(ConfigError):
    """The ADMM system matrix is numerically singular."""


class DimensionMismatchError(DataError):
    """Operands have incompatible shapes."""


class IndexOutOfRangeError(AdmmSvmError):
    """A subset index falls outside the valid range."""


class DuplicateIndexError(AdmmSvmError):
    """A subset contains repeated indices."""


class InvalidCountError(ConfigError):
    """A requested count violates its bounds (e.g. c > n or c = 0)."""


class SingleClassError(DataError):
    """Training data contains only one label value."""


class MalformedModelFileError(DataError):
    """A model file is truncated, has a bad magic header, or bad shapes."""


class ParseError(DataError):
    """A data file could not be parsed; carries line/column context."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + loc)
        self.line = line
        self.column = column


class NotBinaryError(DataError):
    """A dataset has more than two distinct label values."""


class MissingValueError(ParseError):
    """A dataset row has an empty or absent feature value."""


class NonAscendingIndexError(DataError):
    """Sparse-text feature indices are not strictly ascending."""


class InsufficientClassSamplesError(DataError):
    """A split cannot keep at least one sample of each class per side."""
