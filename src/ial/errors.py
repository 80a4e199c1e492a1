"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1, any other IalError
(DataError and its subclasses) -> 2.  Exit code 3, a failed gradient check,
is returned by ``ial gradcheck`` itself and has no exception.
"""


class IalError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(IalError):
    """Invalid or contradictory configuration."""


class ConfigConflictError(ConfigError):
    """Mutually incompatible configuration choices (e.g. image features with the FC model)."""


class DataError(IalError):
    """Problem with input data, file contents, or call contracts."""


class MissingFileError(DataError):
    pass


class MalformedManifestError(DataError):
    """A manifest that is not valid JSON or lacks a required field."""


class MalformedRowError(DataError):
    """A data row that cannot be parsed; ``line_no`` is 1-based over data rows."""

    def __init__(self, line_no: int, message: str = ""):
        self.line_no = line_no
        detail = f"data row {line_no}"
        super().__init__(f"{detail}: {message}" if message else detail)


class NonMonotoneTimestampsError(DataError):
    pass


class TimestampRateError(DataError):
    """Timestamps whose spacing contradicts the stream's sample rate."""


class UnknownLabelError(DataError):
    pass


class InvertedIntervalError(DataError):
    pass


class OverlappingEventsError(DataError):
    pass


class InfeasiblePackingError(DataError):
    pass


class NonFiniteInputError(DataError):
    pass


class LengthNotDivisibleError(DataError):
    pass


class OutOfRangeError(DataError):
    pass


class StreamTooShortError(DataError):
    pass


class ShapeMismatchError(DataError):
    pass


class InputTooSmallError(DataError):
    pass


class BatchTooSmallError(DataError):
    pass


class InvalidRateError(DataError):
    pass


class EmptyDatasetError(DataError):
    pass


class LabelOutOfRangeError(DataError):
    pass


class ModelFeatureMismatchError(DataError):
    pass


class UnsortedInputError(DataError):
    pass


class MissingCheckpointError(DataError):
    pass


class CheckpointMismatchError(DataError):
    pass
