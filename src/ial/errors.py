"""Exception types shared across the package: one per exit code.

The CLI maps these onto exit codes: ConfigError -> 1, DataError (and any
other IalError) -> 2.  The message says which check failed; no caller tells
two data problems apart by type.  Exit code 3, a failed gradient check, is
returned by ``ial gradcheck`` itself and has no exception.
"""


class IalError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(IalError):
    """Invalid or contradictory configuration."""


class DataError(IalError):
    """Problem with input data, file contents, or call contracts."""


class MalformedRowError(DataError):
    """A data row that cannot be parsed; ``line_no`` is 1-based over data rows."""

    def __init__(self, line_no: int, message: str = ""):
        self.line_no = line_no
        detail = f"data row {line_no}"
        super().__init__(f"{detail}: {message}" if message else detail)
