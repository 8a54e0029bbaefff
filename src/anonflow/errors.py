"""Exception taxonomy shared across the package.

CLI exit codes: ConfigError -> 2, DivergenceError -> 3, DataError -> 4.
"""


class InputError(ValueError):
    """A caller passed an input that violates an operation's preconditions."""


class ConfigError(ValueError):
    """A configuration document or parameter set is invalid."""


class DataError(ValueError):
    """A dataset or artifact on disk is missing or malformed."""


class DivergenceError(RuntimeError):
    """A numerical computation produced non-finite values.

    ``step`` records the integration / training step at which the
    divergence was detected; ``row``, for an integration, the first batch
    row that went non-finite at that step.
    """

    def __init__(self, message: str, step: int | None,
                 row: int | None = None):
        super().__init__(message)
        self.step = step
        self.row = row


class StateError(RuntimeError):
    """An operation was called in the wrong order (e.g. backward before forward)."""


class UnmatchedEntityError(InputError):
    """No replacement of the required entity type exists in the pool.

    Carries the offending span so callers can report and skip it.
    """

    def __init__(self, message: str, span=None):
        super().__init__(message)
        self.span = span
