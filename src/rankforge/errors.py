"""Exception types shared across the package."""


class RankforgeError(Exception):
    """Base class for all package errors."""


class ConfigError(RankforgeError):
    """Invalid or inconsistent configuration."""


class DataError(RankforgeError):
    """Input data violates a documented contract."""


class SchemaMismatchError(DataError):
    """Feature vectors or models with different schema ids were mixed."""


class ParseError(DataError):
    """Malformed game record text; ``offset`` is a character index into it."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (character offset {offset})"
        super().__init__(message)
        self.offset = offset


class RankRangeError(DataError):
    """Rank label or rating outside the supported range."""


class BackendError(RankforgeError):
    """An evaluator backend failed to answer a request."""

    def __init__(self, message: str, request_id: int | None = None):
        if request_id is not None:
            message = f"{message} (request id {request_id})"
        super().__init__(message)
        self.request_id = request_id


class BackendTimeoutError(BackendError):
    """An evaluator backend did not answer within the deadline."""
