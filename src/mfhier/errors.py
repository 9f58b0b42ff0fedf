"""Shared exception types."""


class HierarchyError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HierarchyError, ValueError):
    """A requested parameter lies outside the admissible domain."""


class ConfigurationError(HierarchyError, ValueError):
    """A hierarchy, model or run configuration is invalid."""


class NotReadyError(HierarchyError, RuntimeError):
    """A surrogate was asked to produce output before it has enough data."""


class StreamAborted(HierarchyError):
    """A query stream hit a domain error; carries the partial log."""

    def __init__(self, message, records, query_id, cause):
        super().__init__(message)
        self.records = records
        self.query_id = query_id
        self.cause = cause
