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
    """A query stream hit a domain error.  ``records`` is the log of the
    answers before the rejected query, whose position is ``len(records)``;
    the :class:`DomainError` that rejected it is ``__cause__``."""

    def __init__(self, message, records):
        super().__init__(message)
        self.records = records
