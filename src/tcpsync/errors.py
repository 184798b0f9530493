"""Exception types shared across the package."""


class TcpSyncError(Exception):
    """Base class for package errors."""


class ConfigError(TcpSyncError):
    """Invalid or inconsistent configuration input."""


class NoRootError(TcpSyncError):
    """A bracketed root search found no sign change.

    Carries the searched bracket so callers can report it.
    """

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class UnsupportedConfigError(TcpSyncError):
    """Operation called outside the configuration it is derived for."""


class SimulationError(TcpSyncError):
    """A simulation had to abort (e.g. state left its physical domain)."""
