"""Shared exception types; the CLI maps these onto exit codes."""


class EmbedlocError(Exception):
    """Base class for all package errors."""


class ConfigError(EmbedlocError):
    """Invalid configuration or parameters (CLI exit code 2)."""


class DataError(EmbedlocError):
    """Bad or missing input data (CLI exit code 3)."""


class NumericalError(EmbedlocError):
    """Numerical failure such as divergence (CLI exit code 4)."""
