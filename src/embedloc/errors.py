"""Shared exception types, which the CLI maps onto exit codes, and the
two helpers through which every config states its bounds."""

import sys


class EmbedlocError(Exception):
    """Base class for all package errors."""


class ConfigError(EmbedlocError):
    """Invalid configuration or parameters (CLI exit code 2)."""


class DataError(EmbedlocError):
    """Bad or missing input data (CLI exit code 3)."""


class NumericalError(EmbedlocError):
    """Numerical failure such as divergence (CLI exit code 4)."""


def require_sizes(config, *names):
    """Raise ConfigError unless each of the fields `names` of `config` is
    at least 1 and at most sys.maxsize, the largest dimension numpy
    accepts."""
    for name in names:
        value = getattr(config, name)
        if not 1 <= value <= sys.maxsize:
            raise ConfigError("%s must be at least 1 and at most %d, got %r"
                              % (name, sys.maxsize, value))


def require_positive(config, *names):
    """Raise ConfigError unless each of the fields `names` of `config` is
    above 0 and within the float range (so not NaN)."""
    for name in names:
        value = getattr(config, name)
        if not 0 < value <= sys.float_info.max:
            raise ConfigError("%s must be positive and at most %g, got %r"
                              % (name, sys.float_info.max, value))
