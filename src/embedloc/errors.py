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


# The largest config size. The largest array sizes make is NT-Xent's
# (2 * batch_pairs)**2 float64 similarities, 2**61 bytes at the cap; any
# other multiplies at most two sizes, one perhaps doubled (2**60 bytes),
# or one by a width below 2**15 (2 * num_bands + 24; 271 probe classes).
# All stay below sys.maxsize bytes, so numpy reports a request it cannot
# meet as MemoryError (exit 3), not a ValueError traceback.
MAX_SIZE = 2 ** 28


def require_sizes(config, *names, minimum=1, maximum=MAX_SIZE):
    """Raise ConfigError unless each of the fields `names` of `config` is
    at least `minimum` and at most `maximum` (never above MAX_SIZE)."""
    for name in names:
        value = getattr(config, name)
        if not minimum <= value <= maximum:
            raise ConfigError("%s must be at least %d and at most %d, got %r"
                              % (name, minimum, maximum, value))


def require_positive(config, *names):
    """Raise ConfigError unless each of the fields `names` of `config` is
    above 0 and within the float range (so not NaN)."""
    for name in names:
        value = getattr(config, name)
        if not 0 < value <= sys.float_info.max:
            raise ConfigError("%s must be positive and at most %g, got %r"
                              % (name, sys.float_info.max, value))
