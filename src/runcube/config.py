"""Size caps and their environment overrides.

Explicit keyword arguments win over environment variables, which win over
the built-in defaults.  The environment variables are

    RUNCUBE_VERTEX_CAP   largest vertex count for explicit graph objects
    RUNCUBE_STREAM_CAP   largest vertex count for streaming censuses

and each must hold a nonnegative integer; any other value raises
ConfigError, which the command line reports as a usage error.
"""

import os

from .errors import ConfigError

DEFAULT_VERTEX_CAP = 2_000_000
DEFAULT_STREAM_CAP = 50_000_000


def _resolve(override, name, default):
    """The override if given, else the environment variable, else the default."""
    if override is not None:
        return int(override)
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError("%s must be an integer, got %r" % (name, raw)) from None
    if value < 0:
        raise ConfigError("%s must be nonnegative, got %d" % (name, value))
    return value


def vertex_cap(override=None):
    return _resolve(override, "RUNCUBE_VERTEX_CAP", DEFAULT_VERTEX_CAP)


def stream_cap(override=None):
    return _resolve(override, "RUNCUBE_STREAM_CAP", DEFAULT_STREAM_CAP)
