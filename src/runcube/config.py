"""Size caps and their environment overrides.

Explicit keyword arguments win over environment variables, which win over
the built-in defaults.  The environment variables are

    RUNCUBE_VERTEX_CAP   largest vertex count for explicit graph objects
    RUNCUBE_STREAM_CAP   largest vertex count for streaming censuses, and
                         the work bound of cube counts and dilations

and each must hold a nonnegative integer; any other value raises
ConfigError, which the command line reports as a usage error.  A cap
given as a keyword argument is held to the same rule.
"""

import os
from numbers import Integral

from .errors import ConfigError

DEFAULT_VERTEX_CAP = 2_000_000
DEFAULT_STREAM_CAP = 50_000_000


def _resolve(override, name, default):
    """The override if given, else the environment variable, else the default.

    Either way the cap must be a nonnegative integer, numpy's included, and
    not a bool; anything else raises ConfigError.
    """
    if override is None:
        override = os.environ.get(name)
        if override is None:
            return default
        try:
            override = int(override)
        except ValueError:
            raise ConfigError("%s must be an integer, got %r" % (name, override)) from None
    else:
        name = "cap"
    if isinstance(override, bool) or not isinstance(override, Integral):
        raise ConfigError("%s must be an integer, got %r" % (name, override))
    if override < 0:
        raise ConfigError("%s must be nonnegative, got %d" % (name, override))
    return int(override)


def vertex_cap(override=None):
    return _resolve(override, "RUNCUBE_VERTEX_CAP", DEFAULT_VERTEX_CAP)


def stream_cap(override=None):
    return _resolve(override, "RUNCUBE_STREAM_CAP", DEFAULT_STREAM_CAP)
