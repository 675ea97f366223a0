"""Finite causal orders, their cone-like set algebra, order reconstruction
from the algebra alone, causal measures, and the flat-spacetime bridge.

The public names are each module's ``__all__``, declared there once."""

from .algebra import *  # noqa: F401,F403
from .catalog import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .io import *  # noqa: F401,F403
from .measure import *  # noqa: F401,F403
from .minkowski import *  # noqa: F401,F403
from .order import *  # noqa: F401,F403
from .reconstruction import *  # noqa: F401,F403

__version__ = "0.1.0"
