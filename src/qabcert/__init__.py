"""Certified quantum Arimoto-Blahut iteration for channel relative entropy."""

__version__ = "0.1.0"

from . import certify, channel_re, linalg, mixture, qab_core, quantum

# Each module's ``__all__`` is the one list of its public names.  It is read
# here before ``from .certify import *`` rebinds ``certify`` to the function.
__all__ = sorted(
    {name for m in (certify, channel_re, linalg, mixture, qab_core, quantum) for name in m.__all__}
)

from .certify import *  # noqa: E402, F403
from .channel_re import *  # noqa: E402, F403
from .linalg import *  # noqa: E402, F403
from .mixture import *  # noqa: E402, F403
from .qab_core import *  # noqa: E402, F403
from .quantum import *  # noqa: E402, F403
