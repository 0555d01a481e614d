"""The one core count of every thread gate (``nn.parallel``, ``comm.fabric``)."""

import os


def usable_cores() -> int:
    """Cores this process may run on (its affinity mask, else the count)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1
