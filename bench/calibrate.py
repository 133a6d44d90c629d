"""Machine speed, measured with a fixed piece of pure-Python work.

Shared 2-CPU virtual machines change speed by a third and more, in phases
lasting seconds to minutes, because other tenants share the host.
Timing this fixed loop next to the program and rescaling the program's
times by ``REFERENCE_S / <loop time>`` removes most of that drift: on a
machine running the loop in ``REFERENCE_S`` the rescaled times are the wall
times.

The loop does dict lookups, set membership tests and integer arithmetic on
prebuilt data.  It allocates no container objects, so it never moves the
program's garbage-collection schedule.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.0025  # the loop's typical time on the 2-CPU VM the bounds were set on

_DATA = list(range(512))
_INDEX = {x: x * 7 % 512 for x in _DATA}
_MEMBERS = frozenset(range(0, 512, 3))


def loop_seconds() -> float:
    start = time.perf_counter()
    acc = 0
    for _ in range(32):
        for x in _DATA:
            y = _INDEX[x]
            if y in _MEMBERS:
                acc ^= y
            acc = (acc + x * y) & 0xFFFF
    return time.perf_counter() - start


def rescaled(times: list[float], loops: list[float], window: int = 4) -> list[float]:
    """Each time scaled by the machine speed around it: the median loop time
    of its neighbours up to ``window`` places away on either side."""
    out = []
    for i, t in enumerate(times):
        nearby = loops[max(0, i - window) : i + window + 1]
        out.append(t * REFERENCE_S / statistics.median(nearby))
    return out
