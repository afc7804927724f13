"""Host-speed probe: a fixed kernel timed next to every measured item.

The benchmark host is a small VM whose CPU other tenants slow by up to 1.6x,
in spells from seconds to minutes. Wall times alone therefore drift with the
host, not with the program. The probe runs the same work every time, shaped
like conforma's own: scalar float recurrences in Python loops, small numpy
vector arithmetic, and a small dense solve. probe() times it; a wall time w
measured while the probe reads k is reported as w * REF_S / k, the time the
item would take on the host at the probe's reference speed. The probe shares
no code with conforma, so a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time on an uncontended 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4),
# so that reference seconds read close to wall seconds on that host.
REF_S = 0.00053

_VALS = [0.5 + 0.07 * i for i in range(9)]
_X = np.linspace(0.1, 2.0, 256)
_A = np.eye(24) * 4.0 + np.full((24, 24), 0.1)
_B = np.ones(24)


def _kernel() -> float:
    acc = 0.0
    for _ in range(72):
        e = [1.0] + [0.0] * len(_VALS)
        for m, x in enumerate(_VALS, start=1):
            for k in range(m, 0, -1):
                e[k] += x * e[k - 1]
        acc += e[-1]
    for _ in range(36):
        y = np.sqrt(_X * _X + 1.0) / (1.0 + _X)
        acc += float(np.max(y))
    for _ in range(3):
        acc += float(np.linalg.solve(_A, _B)[0])
    return acc


def probe() -> float:
    """Median of three timed runs of the kernel, in seconds (about 2 ms in all)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(k_before: float, k_after: float) -> float:
    """Factor from wall seconds to reference seconds for an interval probed at
    its start and its end."""
    return REF_S / (0.5 * (k_before + k_after))
