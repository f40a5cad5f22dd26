"""Machine-speed calibration.

The effective CPU speed of a shared virtual machine drifts: on the 2-vCPU
VM this benchmark was built on, a fixed pure-Python loop ran anywhere from
0.59 s to 1.13 s within three minutes, in phases of 2-60 s.  Every timing
the benchmark gates on is therefore taken next to samples of a fixed
reference kernel K (no ``bifree`` code) and scaled by K_REF_S / K_measured:
the result reads in seconds of a machine on which K takes ``K_REF_S``.

K mixes what ``bifree`` spends its time on: interpreted Python arithmetic,
building and sorting small Python objects, many NumPy calls on tiny arrays,
and vectorised complex arithmetic on a few hundred points.
"""

from __future__ import annotations

import time

import numpy as np

# median of k_time() on the reference machine (see README.md)
K_REF_S = 0.0089

_Z = np.linspace(-3.0, 3.0, 256) + 0.1j
_PTS = np.linspace(-1.0, 1.0, 5)
_WTS = np.full(5, 0.2)


def _kernel() -> int:
    s = 0
    for i in range(20_000):
        s += i * i % 7
    rows = [((float(i % 13), float(i % 7)), 1.0 / (1 + i)) for i in range(1500)]
    rows.sort()
    pts = np.array([[p[0], p[1]] for p, _ in rows])
    s += len({(p[0], p[1]) for p, _ in rows}) + int(pts.sum())
    x = _Z.copy()
    for _ in range(20):
        d = x[:, None] - _PTS
        g = (_WTS / d).sum(-1)
        gp = -(_WTS / (d * d)).sum(-1)
        x = x - 0.01 * (1.0 / g - _Z) / (-gp / (g * g))
    for _ in range(400):
        s += int(np.sum(_PTS * _PTS) > 0)
    return s


def k_time() -> float:
    """Wall seconds of one run of the reference kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def k_window(seconds: float) -> float:
    """Mean K over back-to-back samples lasting at least ``seconds``."""
    t0 = time.perf_counter()
    samples = [k_time()]
    while time.perf_counter() - t0 < seconds:
        samples.append(k_time())
    return sum(samples) / len(samples)


def factor(k_samples) -> float:
    """Scale from measured seconds to calibrated seconds."""
    return K_REF_S / (sum(k_samples) / len(k_samples))
