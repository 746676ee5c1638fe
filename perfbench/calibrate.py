"""Host-speed calibration of op and set-up timings.

On a virtual machine whose physical cores are shared with other tenants,
speed swings by up to 2x within seconds (measured on a 2-core Xeon VM; see
README.md).  Each op of a run is therefore bracketed by a short reference
probe, code that never touches dvrlu, and its time is rescaled to a
reference host speed:

    calibrated = measured * REF_S / (median probe time around the op)

A change to dvrlu moves the op time but not the probe, so it shows in full;
a swing of the host moves both and largely cancels.  ``REF_S`` is about the probe's
median on the machine the figures in README.md come from, so there
calibrated seconds read close to wall seconds.

Three probes cover the three kinds of work the workloads do: ``python`` is
an object-heavy pure-Python elimination over Z/5^40 with its own element
class, like the p-adic loops of the package; ``series`` multiplies digit
lists mod 5, like the power-series branch of the element code; ``numpy`` is
vectorized integer arithmetic and sorting on small arrays, like the
Monte-Carlo engine.  The host's swings hit these kinds of work unequally,
so each workload uses the probe that resembles its ops.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REPS = 3  # probe runs per bracket; the op's scale uses both brackets around it


class _Mod:
    """Residue mod 5^40 with the operator overhead of an element class."""

    __slots__ = ("v",)
    MOD = 5**40

    def __init__(self, v):
        self.v = v % _Mod.MOD

    def __sub__(self, o):
        return _Mod(self.v - o.v)

    def __mul__(self, o):
        return _Mod(self.v * o.v)

    def inv(self):
        return _Mod(pow(self.v, -1, _Mod.MOD))


def python_probe(d: int = 10) -> int:
    """Gaussian elimination of a fixed d x d matrix over Z/5^40.  The
    off-diagonal entries are divisible by 5 and the diagonal ones are units,
    so every pivot stays a unit."""
    m = [[_Mod(5 * ((i + 1) * (j + 3) * 7919 + i * i) + (i == j)) for j in range(d)]
         for i in range(d)]
    for k in range(d):
        piv, rk = m[k][k].inv(), m[k]
        for i in range(k + 1, d):
            f, ri = m[i][k] * piv, m[i]
            for j in range(k, d):
                ri[j] = ri[j] - f * rk[j]
    return m[d - 1][d - 1].v


def series_probe(n: int = 30, reps: int = 10) -> int:
    """Products of truncated power series over F_5, packed base 5 into an
    int: unpack by divmod, schoolbook product of the digit lists, repack."""
    p, x = 5, 0
    for i in range(n):
        x = x * p + (i * 7 + 3) % p
    y = x
    for _ in range(reps):
        dx, dy, t, u = [], [], x, y
        for _ in range(n):
            t, r = divmod(t, p)
            dx.append(r)
            u, r = divmod(u, p)
            dy.append(r)
        out = [0] * n
        for i, a in enumerate(dx):
            if a:
                for j in range(n - i):
                    if dy[j]:
                        out[i + j] = (out[i + j] + a * dy[j]) % p
        z = 0
        for c in reversed(out):
            z = z * p + c
        y = z or y
    return y


_ARR = np.random.default_rng(0).integers(0, 5**10, size=(64, 64, 8), dtype=np.int64)


def numpy_probe() -> int:
    """Modular arithmetic, a sort along the last axis and a gather."""
    s = 0
    for _ in range(3):
        b = (_ARR * 31 + 7) % 9765625
        idx = np.argsort(b, axis=2)
        s += int(np.take_along_axis(b, idx, axis=2)[:, :, 0].sum())
    return s


PROBES = {
    "python": (python_probe, 0.00075),
    "series": (series_probe, 0.00055),
    "numpy": (numpy_probe, 0.0029),
}


class Calibrator:
    """Brackets ops with probe runs and rescales their times."""

    def __init__(self, kind: str):
        self.fn, self.ref_s = PROBES[kind]
        self.fn()  # warm up
        self.brackets: list = []

    def bracket(self) -> None:
        """Time REPS probe runs; call before every op and once after the last."""
        times = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            self.fn()
            times.append(time.perf_counter() - t0)
        self.brackets.append(times)

    def scale(self, first: int, last: int) -> float:
        """REF_S over the median probe time of brackets first to last."""
        return self.ref_s / statistics.median(
            t for times in self.brackets[first:last + 1] for t in times)

    def scales(self) -> list:
        """Per op i, the scale of the brackets just before and just after it."""
        return [self.scale(i, i + 1) for i in range(len(self.brackets) - 1)]

    def probe_median_s(self) -> float:
        return statistics.median(t for times in self.brackets for t in times)
