"""A fixed pure-Python workload that gauges the machine's current speed.

On a shared 2-core sandbox, identical wflag sweeps run up to 2x slower for
tens of seconds at a time while other tenants load the host, and a small
Fraction loop does not slow down with them (correlation 0.13 with sweep
time, measured).  The slowdown hits code with a large working set, so this
loop walks about 40 MB of Fractions, big ints and lists in a shuffled order,
as the search does with its own objects (correlation 0.46).  It uses no
wflag code, so a change to wflag cannot change it.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction

_P = (1 << 61) - 1
_N = 150_000


class Calibration:
    def __init__(self) -> None:
        rng = random.Random(1)
        self._data = [
            Fraction(rng.randrange(1, 10**15), rng.randrange(1, 10**15)) for _ in range(_N)
        ]
        self._order = list(range(_N))
        rng.shuffle(self._order)
        self._table = {i * 7919: [i, i * i, str(i)] for i in range(_N)}

    def measure(self, passes: int) -> float:
        """Seconds per walk over the data (0.3-0.5 s on a 2-core Xeon sandbox)."""
        data, table = self._data, self._table
        t0 = time.perf_counter()
        for _ in range(passes):
            acc = 0
            total = Fraction(0)
            for k, i in enumerate(self._order):
                f = data[i]
                acc = (acc * 31 + f.numerator * f.denominator) % _P
                acc ^= table[(acc % _N) * 7919][1]
                if k % 16 == 0:
                    total += f
                    if k % 1024 == 0:
                        total = Fraction(total.numerator % _P, total.denominator % _P or 1)
        return (time.perf_counter() - t0) / passes
