"""A fixed computation that tells how fast the shared host runs at the moment.

The host this benchmark was built on gives each process a share of a busy
machine, and its speed moves between levels up to about 1.7x apart, in phases
from seconds to minutes (README.md, "Noise").  A whole run can fall into one
slow phase, so a plain wall-clock median moves by more than the bounds in
BENCHMARK.json from one run to the next.

The yardstick is timed just before every timed command, and the command's
time is scaled by ``YARDSTICK_SECONDS / yardstick``.
A phase that slows the program slows the yardstick too, and cancels out.  The
yardstick is the benchmark's own code and does not change with ebitnet; it
mixes the three kinds of work ebitnet's commands do: interpreted Python
arithmetic, small symmetric eigensolves in numpy, and ``Fraction`` sums.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import numpy as np

# The yardstick's time on an undisturbed core of the development host (x86_64
# at 2.1 GHz, Python 3.11, numpy 2.4 with one BLAS thread): its fastest decile
# over eight minutes.  Scaled times are therefore close to that core's
# undisturbed wall-clock times.
YARDSTICK_SECONDS = 0.012


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrices = [m + m.T for m in rng.standard_normal((200, 16, 16))]

    def __call__(self) -> float:
        """Seconds the fixed computation takes now."""
        start = perf_counter()
        total = 0
        for i in range(60000):
            total += i * i % 7
        for m in self._matrices:
            np.linalg.eigvalsh(m)
        fractions = Fraction(0)
        for i in range(1, 1500):
            fractions += Fraction(i % 13, i % 7 + 1)
        return perf_counter() - start
