"""A fixed piece of work, timed next to the program's to gauge machine speed.

On a shared machine the same code can run up to 1.9 times slower for
stretches of seconds to minutes while other tenants load the host; on the
two-core machine this benchmark was tuned on, the median over 40-second
windows of a two-epoch desk training moved between 75 and 133 ms within
ten minutes.  No statistic over one run removes a slow stretch that lasts
the whole run, so the benchmark times this yardstick next to every command
and every training step and reports each time scaled to the yardstick:

    reported = measured * REFERENCE_S / yardstick time measured next to it

The yardstick is the same kind of work as the program (small dense
products, row normalisation, a softmax and a pure-Python dynamic program),
so it slows by about as much: over two minutes, 20-second medians of that
training moved by 30 % raw and by 1 % scaled.  It is the benchmark's own
code and does not change with the program.
"""

from __future__ import annotations

import time

import numpy as np

# median yardstick time on the reference machine (2-core x86_64 VM, Python
# 3.11, numpy 2.4) while no other tenant slowed it; reported times are
# seconds on that machine
REFERENCE_S = 0.30e-3


class Yardstick:
    """Callable that runs the fixed work once and returns its wall seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.layers = [(rng.normal(size=(32, 32)) / 6.0, rng.normal(size=32)) for _ in range(2)]
        self.rows = rng.normal(size=(8, 32))
        self.costs = rng.random((12, 4)).tolist()

    def work(self) -> float:
        for _ in range(12):
            h = self.rows
            for w, b in self.layers:
                h = h @ w + b
            h = h / np.linalg.norm(h, axis=1, keepdims=True)
            z = h @ h.T / 0.07
            np.exp(z - z.max(axis=1, keepdims=True)).sum(axis=1)
        prev: list[float] = []
        for i, row in enumerate(self.costs):
            cur: list[float] = []
            for j, v in enumerate(row):
                options = ([prev[j]] + ([prev[j - 1]] if j else []) if i else []) + ([cur[j - 1]] if j else [])
                cur.append(v + min(options) if options else v)
            prev = cur
        return prev[-1]

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0
