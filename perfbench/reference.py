"""Machine speed, measured by fixed work that does not call ``ipj``.

On a shared machine (a VM whose CPUs other VMs also use) a neighbour's load
can slow every process by up to about half, in stretches that last from
seconds to minutes.  The benchmark therefore times a fixed reference pass
next to the calls it measures and reports each time at reference speed:

    time at reference speed = measured time * REFERENCE_S / reference time

The reference pass is the brute-force evaluator of ``oracles`` on one fixed
model (tuples, exact fractions, recursion, dict lookups: the kind of work
``ipj`` does), so it slows down with the machine in about the same way.
It does not call ``ipj``, so a change to ``ipj`` leaves it unchanged.

Set-up is mostly process start-up: the interpreter, imports and file
writes, which a pure-Python loop does not stand for.  Each set-up sample is
therefore scaled with the time of starting ``REFERENCE_START`` just before
it: a Python process that imports the standard modules the worker imports,
but not ``ipj``.  Its nominal time is ``REFERENCE_START_S``.
"""

from __future__ import annotations

import random
import sys
import time

import oracles
import workloads

REFERENCE_S = 0.005  # nominal seconds of one reference pass
REFERENCE_START = [
    sys.executable, "-c",
    "import argparse, array, contextlib, dataclasses, fractions, io, json, pathlib, random, re,"
    " resource, shutil, statistics, typing",
]
REFERENCE_START_S = 0.1  # nominal seconds of one start of REFERENCE_START


class Speed:
    def __init__(self):
        rng = random.Random(0)
        self.model = workloads.rand_rf_model(rng)
        self.queries = workloads.rand_queries(rng, self.model, 12)

    def sample(self, seconds: float = 0.0) -> float:
        """Mean time of reference passes made now, one or more for ``seconds``."""
        times = []
        end = time.perf_counter() + seconds
        while not times or time.perf_counter() < end:
            t0 = time.perf_counter()
            for f in self.queries:
                oracles.eval_f(self.model, f)
                oracles.print_f(f)
            times.append(time.perf_counter() - t0)
        return sum(times) / len(times)
