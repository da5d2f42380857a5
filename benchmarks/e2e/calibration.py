"""The reference second: a fixed kernel that measures the machine, not the program.

The sandbox this benchmark was defined on is a 2-vCPU VM whose speed
drifts by up to ±25 % over minutes and jitters by more over seconds, from
load outside the VM. Identical ops then differ between runs by more than
any regression bound. Three things are done about it, and this module is the
last (``runner.py`` describes the CPU clock and best-of-rounds):

every run times this kernel — a pure-Python mix of allocation, hashing,
sorting and a dict-update loop that touches nothing in ``repro`` — on the
CPU clock a few times before every set-up and every op, takes the lower
quartile of those samples as the machine's speed during the run, and
reports every duration multiplied by ``REFERENCE_PAIR_S / speed``. A reported second is therefore
a second *on a machine that runs the kernel in* ``REFERENCE_PAIR_S``. On a
ten-minute recording of identical ops this halved the run-to-run spread of
best-of-rounds latencies (8–10 % to 4–6 %).

The kernel and the constant define the unit of every time this benchmark
reports. Changing either is a change of unit: it invalidates every
comparison with earlier numbers, so neither may change in a PR that claims
a gain.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: seconds one kernel pair takes on the reference machine (the defining
#: sandbox in its unloaded state)
REFERENCE_PAIR_S = 0.050


def _allocate_hash_sort() -> int:
    items = [(i, str(i)) for i in range(60000)]
    index = {item: position for position, item in enumerate(items)}
    ordered = sorted(items, key=lambda item: item[1])
    return len(index) + len(ordered)


def _dict_update_loop() -> int:
    table = {}
    total = 0
    for i in range(200000):
        table[i & 4095] = (i, total)
        total += len(table)
    return total


def pair_seconds() -> float:
    """CPU seconds of one run of the kernel pair."""
    started = time.process_time()
    _allocate_hash_sort()
    _dict_update_loop()
    return time.process_time() - started


def scale(samples: List[float]) -> float:
    """Factor that turns this run's measured seconds into reference seconds."""
    speed = statistics.quantiles(samples, n=4)[0] if len(samples) > 1 else samples[0]
    return REFERENCE_PAIR_S / speed
