"""The reference job: a fixed pure-Python workload timed beside the work.

A shared 2-CPU host (Python 3.11) drifts between speed regimes: one TOL
build took 460–840 ms within a single 150-second process.  Every timed
block is therefore bracketed by runs of this job, and end-to-end metrics
are reported in units of its duration (``ref``), which cancels the drift.

The job mixes the three kinds of work the library does, so that it
slows down with the library when a neighbour takes the memory system or
the core: a pointer chase through 8 MB (cache misses, like label and
adjacency lookups), sorted-list merges and set probes (like label
intersection), and dict and set updates on small integers (interpreter
overhead).  A job of dict updates alone swung by twice as much as the
reads it bracketed (4.9–9.5 ms against 1.7–2.5 s).
"""

from __future__ import annotations

import random
import statistics
import time
from array import array

_SLOTS = 1 << 21
_STEPS = 60_000
_LISTS = 600
_LOOP = 30_000


class ReferenceJob:
    """The job's inputs, made once per run; :meth:`seconds` times it."""

    def __init__(self) -> None:
        # A full-period LCG modulo 2**21 (multiplier 1 mod 4, odd
        # increment): following it visits every slot once, in an order
        # no prefetcher predicts.
        mask = _SLOTS - 1
        self._chain = array("i", ((69069 * i + 12345) & mask for i in range(_SLOTS)))
        rng = random.Random(1)
        self._lists = [sorted(rng.sample(range(100_000), 40)) for _ in range(_LISTS + 2)]

    def _once(self) -> float:
        start = time.perf_counter()
        chain, i = self._chain, 0
        for _ in range(_STEPS):
            i = chain[i]
        lists, found = self._lists, 0
        for k in range(_LISTS):
            members = set(lists[k])
            found += sum(1 for x in lists[k + 1] if x in members)
            found += len(sorted(lists[k] + lists[k + 2]))
        counts: dict[int, int] = {}
        seen = set()
        for j in range(_LOOP):
            key = (j * 7919) & 0x3FFF
            counts[key] = counts.get(key, 0) + 1
            seen.add(key ^ 0x155)
        return time.perf_counter() - start

    def seconds(self) -> float:
        """Median wall seconds of three runs of the job."""
        return statistics.median(self._once() for _ in range(3))
