"""Host speed, measured with a fixed pure-Python kernel.

The VM the benchmark runs on changes speed host-wide: a fixed loop runs
up to 40% slower in one half-minute than in another, on both vCPUs at
once.  A 30-second run cannot average that out, so raw wall times of
two runs of the same code differ by more than a regression bound.
``rep.py`` therefore reads the kernel's speed right before and right
after every timed part of a single-process run (``rep.read_speed``), and
``run.py`` scales the part's time to a host of reference speed::

    scaled_s = wall_s * REFERENCE_S / kernel_s

where ``kernel_s`` is the mean of the readings on either side of the
part.  The speed swings between a fast and a slow state that lasts
seconds, so a reading next to a one-second part mostly sees the state
the part ran in.

The kernel does the same kind of work as the program's hot paths
(shortest paths over dict adjacency with ``heapq``, then a SHA-256 of a
JSON dump), but none of the program's code, so a change to the program
moves the scaled times and a change in host speed mostly does not.

The kernel and ``REFERENCE_S`` are fixed: changing either changes every
scaled time, so results from before and after are not comparable.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from time import perf_counter
from typing import Dict, List

#: Seconds one kernel pass took on the reference host (2-vCPU VM,
#: Python 3.11.7); a scaled time is in seconds of that host.
REFERENCE_S = 0.03

#: Kernel passes per reading; a reading is their mean.
PASSES = 5

_NODES = 420


def _graph() -> Dict[int, Dict[int, float]]:
    rng = random.Random(20261017)
    adj: Dict[int, Dict[int, float]] = {i: {} for i in range(_NODES)}
    for node in range(1, _NODES):
        other, weight = rng.randrange(node), rng.random()
        adj[node][other] = adj[other][node] = weight
    for _ in range(_NODES):
        a, b = rng.randrange(_NODES), rng.randrange(_NODES)
        if a != b:
            adj[a][b] = adj[b][a] = rng.random()
    return adj


_ADJ = _graph()


def kernel() -> str:
    """One pass: shortest paths from every 20th node, then their digest."""
    tables: List[Dict[int, float]] = []
    for source in range(0, _NODES, 20):
        dist = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            for other, weight in _ADJ[node].items():
                nd = d + weight
                if nd < dist.get(other, float("inf")):
                    dist[other] = nd
                    heapq.heappush(heap, (nd, other))
        tables.append(dist)
    blob = json.dumps([sorted(t.items()) for t in tables])
    return hashlib.sha256(blob.encode()).hexdigest()


def reading(passes: int = PASSES) -> float:
    """Mean seconds of one kernel pass, over ``passes`` passes."""
    started = perf_counter()
    for _ in range(passes):
        kernel()
    return (perf_counter() - started) / passes
