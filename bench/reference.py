"""A fixed pure-Python task that measures how fast the machine runs right now.

On a shared machine the interpreter's speed drifts by up to half over
minutes, for every process alike.  The benchmark runs this task, which is
its own code and never calls the program, next to the program's operations
and scales its times to the speed at which the task takes REF_NOMINAL_S.
The task is built like the program's hot paths: it indexes a few hundred
coloured edges into per-vertex and per-colour tuples with set lookups, and
enumerates totally rainbow paths by recursive depth-first search.
"""

from __future__ import annotations

import gc
from time import perf_counter

import checks
import corpus

REF_NOMINAL_S = 1.0e-3  # the task's time at the reference speed


class Reference:
    def __init__(self):
        rng = corpus.rng_for("reference", 0)
        self.vertices = 24
        self.arcs = corpus.proper_digraph(self.vertices, 4, rng)
        self.edges = [(rng.randrange(48), rng.randrange(48), rng.randrange(24)) for _ in range(1000)]

    def _index(self) -> int:
        by_x: list[list] = [[] for _ in range(48)]
        by_c: list[list] = [[] for _ in range(24)]
        seen: set = set()
        for e in self.edges:
            if e in seen:
                continue
            seen.add(e)
            by_x[e[0]].append(e)
            by_c[e[2]].append(e)
        return len(tuple(tuple(sorted(cl)) for cl in by_c)) + len(frozenset(seen))

    def run(self) -> float:
        """Seconds the task took."""
        start = perf_counter()
        self._index()
        checks.rainbow_distances(self.vertices, self.arcs, 0, 5)
        return perf_counter() - start
