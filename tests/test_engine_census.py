"""Census of the switching engine in the paper's regime.

Each system has n colour classes, and every class is a perfect matching of
K_{n+1,n+1}, so every class has n+1 edges.  Class 0 is fixed to x -> x,
which loses nothing: relabelling Y maps any system onto one of these.  For
n = 3 every system is run (24^2 = 576).  For n = 4, classes 1-3 are taken
as a multiset, C(122, 3) = 295,240 systems, and a seeded sample of 4,000 is
run.  The whole census, run once by a script outside this suite, found all
295,240 full, with at most 10 rotation states, in 37 s on a shared 2-vCPU
machine: too long for this suite.

Wherever the engine falls short of n, the oracle must prove that no rainbow
matching of size n exists; otherwise the engine missed one, and the test
names the system.
"""

import itertools
import random

import pytest

from rainbowmatch.core import ColouredBipartiteMultigraph
from rainbowmatch.oracle import exact_max_rainbow_matching
from rainbowmatch.switching import solve_switching_engine


def _graph(n: int, system):
    edges = [(x, y, c) for c, perm in enumerate(system) for x, y in enumerate(perm)]
    return ColouredBipartiteMultigraph(n + 1, n + 1, n, edges)


def test_every_system_at_n3_is_full():
    # classes 1 and 2 ordered, not a multiset: all 24^2 systems
    perms = list(itertools.permutations(range(4)))
    for system in itertools.product(perms[:1], perms, perms):
        matching, trace = solve_switching_engine(_graph(3, system))
        assert matching.size == 3, (system, trace.stop)


@pytest.mark.parametrize("n, total, sample", [(4, 295_240, 4_000)])
def test_sampled_systems_at_n4_are_full_or_proved_short(n, total, sample):
    perms = list(itertools.permutations(range(n + 1)))
    multisets = itertools.combinations_with_replacement(perms, n - 1)
    chosen = set(random.Random(f"census-n{n}").sample(range(total), sample))
    checked = 0
    for index, rest in enumerate(multisets):
        if index not in chosen:
            continue
        system = (perms[0],) + rest  # perms[0] is x -> x
        graph = _graph(n, system)
        matching, trace = solve_switching_engine(graph)
        if matching.size < n:
            optimum = exact_max_rainbow_matching(graph)
            assert optimum.optimal and optimum.size < n, (
                f"engine stopped at {matching.size} ({trace.stop}) on {system}; "
                f"the oracle found {optimum.size}"
            )
        checked += 1
    assert index + 1 == total and checked == sample
