"""The per-head index of ``LabelledDigraph``, built on first use.

On seeded digraphs with parallel arcs, ``in_neighbours`` and
``arcs_between``, which both read the per-head index, must agree with
brute-force scans of ``D.arcs``, whether they are first asked before the
rainbow-path kernel has run on the digraph or after.  The kernel itself
reads only the out-arc lists; the two-hop derivation builds the index.
"""

import random
import sys
import threading

import pytest

from rainbowmatch.budget import BudgetMeter
from rainbowmatch.connectivity import build_two_hop_digraph
from rainbowmatch.digraph import LabelledDigraph, _arc_key, iter_rainbow_paths
from rainbowmatch.gen import generate_proper_digraph
from rainbowmatch.menger import build_counterexample


def palette_digraph(n, out_degree, palette, seed):
    """Arc colours from a small palette, so parallel arcs are common."""
    rng = random.Random(f"digraph-indexes/{seed}")
    arcs = []
    for v in range(n):
        for _ in range(out_degree):
            w = rng.randrange(n - 1)
            arc = (v, w if w < v else w + 1, rng.randrange(palette))
            if arc not in arcs:
                arcs.append(arc)
    rng.shuffle(arcs)  # D.arcs order differs from the out-arc sort
    return LabelledDigraph(n, arcs, vertex_labels=tuple(range(n)))


DIGRAPHS = {
    "palette-9": lambda: palette_digraph(9, 6, 4, 1),
    "palette-12": lambda: palette_digraph(12, 8, 6, 2),
    "menger-2-6": lambda: build_counterexample(2, 6),
    "menger-3-8": lambda: build_counterexample(3, 8),
}


def _run_kernel(D):
    meter = BudgetMeter(None)
    for start in range(D.vertex_count):
        for _ in iter_rainbow_paths(D, start, max_len=3, meter=meter):
            pass
    assert meter.nodes > 0


def _check_against_scans(D):
    n = D.vertex_count
    assert any(len(D.arcs_between(a.tail, a.head)) > 1 for a in D.arcs)  # parallel arcs
    for v in range(n):
        assert D.in_neighbours(v) == frozenset(a.tail for a in D.arcs if a.head == v)
    for u in range(n):
        for v in range(n):
            between = D.arcs_between(u, v)
            assert sorted(between) == sorted(a for a in D.arcs if (a.tail, a.head) == (u, v))
            assert between == tuple(a for a in D.out_arcs(u) if a.head == v)  # label order


@pytest.mark.parametrize("name", sorted(DIGRAPHS))
def test_indexes_before_the_kernel(name):
    D = DIGRAPHS[name]()
    _check_against_scans(D)
    _run_kernel(D)
    _check_against_scans(D)


@pytest.mark.parametrize("name", sorted(DIGRAPHS))
def test_indexes_after_the_kernel(name):
    D = DIGRAPHS[name]()
    _run_kernel(D)
    assert D._into is None  # the kernel reads only _out
    _check_against_scans(D)


def test_two_hop_derivation_builds_only_the_per_head_index():
    D = generate_proper_digraph(12, 4, seed=1)
    build_two_hop_digraph(D, 2)
    assert D._into is not None


def test_threads_racing_on_first_use_see_the_same_indexes():
    # more threads than cores, switching often, each asking a fresh digraph
    # for its indexes at the same moment
    digraphs = [palette_digraph(12, 8, 6, seed) for seed in range(3, 43)]
    failures = []
    barrier = threading.Barrier(6)

    def ask():
        try:
            for D in digraphs:
                barrier.wait(timeout=10)
                _check_against_scans(D)
        except Exception as exc:  # reported below; a thread cannot fail the test
            failures.append(exc)
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


@pytest.mark.parametrize(
    "labels",
    [
        [3, -1, 0, 2, 10**20],
        [True, False, 1, 0, 2],
        ["b", "a", "ab", ""],
        [None, None, None],
        [2, "a", None, (0, 1), 1.5, False],
        [(1, 2), (0, 3), (1, 0)],
        [0.5, 2, 1],
    ],
    ids=["ints", "bools-and-ints", "strings", "none", "mixed", "tuples", "floats"],
)
def test_out_arcs_follow_the_label_key_order(labels):
    # The C-level (head, label) key is taken only where it orders the
    # labels as _label_key does; heads tie so the labels decide.
    rng = random.Random(f"out-arc-order/{len(labels)}")
    arcs = [(0, 1 + rng.randrange(2), label) for label in labels for _ in range(2)]
    rng.shuffle(arcs)
    D = LabelledDigraph(3, arcs)
    assert D.out_arcs(0) == tuple(sorted(D.arcs, key=_arc_key))
