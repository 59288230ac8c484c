"""Independent cross-check of the removal search by brute force.

``removal_verdict`` searches a bounded tree per pair; the references in
``helpers`` sweep every removal set instead, with one BFS or kernel walk
per pair and set.  The connectivity predicates must give the reference's
verdict in all four modes, ``verify_property_I`` must on the Menger
counterexamples, plain and subdivided, and every witness must name a
removal set the reference confirms kills its pair.  Both sides find paths
with the kernel in the coloured modes; ``test_kernel_crosscheck`` checks
the kernel itself by brute force.
"""

import random

from rainbowmatch.digraph import LabelledDigraph
from rainbowmatch.gen import generate_proper_digraph
from rainbowmatch.menger import build_counterexample, subdivide_to_simple, verify_property_I
from rainbowmatch.oracle import is_kd_connected, is_rainbow_k_edge_connected

from helpers import (
    complete_biorientation,
    reference_kd_connected,
    reference_path_avoids,
    reference_property_I,
)

MODES = ("uncoloured", "edge", "vertex", "total")


def digraphs():
    """Small digraphs whose arcs and vertices share one palette of colours,
    each with a random set A; then denser, properly coloured ones, which
    stay connected after more removals, with A all their vertices."""
    rng = random.Random("removal-crosscheck")
    for _ in range(30):
        n = rng.randint(3, 7)
        palette = rng.randint(3, 12)
        arcs = set()
        for v in range(n):
            for _ in range(rng.randint(1, 2 * n)):
                w = rng.randrange(n - 1)
                arcs.add((v, w if w < v else w + 1, rng.randrange(palette)))
        labels = tuple(rng.randrange(palette) for _ in range(n))
        A = sorted(rng.sample(range(n), rng.randint(2, n)))
        yield LabelledDigraph(n, sorted(arcs), vertex_labels=labels), A
    yield complete_biorientation(4), range(4)
    for out_degree in (4, 5):
        yield generate_proper_digraph(6, out_degree, seed=0), range(6)


def _check_witness(D, verdict, r, max_len, mode):
    S, x, y = verdict.witness
    assert len(S) <= r
    if mode == "uncoloured":
        assert x not in S and y not in S
    assert not reference_path_avoids(D, x, y, S, max_len, mode)


def test_removal_verdicts_match_the_sweep():
    seen = set()
    for D, A in digraphs():
        n = D.vertex_count
        for k in range(1, 5):
            for d in range(1, 5):
                for mode in MODES:
                    verdict = is_kd_connected(D, A, k, d, mode=mode)
                    assert verdict.connected == reference_kd_connected(D, A, k, d, mode)
                    seen.add((k, mode, verdict.connected))
                    if not verdict.connected:
                        _check_witness(D, verdict, k - 1, d, mode)
            verdict = is_rainbow_k_edge_connected(D, k)
            want = reference_kd_connected(D, range(n), k, n - 1, "edge")
            assert verdict.connected == want
            if not verdict.connected:
                _check_witness(D, verdict, k - 1, n - 1, "edge")
    assert len(seen) == 4 * len(MODES) * 2  # both verdicts for every k and mode


def test_property_I_matches_the_sweep():
    seen = {True: 0, False: 0}
    for k in (1, 2, 3):
        for m in range(2 * k + 2, 2 * k + 5):
            plain = build_counterexample(k, m)
            # the sweep over a subdivided digraph's colours is slow beyond the least m
            for D in (plain, subdivide_to_simple(plain)) if m == 2 * k + 2 else (plain,):
                for r in range(k + 2):
                    for u, v in ((0, m), (m, 0), (1, m - 1), (0, 0), (0, 1)):
                        got = verify_property_I(D, u, v, r)
                        assert got == reference_property_I(D, u, v, r), (k, m, r, u, v)
                        seen[got] += 1
    assert min(seen.values()) >= 50
