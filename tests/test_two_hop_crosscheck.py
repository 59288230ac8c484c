"""Cross-check of ``build_two_hop_digraph`` against the per-candidate original.

The reference below is the derivation as it stood before it became one flat
loop per vertex pair: a generator of rainbow candidates, a greedy pass that
tests each candidate against every chosen one, and, when greedy falls short,
a second enumeration followed by an exhaustive search over 24 or fewer
candidates.  Both must derive the same arcs with the same bundles, spend the
same number of meter ticks, and run out of a node budget at the same limit.
"""

import functools
import itertools
import random

import pytest

from rainbowmatch import connectivity
from rainbowmatch.budget import BudgetMeter, SearchBudget
from rainbowmatch.connectivity import TwoHopEntry, build_two_hop_digraph
from rainbowmatch.digraph import LabelledDigraph
from rainbowmatch.errors import BudgetExceeded
from rainbowmatch.gen import generate_proper_digraph

from helpers import assert_built_as_by_constructor


def _candidates(D, x, y, meter):
    endpoint_labels = {D.vertex_labels[x], D.vertex_labels[y]}
    for a1 in D.out_arcs(x):
        u = a1.head
        if u == y:
            continue
        for a2 in D.arcs_between(u, y):
            meter.tick()
            triple = {a1.label, D.vertex_labels[u], a2.label}
            if len(triple) == 3 and not (triple & endpoint_labels):
                yield TwoHopEntry(a1, u, D.vertex_labels[u], a2)


def _compatible(a, b):
    return a.midpoint != b.midpoint and not (set(a.colour_triple()) & set(b.colour_triple()))


def _greedy(candidates, m):
    chosen = []
    for cand in candidates:
        if all(_compatible(cand, c) for c in chosen):
            chosen.append(cand)
            if len(chosen) == m:
                return chosen
    return None


def _exhaustive(candidates, m, meter):
    for combo in itertools.combinations(candidates, m):
        meter.tick()
        if all(_compatible(a, b) for a, b in itertools.combinations(combo, 2)):
            return list(combo)
    return None


def reference_two_hop(D, m, budget=None):
    """(derived arcs, bundles, meter nodes, pairs only the exhaustive
    search could bundle)."""
    meter = BudgetMeter(budget)
    arcs, bundles, rescued = [], {}, 0
    for x in range(D.vertex_count):
        for y in range(D.vertex_count):
            if x == y or D.vertex_labels[x] == D.vertex_labels[y]:
                continue
            chosen = _greedy(_candidates(D, x, y, meter), m)
            if chosen is None:
                candidates = list(_candidates(D, x, y, meter))
                if len(candidates) <= 24:
                    chosen = _exhaustive(candidates, m, meter)
                    rescued += chosen is not None
            if chosen is not None:
                arcs.append((x, y, None))
                bundles[(x, y)] = tuple(chosen)
    return LabelledDigraph(D.vertex_count, arcs).arcs, bundles, meter.nodes, rescued


def palette_digraph(n, out_degree, palette, seed):
    """Arc and vertex colours from one palette; parallel arcs allowed."""
    rng = random.Random(f"two-hop-crosscheck/{seed}")
    arcs = set()
    for v in range(n):
        for _ in range(out_degree):
            w = rng.randrange(n - 1)
            arcs.add((v, w if w < v else w + 1, rng.randrange(palette)))
    labels = tuple(rng.randrange(palette) for _ in range(n))
    return LabelledDigraph(n, sorted(arcs), vertex_labels=labels)


DIGRAPHS = {
    "proper-12-4": lambda: generate_proper_digraph(12, 4, seed=1),
    "proper-16-7": lambda: generate_proper_digraph(16, 7, seed=2),
    "proper-20-12": lambda: generate_proper_digraph(20, 12, seed=3),
    "palette-10-5": lambda: palette_digraph(10, 5, 12, 4),
    "palette-12-8": lambda: palette_digraph(12, 8, 20, 5),
    # at m = 3 one pair falls back with exactly 24 candidates
    "palette-24-20": lambda: palette_digraph(24, 20, 18, 1),
}


@functools.cache
def unbudgeted_reference(name, m):
    """reference_two_hop on a digraph of DIGRAPHS with no budget, computed
    once per (name, m) for the three tests that compare against it; they
    only read it."""
    return reference_two_hop(DIGRAPHS[name](), m)


def _run(monkeypatch, D, m):
    """The derivation under test, with the number of ticks its meter took."""
    meters = []

    class Recording(BudgetMeter):
        __slots__ = ()

        def __init__(self, budget):
            super().__init__(budget)
            meters.append(self)

    monkeypatch.setattr(connectivity, "BudgetMeter", Recording)
    derived, cert = build_two_hop_digraph(D, m)
    (meter,) = meters
    return derived, cert, meter.nodes


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(DIGRAPHS))
def test_two_hop_matches_reference(monkeypatch, name, m):
    D = DIGRAPHS[name]()
    arcs, bundles, nodes, _ = unbudgeted_reference(name, m)
    derived, cert, derived_nodes = _run(monkeypatch, D, m)
    assert derived.arcs == arcs
    assert cert.bundles == bundles
    assert derived_nodes == nodes
    assert cert.validate(D)


@pytest.mark.parametrize("name", sorted(DIGRAPHS))
def test_two_hop_digraph_equals_the_constructor(name):
    # the derivation hands its rows over as out-lists, unchecked
    D = DIGRAPHS[name]()
    for m in (1, 2, 3, 4):
        derived, _ = build_two_hop_digraph(D, m)
        assert derived.arcs or m > 1
        assert_built_as_by_constructor(derived)


def test_exhaustive_fallback_is_exercised():
    # some pairs are bundled only by the exhaustive search after greedy
    # fell short, so the comparison above covers the fallback
    rescued = sum(unbudgeted_reference(name, m)[3] for name in DIGRAPHS for m in (2, 3))
    assert rescued > 0


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(DIGRAPHS))
def test_two_hop_budget_matches_reference(name, m):
    # a derivation that batches its ticks must still run out at exactly the
    # node limits where ticking one at a time runs out
    D = DIGRAPHS[name]()
    total = unbudgeted_reference(name, m)[2]
    for limit in sorted({1, 2, total // 3, total // 2, total - 1, total, total + 1}):
        if limit < 1:
            continue
        budget = SearchBudget(node_limit=limit)
        outcomes = []
        for derive in (reference_two_hop, build_two_hop_digraph):
            try:
                derive(D, m, budget)
                outcomes.append("done")
            except BudgetExceeded:
                outcomes.append("budget")
        assert outcomes[0] == outcomes[1] == ("budget" if limit < total else "done"), limit
