"""The graph's per-colour X index against the structures it replaced.

``has_edge`` reads ``x_index`` and must answer as a frozenset of the edges
does, on host graphs and on the engine's Y side, for every probe: edges,
near misses, bools and tuples of the wrong length.  The switch digraph looks
X' up in ``x_index`` and must equal the one built by scanning every edge of
every colour (``helpers.scan_switch_digraph``) on every context the engine
builds.
"""

import random

import pytest

from rainbowmatch.core import (
    ColouredBipartiteMultigraph,
    Edge,
    read_edge_list,
    verify_rainbow_matching,
)
from rainbowmatch.gen import generate_instance
from rainbowmatch.switching import _Engine, _YSide, build_switch_digraph, solve_switching_engine

from helpers import scan_switch_digraph, tight_text


def _graphs():
    for i in range(12):
        n = 2 + i % 6
        yield generate_instance(
            "random", n, n + i % 3, i % 2 == 0, seed=3100 + i, left_size=n + 2, right_size=n + 3
        )
    # ids 0 and 1 only
    yield ColouredBipartiteMultigraph(2, 2, 2, [(0, 1, 0), (1, 0, 0), (1, 1, 1)])
    yield ColouredBipartiteMultigraph(3, 3, 0, [])


def _probes(edges, left, right, colours):
    """Every edge and its near misses, bools, and tuples of two and four ids."""
    probes = []
    for x, y, c in edges:
        probes.append((x, y, c))
        probes.extend((x, y2, c) for y2 in (-1, right, 10**30, *range(right)) if y2 != y)
        probes.extend((x, y, c2) for c2 in (-1, -colours - 1, colours, 10**30))
        probes.extend((x2, y, c) for x2 in (-1, -left, left, -(10**30)))
        probes.extend([(x, y), (x, y, c, 0), (x,), ()])
    probes.extend((x, y, c) for x in (0, 1) for y in (0, 1) for c in (0, 1))
    probes.extend((x, y, c) for x in (False, True) for y in (False, True) for c in (False, True))
    probes.extend([(True, 0, 0), (0, True, False), (1, False, True), (-1, -1, -1)])
    return probes


GRAPHS = list(_graphs())


@pytest.mark.parametrize("graph", GRAPHS, ids=[f"graph-{i}" for i in range(len(GRAPHS))])
def test_has_edge_answers_as_a_frozenset_of_the_edges(graph):
    sides = [
        (graph, frozenset(graph.edges)),
        (_YSide(graph), frozenset(Edge(y, x, c) for x, y, c in graph.edges)),
    ]
    rng = random.Random(repr(graph))
    for side, reference in sides:
        probes = _probes(reference, side.left_size, side.right_size, side.colour_count)
        probes.extend(tuple(rng.randint(-2, 8) for _ in range(3)) for _ in range(200))
        for probe in probes:
            assert side.has_edge(probe) is (probe in reference), probe


def test_verify_gives_a_verdict_on_a_tuple_of_the_wrong_length():
    g = read_edge_list("2 2 2\n0 0 0\n1 1 1\n")
    assert verify_rainbow_matching(g, [(0, 0)]) == (False, "edge (0, 0) not in host graph")
    assert verify_rainbow_matching(g, [(0, 0, 0), (1, 1, 1, 0)]) == (
        False, "edge (1, 1, 1, 0) not in host graph"
    )


def test_switch_digraph_equals_the_scan_on_every_engine_context(monkeypatch):
    contexts = []
    context = _Engine.context

    def recording(self, matching, flip):
        ctx = context(self, matching, flip)
        contexts.append(ctx)
        return ctx

    monkeypatch.setattr(_Engine, "context", recording)
    for order, seed in [(9, 0), (11, 0), (13, 6), (15, 8), (17, 7)]:
        solve_switching_engine(read_edge_list(tight_text(order, seed)))
    monkeypatch.undo()
    rng = random.Random("switch-digraph")
    checked = {False: 0, True: 0}
    for ctx in contexts:
        if ctx.matching.size == 0:
            continue
        xs = range(ctx.graph.left_size)
        subsets = [ctx.x0, xs, ()] + [rng.sample(xs, rng.randint(1, len(xs))) for _ in range(3)]
        for x_prime in subsets:
            got = build_switch_digraph(ctx, x_prime)
            want = scan_switch_digraph(ctx, x_prime)
            assert list(map(got.out_arcs, range(got.vertex_count))) == list(want._out)
            assert got.vertex_labels == want.vertex_labels
            assert sorted(got.arcs) == sorted(want.arcs)
        checked[isinstance(ctx.graph, _YSide)] += 1
    assert min(checked.values()) >= 15, checked
