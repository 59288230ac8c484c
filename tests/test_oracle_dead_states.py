"""The exact oracle's search tree and its tables.

The dead-state table remembers live-edge masks proved to have no full
completion at slack 0.  It is meant as a pure cut: with the table switched
off or held small (its bit cap monkeypatched) the oracle must return the
same matchings and ``optimal`` flags, and search at least as many nodes.
The kill-mask cache must change nothing at all, node counts included, and a
digest pins the whole tree.  A call must also leave no cyclic garbage
behind, so that both are freed on return.
"""

import gc
import hashlib
import random

import pytest

from rainbowmatch import oracle
from rainbowmatch.budget import CLOCK_STRIDE, SearchBudget
from rainbowmatch.core import ColouredBipartiteMultigraph, verify_rainbow_matching
from rainbowmatch.gen import random_latin_square
from rainbowmatch.latin import square_to_graph
from rainbowmatch.oracle import exact_max_rainbow_matching

from helpers import max_partial_transversal


def _planted(n: int, seed: int):
    """n edge-disjoint classes of size n+1 on N=n+3 vertices.  Each class is
    a row of the cyclic order-N square: its diagonal cell, which together
    form a rainbow matching of size n, plus n other cells of the row."""
    order = n + 3
    rng = random.Random(f"dead-states/planted/{n}/{seed}")
    edges = []
    for colour, r in enumerate(rng.sample(range(order), n)):
        others = [j for j in range(order) if j != r]
        edges.extend((j, (r + j) % order, colour) for j in [r, *rng.sample(others, n)])
    return ColouredBipartiteMultigraph(order, order, n, edges, edge_disjoint=True)


def _calls():
    """(name, graph) of oracle calls to compare."""
    for order in range(5, 11):
        for seed in range(2):
            yield f"isotope-{order}-{seed}", square_to_graph(random_latin_square(order, seed))
    for i, n in enumerate((8, 12, 16, 20)):
        yield f"planted-{n}", _planted(n, i)


def test_oracle_call_leaves_no_cyclic_garbage():
    # a whole tree, a search ended by its first full matching, a node limit
    g = square_to_graph(random_latin_square(10, 1))
    calls = [(g, {}), (_planted(12, 0), {}), (g, {"budget": SearchBudget(node_limit=500)})]
    gc.collect()
    gc.disable()
    try:
        for graph, kw in calls:
            exact_max_rainbow_matching(graph, **kw)
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_order10_isotope_proof_node_pin():
    # No transversal exists at even order, so the whole tree is searched.
    res = exact_max_rainbow_matching(square_to_graph(random_latin_square(10, 1)))
    assert res.optimal
    assert res.size == 9
    assert res.nodes <= 30_000


@pytest.mark.parametrize("bits", [0, 1_000])
def test_table_is_a_pure_cut(monkeypatch, bits):
    # A cap of 0 bits switches the table off; 1,000 bits hold a few masks.
    with_table = [exact_max_rainbow_matching(g) for _, g in _calls()]
    monkeypatch.setattr(oracle, "_DEAD_BITS", bits)
    saved = 0
    for (name, g), cut in zip(_calls(), with_table):
        plain = exact_max_rainbow_matching(g)
        assert plain.matching == cut.matching, name
        assert plain.optimal and cut.optimal, name
        assert plain.nodes >= cut.nodes, name
        saved += plain.nodes - cut.nodes
    assert saved > 0


@pytest.mark.parametrize("order", [4, 5, 6, 7])
def test_optimum_matches_cell_backtracker(order):
    for seed in range(3):
        rect = random_latin_square(order, seed)
        res = exact_max_rainbow_matching(square_to_graph(rect))
        assert res.optimal
        assert res.size == max_partial_transversal(rect.grid)


def test_budget_cut_results_are_valid_and_no_larger():
    g = square_to_graph(random_latin_square(8, 2))
    full = exact_max_rainbow_matching(g)
    assert full.optimal and full.stop == "complete"
    unproved = 0
    for limit in [1, 2, 3, 5, 8, 13, 50, 200, 1_000, 3_000, full.nodes - 1]:
        res = exact_max_rainbow_matching(g, budget=SearchBudget(node_limit=limit))
        if res.optimal:
            assert res.size == full.size
            continue
        unproved += 1
        assert res.stop == "node_limit"
        assert verify_rainbow_matching(g, res.matching).ok
        assert res.size <= full.size
    assert unproved >= 5


# One digest of (nodes, optimal, matching) over the `_calls()` corpus and a
# node-limit sweep of each of its calls.  First recorded before the children's
# cuts moved into their parent's loop, and re-recorded from the same oracle
# when the constrained calls left `_calls()`: a change to how a node is
# visited must leave the search tree, and so every node count, as it was.  A cap of 0
# bits switches the kill-mask cache off; 1,000 bits hold a few masks.
TREE_SHA256 = "b25b6959f0388908fc2957bb5f5c22becfe1e1af486b45f6bbacda66bb451b8a"


@pytest.mark.parametrize("kill_bits", [None, 0, 1_000])
def test_search_tree_matches_snapshot(monkeypatch, kill_bits):
    if kill_bits is not None:
        monkeypatch.setattr(oracle, "_KILL_BITS", kill_bits)
    digest = hashlib.sha256()

    def record(name, res):
        digest.update(f"{name} {res.nodes} {res.optimal} {[tuple(e) for e in res.matching]}\n".encode())

    for name, g in _calls():
        full = exact_max_rainbow_matching(g)
        record(name, full)
        for limit in sorted({1, 2, 3, 5, 10, 50, full.nodes - 1, full.nodes, full.nodes + 1}):
            record(f"{name}/{limit}", exact_max_rainbow_matching(g, budget=SearchBudget(node_limit=limit)))
    assert digest.hexdigest() == TREE_SHA256


def test_time_limit_stops_unproved():
    # the clock is read every CLOCK_STRIDE nodes, and this tree has more
    g = square_to_graph(random_latin_square(10, 1))
    assert exact_max_rainbow_matching(g).nodes > CLOCK_STRIDE
    res = exact_max_rainbow_matching(g, budget=SearchBudget(time_limit=1e-9))
    assert not res.optimal and res.stop == "time_limit"
    assert verify_rainbow_matching(g, res.matching).ok
