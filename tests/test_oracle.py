import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch.budget import SearchBudget
from rainbowmatch.gen import generate_instance, generate_proper_digraph
from rainbowmatch.latin import LatinRectangle, parse_latin, square_to_graph
from rainbowmatch.menger import build_counterexample
from rainbowmatch.oracle import (
    _class_layout,
    exact_max_rainbow_matching,
    is_kd_connected,
    is_rainbow_k_edge_connected,
)
from rainbowmatch.digraph import LabelledDigraph, iter_rainbow_paths

from helpers import (
    complete_biorientation,
    enumerate_latin_squares,
    max_partial_transversal,
)

LATIN_2x2 = square_to_graph(parse_latin("1 2\n2 1"))
CYCLIC_3 = square_to_graph(parse_latin("1 2 3\n2 3 1\n3 1 2"))


def test_oracle_2x2_latin():
    res = exact_max_rainbow_matching(LATIN_2x2)
    assert res.size == 1
    assert res.optimal


def test_oracle_cyclic3():
    res = exact_max_rainbow_matching(CYCLIC_3)
    assert res.size == 3
    assert res.optimal


def test_oracle_monotone_under_edge_addition():
    base = generate_instance("random", 4, 3, False, seed=21, left_size=6, right_size=6)
    prev = 0
    from rainbowmatch.core import ColouredBipartiteMultigraph

    for cut in range(0, len(base.edges) + 1, 3):
        g = ColouredBipartiteMultigraph(6, 6, 4, base.edges[:cut])
        size = exact_max_rainbow_matching(g).size
        assert size >= prev
        prev = size


def test_oracle_budget_returns_flagged_best():
    g = generate_instance("random", 6, 6, False, seed=5, left_size=8, right_size=8)
    res = exact_max_rainbow_matching(g, budget=SearchBudget(node_limit=3))
    assert not res.optimal
    assert res.stop == "node_limit"
    assert res.nodes >= 3


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"time_limit": float("nan")}, "time_limit must be positive, got nan"),
        ({"time_limit": 0}, "time_limit must be positive, got 0"),
        ({"time_limit": -float("inf")}, "time_limit must be positive, got -inf"),
        ({"node_limit": 0}, "node_limit must be positive, got 0"),
    ],
)
def test_budget_names_a_field_that_would_not_bound_a_search(fields, message):
    with pytest.raises(ValueError) as info:
        SearchBudget(**fields)
    assert str(info.value) == message


def test_an_infinite_time_limit_is_explicit_and_allowed():
    res = exact_max_rainbow_matching(CYCLIC_3, budget=SearchBudget(time_limit=float("inf")))
    assert res.optimal and res.size == 3


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_forward_check_bit_test_matches_a_per_class_loop(data):
    # width-1 classes included: the 1,200-colour diagonal has only those
    widths = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=12))
    class_mask, tops, rest = _class_layout(widths)
    i = data.draw(st.integers(0, len(widths)))
    live, first = 0, sum(widths[:i])
    for width in widths[i:]:  # bits only in classes >= i, as in the search
        live |= data.draw(st.integers(0, (1 << width) - 1)) << first
        first += width
    verdict = (((live & rest) + rest) | live) & tops[i] == tops[i]
    assert verdict == all(live & m for m in class_mask[i:])


def test_oracle_agrees_with_backtracker_all_order4_squares():
    count = 0
    for grid in enumerate_latin_squares(4):
        rect = LatinRectangle(4, 4, grid, ("0", "1", "2", "3"))
        g = square_to_graph(rect)
        assert exact_max_rainbow_matching(g).size == max_partial_transversal(grid)
        count += 1
    assert count == 576


# --- rainbow path enumeration -------------------------------------------------


def test_enumerate_empty_path_when_endpoints_equal():
    D = complete_biorientation(3)
    paths = tuple(iter_rainbow_paths(D, 1, target=1, max_len=2))
    assert paths == ((),)


def test_enumerate_forbidden_colour_blocks_edge():
    D = LabelledDigraph(2, [(0, 1, 7)])
    assert tuple(iter_rainbow_paths(D, 0, target=1, max_len=3, forbidden=frozenset({7}))) == ()


def test_enumerate_counterexample_path_count():
    D = build_counterexample(1, 4)
    paths = tuple(iter_rainbow_paths(D, 0, target=4, max_len=4))
    nonempty = [p for p in paths if p]
    assert len(nonempty) == 5


def test_enumerate_lexicographic_and_deterministic():
    D = LabelledDigraph(4, [(0, 1, 5), (0, 2, 6), (1, 3, 7), (2, 3, 8), (0, 3, 9)])
    paths = tuple(iter_rainbow_paths(D, 0, target=3, max_len=3))
    seqs = [tuple(a.head for a in p) for p in paths]
    assert seqs == [(1, 3), (2, 3), (3,)]


# --- rainbow k-edge-connectivity ----------------------------------------------


def test_rainbow_connected_complete_digraph_k1():
    D = complete_biorientation(4)
    assert is_rainbow_k_edge_connected(D, 1).connected


def test_single_edge_not_2_connected():
    D = LabelledDigraph(2, [(0, 1, 3)])
    verdict = is_rainbow_k_edge_connected(D, 2, pairs=[(0, 1)])
    assert not verdict.connected


def test_counterexample_is_2_connected_between_endpoints():
    D = build_counterexample(1, 4)
    verdict = is_rainbow_k_edge_connected(D, 2, pairs=[(0, 4)])
    assert verdict.connected
    assert verdict.mode == "exhaustive"


def test_path_exists_iff_1_connected_pairwise():
    D = LabelledDigraph(3, [(0, 1, 4), (1, 2, 5), (2, 0, 6)])
    for u in range(3):
        for v in range(3):
            paths = tuple(iter_rainbow_paths(D, u, target=v, max_len=2))
            verdict = is_rainbow_k_edge_connected(D, 1, pairs=[(u, v)])
            assert bool(paths) == verdict.connected


# --- (k, d)-connectivity -------------------------------------------------------


def test_kd_bipartite_class_is_connected():
    # complete biorientation of K_{a,b}: the X class is (b, 2)-connected
    a, b = 3, 2
    arcs = []
    lbl = 100
    for x in range(a):
        for y in range(b):
            arcs.append((x, a + y, lbl))
            arcs.append((a + y, x, lbl + 1))
            lbl += 2
    D = LabelledDigraph(a + b, arcs, vertex_labels=tuple(range(a + b)))
    verdict = is_kd_connected(D, range(a), k=b, d=2, mode="uncoloured")
    assert verdict.connected
    assert verdict.mode == "exhaustive"
    # one more removal than |Y| disconnects (all midpoints gone)
    verdict2 = is_kd_connected(D, range(a), k=b + 1, d=2, mode="uncoloured")
    assert not verdict2.connected


def test_kd_singleton_vacuous():
    D = LabelledDigraph(3, [])
    verdict = is_kd_connected(D, [1], k=5, d=1, mode="uncoloured")
    assert verdict.connected
    assert verdict.mode == "vacuous"


def test_kd_directed_path_middle_vertex_cut():
    D = LabelledDigraph(3, [(0, 1, 5), (1, 2, 6)])
    verdict = is_kd_connected(D, [0, 2], k=2, d=2, mode="uncoloured")
    assert not verdict.connected


def test_kd_coloured_modes_on_rainbow_complete():
    D = complete_biorientation(5)
    for mode in ("edge", "vertex", "total"):
        assert is_kd_connected(D, range(5), k=2, d=2, mode=mode).connected


@pytest.mark.parametrize("mode", ["uncoloured", "edge", "vertex", "total"])
@pytest.mark.parametrize("A, outside", [([-1, 0], -1), ([0, 8], 8)], ids=["below", "above"])
def test_kd_refuses_a_vertex_outside_the_digraph(mode, A, outside):
    # a BFS from -1 would read vertex 7's out-arcs; every mode raises alike
    D = generate_proper_digraph(8, 3, 0)
    message = f"^vertex {outside} is not among the digraph's 8 vertices$"
    with pytest.raises(ValueError, match=message):
        is_kd_connected(D, A, 1, 3, mode=mode)
    with pytest.raises(ValueError, match=message):
        is_kd_connected(D, [outside], 1, 3, mode=mode)


@pytest.mark.parametrize("k", [0, -1])
def test_connectivity_predicates_refuse_k_below_one(k):
    # vertex 2 is unreachable, so no k could make this digraph connected
    D = LabelledDigraph(3, [(0, 1, "a")])
    with pytest.raises(ValueError, match=f"^k must be at least 1, got {k}$"):
        is_kd_connected(D, [0, 1, 2], k, 2)
    for mode in ("edge", "vertex", "total"):
        with pytest.raises(ValueError, match=f"^k must be at least 1, got {k}$"):
            is_kd_connected(D, [0, 1, 2], k, 2, mode=mode)
    with pytest.raises(ValueError, match=f"^k must be at least 1, got {k}$"):
        is_rainbow_k_edge_connected(D, k)
    assert not is_kd_connected(D, [0, 1, 2], 1, 2).connected
