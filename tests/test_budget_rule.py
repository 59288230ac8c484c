"""The budget rule: a function that takes a ``budget`` builds exactly one
``BudgetMeter`` per call, and every walk and probe below it ticks that
meter, so the budget bounds the whole call.  ``golden_solve`` is two
budgeted calls, the engine and then the oracle, each on the budget.
"""

from fractions import Fraction

import pytest

from rainbowmatch.budget import SearchBudget
from rainbowmatch.connectivity import (
    build_two_hop_digraph,
    find_kd_connected_set,
    low_expansion_ball,
    rainbow_ball_layers,
    rainbow_distance,
    rainbow_path_through,
)
from rainbowmatch.errors import BudgetExceeded
from rainbowmatch.gen import generate_instance, generate_proper_digraph
from rainbowmatch.golden import golden_solve
from rainbowmatch.menger import build_counterexample, rainbow_st_paths, verify_property_I
from rainbowmatch.oracle import (
    exact_max_rainbow_matching,
    is_kd_connected,
    is_rainbow_k_edge_connected,
)
from rainbowmatch.switching import solve_switching_engine

from helpers import complete_biorientation

# The order-6 cyclic square has no transversal: the engine stops at 5 after
# its pass-1 probes and its rotation search, and golden falls back to the
# oracle.
LATIN_6 = generate_instance("latin", 6, seed=6)
PROPER = generate_proper_digraph(12, 4, seed=0)
COMPLETE = complete_biorientation(6)
MENGER = build_counterexample(3, 8)

BUDGETED_CALLS = {
    "solve_switching_engine": lambda: solve_switching_engine(LATIN_6),
    "exact_max_rainbow_matching": lambda: exact_max_rainbow_matching(LATIN_6),
    "rainbow_distance": lambda: rainbow_distance(PROPER, 0, 5, cap=4),
    "rainbow_ball_layers": lambda: rainbow_ball_layers(PROPER, 0, cap=3),
    "low_expansion_ball": lambda: low_expansion_ball(PROPER, 0, Fraction(1, 2)),
    "build_two_hop_digraph": lambda: build_two_hop_digraph(PROPER, 1),
    "find_kd_connected_set": lambda: find_kd_connected_set(COMPLETE, 2, Fraction(1, 2)),
    "rainbow_path_through": lambda: rainbow_path_through(COMPLETE, range(6), [0, 2, 4], (), 2),
    "is_kd_connected": lambda: is_kd_connected(COMPLETE, range(6), 2, 2),
    "is_rainbow_k_edge_connected": lambda: is_rainbow_k_edge_connected(COMPLETE, 2),
    "rainbow_st_paths": lambda: rainbow_st_paths(MENGER, 0, 8),
    "verify_property_I": lambda: verify_property_I(MENGER, 0, 8, 3),
}


@pytest.mark.parametrize("name", sorted(BUDGETED_CALLS))
def test_a_budgeted_call_builds_one_meter(meters_built, name):
    BUDGETED_CALLS[name]()
    assert meters_built == [1]


def test_golden_runs_the_engine_then_the_oracle_each_on_the_budget(meters_built):
    matching, oracle = golden_solve(LATIN_6)
    assert (matching.size, oracle.optimal) == (5, True)
    assert meters_built == [2]


def test_a_node_limit_bounds_the_whole_solve():
    # The solve's one meter: pass 1's probes spend 6 nodes, then the
    # rotation search's probes 72 more before it runs dry.
    m, trace = solve_switching_engine(LATIN_6, budget=SearchBudget(node_limit=78))
    assert (m.size, trace.stop) == (5, "stalled")
    with pytest.raises(BudgetExceeded, match=r"node limit exceeded \(77\)"):
        solve_switching_engine(LATIN_6, budget=SearchBudget(node_limit=77))


# The whole cost of one removal verdict: one node per tree node, plus the
# kernel's out-arcs in the coloured modes.
VERDICT_COSTS = {
    "is_kd_connected": (
        lambda budget: is_kd_connected(COMPLETE, range(6), 3, 2, mode="total", budget=budget),
        2607,
    ),
    "is_rainbow_k_edge_connected": (
        lambda budget: is_rainbow_k_edge_connected(COMPLETE, 2, budget=budget),
        1116,
    ),
    "verify_property_I": (lambda budget: verify_property_I(MENGER, 0, 8, 3, budget=budget), 2205),
}


@pytest.mark.parametrize("name", sorted(VERDICT_COSTS))
def test_a_node_limit_bounds_the_whole_verdict(name):
    call, cost = VERDICT_COSTS[name]
    assert call(SearchBudget(node_limit=cost))
    with pytest.raises(BudgetExceeded, match=rf"node limit exceeded \({cost - 1}\)"):
        call(SearchBudget(node_limit=cost - 1))
