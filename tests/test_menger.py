from fractions import Fraction

import pytest

from rainbowmatch.budget import SearchBudget
from rainbowmatch.digraph import LabelledDigraph
from rainbowmatch.errors import ParameterViolation, PathBudgetExceeded
from rainbowmatch.menger import (
    build_counterexample,
    fractional_menger,
    rainbow_st_paths,
    subdivide_to_simple,
    verify_property_I,
    verify_property_II,
)

from helpers import lp_max_by_vertex_enumeration


def test_counterexample_k1_m4_shape():
    D = build_counterexample(1, 4)
    assert D.vertex_count == 5
    assert len(D.arcs) == 8
    assert D.edge_labels() == {0, 1, 2, 3, 5}


def test_counterexample_boundary():
    with pytest.raises(ParameterViolation):
        build_counterexample(1, 3)
    with pytest.raises(ParameterViolation):
        build_counterexample(0, 5)


def test_counterexample_k2_m6_shape():
    D = build_counterexample(2, 6)
    assert len(D.arcs) == 18
    assert D.edge_labels() == set(range(6)) | {7, 8}


def test_colour_multiplicities():
    k, m = 2, 6
    D = build_counterexample(k, m)
    from collections import Counter

    counts = Counter(a.label for a in D.arcs)
    for i in range(m):
        assert counts[i] == 1
    for j in range(m + 1, m + k + 1):
        assert counts[j] == m


def test_property_I_counterexamples():
    assert verify_property_I(build_counterexample(1, 4), 0, 4, 1)
    assert verify_property_I(build_counterexample(2, 6), 0, 6, 2)


def test_property_I_single_edge_fails():
    D = LabelledDigraph(2, [(0, 1, 0)])
    assert not verify_property_I(D, 0, 1, 1)


def test_property_II_counterexamples():
    assert verify_property_II(build_counterexample(1, 4), 0, 4)
    assert verify_property_II(build_counterexample(2, 6), 0, 6)


def test_property_II_disjoint_paths_fail():
    # two colour-disjoint parallel routes
    D = LabelledDigraph(4, [(0, 1, 0), (1, 3, 1), (0, 2, 2), (2, 3, 3)])
    assert not verify_property_II(D, 0, 3)


def test_path_count_k1_m4():
    D = build_counterexample(1, 4)
    assert len(rainbow_st_paths(D, 0, 4)) == 5


def test_path_budget():
    D = build_counterexample(3, 9)
    with pytest.raises(PathBudgetExceeded):
        rainbow_st_paths(D, 0, 9, max_paths=10)


def test_path_cap_stops_the_search():
    # the 11th path is reached within 23 nodes; all 529 paths take 3,392
    D = build_counterexample(3, 8)
    with pytest.raises(PathBudgetExceeded):
        rainbow_st_paths(D, 0, 8, max_paths=10, budget=SearchBudget(node_limit=100))


def test_property_I_stops_at_the_first_path_per_set():
    # each 3-colour set's first path takes at most 14 nodes; enumerating
    # every path of some sets takes up to 1,560
    D = build_counterexample(3, 8)
    assert verify_property_I(D, 0, 8, 3, budget=SearchBudget(node_limit=100))


def test_subdivision_preserves_counts_and_properties():
    D = build_counterexample(1, 4)
    S = subdivide_to_simple(D)
    # simple: no parallel arcs
    pairs = [(a.tail, a.head) for a in S.arcs]
    assert len(pairs) == len(set(pairs))
    assert len(rainbow_st_paths(S, 0, 4)) == 5
    assert verify_property_I(S, 0, 4, 1)
    assert verify_property_II(S, 0, 4)


def test_lp_no_path():
    D = LabelledDigraph(3, [(0, 1, 0)])
    lp = fractional_menger(D, 0, 2)
    assert lp.primal_value == 0 and lp.dual_value == 0


def test_lp_single_edge():
    D = LabelledDigraph(2, [(0, 1, 7)])
    lp = fractional_menger(D, 0, 1)
    assert lp.primal_value == 1 and lp.dual_value == 1
    assert lp.exact


def test_lp_counterexample_value_and_cross_check():
    D = build_counterexample(1, 4)
    lp = fractional_menger(D, 0, 4)
    assert lp.exact
    assert lp.primal_value == lp.dual_value
    # frozen expected value, recomputed here by exhaustive rational vertex
    # enumeration of the 5-path LP
    colour_sets = [frozenset(a.label for a in p) for p in lp.paths]
    colours = sorted(set().union(*colour_sets))
    A = [[1 if c in cs else 0 for cs in colour_sets] for c in colours]
    b = [1] * len(colours)
    c_obj = [1] * len(lp.paths)
    assert lp_max_by_vertex_enumeration(A, b, c_obj) == Fraction(5, 4)
    assert lp.primal_value == Fraction(5, 4)


def test_lp_cross_check_small_counterexamples():
    # vertex enumeration scales as C(paths+colours, paths): tiny LPs only
    for k, m in [(1, 4), (1, 5), (1, 6)]:
        D = build_counterexample(k, m)
        lp = fractional_menger(D, 0, m)
        assert lp.exact and lp.duality_gap == 0
        colour_sets = [frozenset(a.label for a in p) for p in lp.paths]
        colours = sorted(set().union(*colour_sets))
        A = [[1 if c in cs else 0 for cs in colour_sets] for c in colours]
        expected = lp_max_by_vertex_enumeration(
            A, [1] * len(colours), [1] * len(lp.paths)
        )
        assert lp.primal_value == expected


def test_lp_exact_certificate_midsize():
    # 43 paths: exact rationals; equal feasible primal/dual certify optimality
    D = build_counterexample(2, 6)
    lp = fractional_menger(D, 0, 6)
    assert lp.exact
    assert lp.primal_value == lp.dual_value


def test_lp_float_mode_beyond_64_paths():
    D = build_counterexample(2, 8)  # 1 + 16 + 56 = 73 paths
    lp = fractional_menger(D, 0, 8)
    assert not lp.exact
    assert lp.duality_gap <= 1e-9


def test_simplex_against_vertex_oracle_random_incidences():
    # the simplex itself, on arbitrary small 0/1 capacity LPs
    from fractions import Fraction as F

    from rainbowmatch.menger import _simplex_max
    from rainbowmatch.rng import SplitMix64

    for seed in range(25):
        rng = SplitMix64(seed)
        m = 2 + rng.below(4)  # constraints
        n = 2 + rng.below(5)  # variables
        A = [[F(rng.below(2)) for _ in range(n)] for _ in range(m)]
        # every variable must appear in some row, else the LP is unbounded
        for j in range(n):
            if all(A[i][j] == 0 for i in range(m)):
                A[rng.below(m)][j] = F(1)
        b = [F(1)] * m
        c = [F(1)] * n
        x, y, value = _simplex_max(A, b, c, exact=True)
        assert value == lp_max_by_vertex_enumeration(A, b, c)
        # returned dual must certify the same value
        assert sum(y) == value
        for j in range(n):
            assert sum(A[i][j] * y[i] for i in range(m)) >= c[j]


def test_weak_duality_on_feasible_pairs():
    # any feasible primal value is at most any feasible dual value
    D = build_counterexample(1, 5)
    lp = fractional_menger(D, 0, 5)
    n_paths = len(lp.paths)
    uniform_primal = [Fraction(1, n_paths)] * n_paths  # feasible: loads <= 1
    colour_sets = [frozenset(a.label for a in p) for p in lp.paths]
    for c in lp.colours:
        assert sum(x for x, cs in zip(uniform_primal, colour_sets) if c in cs) <= 1
    uniform_dual = {c: Fraction(1) for c in lp.colours}  # feasible: covers >= 1
    assert sum(uniform_primal) <= sum(uniform_dual.values())
    assert sum(uniform_primal) <= lp.dual_value
    assert lp.primal_value <= sum(uniform_dual.values())
