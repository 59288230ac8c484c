from fractions import Fraction

import pytest

from rainbowmatch.budget import SearchBudget
from rainbowmatch.digraph import LabelledDigraph
from rainbowmatch.errors import BudgetExceeded, ParameterViolation, PathBudgetExceeded
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
    assert {a.label for a in D.arcs} == {0, 1, 2, 3, 5}


def test_counterexample_boundary():
    with pytest.raises(ParameterViolation):
        build_counterexample(1, 3)
    with pytest.raises(ParameterViolation):
        build_counterexample(0, 5)


def test_counterexample_k2_m6_shape():
    D = build_counterexample(2, 6)
    assert len(D.arcs) == 18
    assert {a.label for a in D.arcs} == set(range(6)) | {7, 8}


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
    assert verify_property_II(rainbow_st_paths(build_counterexample(1, 4), 0, 4))
    assert verify_property_II(rainbow_st_paths(build_counterexample(2, 6), 0, 6))


def test_property_II_disjoint_paths_fail():
    # two colour-disjoint parallel routes
    D = LabelledDigraph(4, [(0, 1, 0), (1, 3, 1), (0, 2, 2), (2, 3, 3)])
    assert not verify_property_II(rainbow_st_paths(D, 0, 3))


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


def test_property_I_refuses_a_negative_k():
    with pytest.raises(ValueError, match=r"^k must be at least 0, got -1$"):
        verify_property_I(build_counterexample(1, 4), 0, 4, -1)


def test_paths_and_property_I_refuse_a_vertex_outside_the_digraph():
    from rainbowmatch.gen import generate_proper_digraph

    D = generate_proper_digraph(8, 3, 0)
    for u, v in [(9, 9), (-1, -1), (0, 9), (9, 0), (0, -1), (-1, 0)]:
        bad = u if not 0 <= u < 8 else v
        message = rf"^vertex {bad} is not among the digraph's 8 vertices$"
        with pytest.raises(ValueError, match=message):
            rainbow_st_paths(D, u, v)
        with pytest.raises(ValueError, match=message):
            verify_property_I(D, u, v, 1)
    # an in-range u == v keeps its answers
    assert rainbow_st_paths(D, 3, 3) == ()
    assert verify_property_I(D, 3, 3, 1) is False


def test_property_I_stops_at_the_first_path_per_set():
    # One meter counts the whole check: the removal search's 165 tree nodes
    # and their first paths take 2,205 nodes together, while enumerating
    # every path of one set takes up to 1,560, so a check that passes on
    # 2,205 stops each node at its first path.
    D = build_counterexample(3, 8)
    assert verify_property_I(D, 0, 8, 3, budget=SearchBudget(node_limit=2205))
    with pytest.raises(BudgetExceeded):
        verify_property_I(D, 0, 8, 3, budget=SearchBudget(node_limit=2204))


def test_subdivision_preserves_counts_and_properties():
    D = build_counterexample(1, 4)
    S = subdivide_to_simple(D)
    # simple: no parallel arcs
    pairs = [(a.tail, a.head) for a in S.arcs]
    assert len(pairs) == len(set(pairs))
    assert len(rainbow_st_paths(S, 0, 4)) == 5
    assert verify_property_I(S, 0, 4, 1)
    assert verify_property_II(rainbow_st_paths(S, 0, 4))


def test_lp_no_path():
    D = LabelledDigraph(3, [(0, 1, 0)])
    lp = fractional_menger(rainbow_st_paths(D, 0, 2))
    assert lp.primal_value == 0 and lp.dual_value == 0


def test_lp_single_edge():
    D = LabelledDigraph(2, [(0, 1, 7)])
    lp = fractional_menger(rainbow_st_paths(D, 0, 1))
    assert lp.primal_value == 1 and lp.dual_value == 1
    assert lp.exact


def test_lp_counterexample_value_and_cross_check():
    D = build_counterexample(1, 4)
    lp = fractional_menger(rainbow_st_paths(D, 0, 4))
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
        lp = fractional_menger(rainbow_st_paths(D, 0, m))
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
    lp = fractional_menger(rainbow_st_paths(D, 0, 6))
    assert lp.exact
    assert lp.primal_value == lp.dual_value


def test_lp_float_mode_beyond_64_paths():
    D = build_counterexample(2, 8)  # 1 + 16 + 56 = 73 paths
    lp = fractional_menger(rainbow_st_paths(D, 0, 8))
    assert not lp.exact
    assert lp.duality_gap <= 1e-9


def test_lp_float_report_is_the_rounded_exact_optimum():
    # every k <= 3 and 2k+2 <= m <= 10 beyond 64 paths, as `menger --lp` runs them
    from rainbowmatch.menger import EXACT_PATH_LIMIT

    beyond = 0
    for k in (1, 2, 3):
        for m in range(2 * k + 2, 11):
            paths = rainbow_st_paths(build_counterexample(k, m), 0, m)
            if len(paths) > EXACT_PATH_LIMIT:
                lp = fractional_menger(paths)
                assert not lp.exact and type(lp.primal_value) is float
                assert lp.primal_value == lp.dual_value == float(Fraction(m + k, m)), (k, m)
                assert lp.duality_gap == 0.0
                beyond += 1
    assert beyond == 6  # k = 2 and k = 3, each with m = 8, 9, 10


@pytest.mark.parametrize(
    "x, y, message",
    [
        ([-1, 0, 0, 0, 0], [Fraction(1, 4)] * 5,
         "primal infeasible: negative weight on colour set [0, 1, 2, 3]"),
        ([0, 0, 0, 1, 1], [1] * 5, "primal infeasible at colour 2"),
        ([Fraction(1, 4)] * 5, [-1, 1, 1, 1, 1], "dual infeasible: negative weight on colour 0"),
        ([Fraction(1, 4)] * 5, [1, 0, 0, 0, 0],
         "dual infeasible on the path colour set [1, 2, 3, 5]"),
        ([0] * 5, [1] * 5, "duality gap: primal value 0, dual value 5"),
    ],
)
def test_lp_verification_names_what_failed(monkeypatch, x, y, message):
    # a simplex returning a wrong solution must not pass the exact checks;
    # the (1, 4) LP has columns {0,1,2,3}, {0,1,2,5}, {0,1,3,5}, {0,2,3,5},
    # {1,2,3,5} and colours 0, 1, 2, 3, 5
    from rainbowmatch import menger
    from rainbowmatch.errors import LPNumericalFailure

    paths = rainbow_st_paths(build_counterexample(1, 4), 0, 4)
    fake = ([Fraction(v) for v in x], [Fraction(v) for v in y], None)
    monkeypatch.setattr(menger, "_simplex_max", lambda columns, b, c: fake)
    with pytest.raises(LPNumericalFailure) as failure:
        fractional_menger(paths)
    assert str(failure.value) == message


def test_simplex_names_an_unbounded_column_and_the_pivot_limit(monkeypatch):
    from rainbowmatch import menger
    from rainbowmatch.errors import LPNumericalFailure

    # column 1 is in no row: nothing bounds its variable
    with pytest.raises(LPNumericalFailure, match=r"^LP unbounded in column 1;"):
        menger._simplex_max(_columns([[1, 0]]), [1], [1, 1])
    _, A, b, c = _menger_lp(1, 4)
    monkeypatch.setattr(menger, "_MAX_PIVOTS", 1)
    with pytest.raises(LPNumericalFailure, match=r"^pivot limit 1 reached"):
        menger._simplex_max(_columns(A), b, c)


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
        x, y, value = _simplex_max(_columns(A), b, c)
        assert value == lp_max_by_vertex_enumeration(A, b, c)
        # returned dual must certify the same value
        assert sum(y) == value
        for j in range(n):
            assert sum(A[i][j] * y[i] for i in range(m)) >= c[j]


def test_weak_duality_on_feasible_pairs():
    # any feasible primal value is at most any feasible dual value
    D = build_counterexample(1, 5)
    lp = fractional_menger(rainbow_st_paths(D, 0, 5))
    n_paths = len(lp.paths)
    uniform_primal = [Fraction(1, n_paths)] * n_paths  # feasible: loads <= 1
    colour_sets = [frozenset(a.label for a in p) for p in lp.paths]
    for c in lp.colours:
        assert sum(x for x, cs in zip(uniform_primal, colour_sets) if c in cs) <= 1
    uniform_dual = {c: Fraction(1) for c in lp.colours}  # feasible: covers >= 1
    assert sum(uniform_primal) <= sum(uniform_dual.values())
    assert sum(uniform_primal) <= lp.dual_value
    assert lp.primal_value <= sum(uniform_dual.values())


def _fraction_simplex(A, b, c, max_pivots=100000):
    """Reference: a plain ``Fraction`` tableau under ``_simplex_max``'s rule.
    The most negative reduced cost enters (lowest index on ties), and the
    row with the lexicographic least (rhs, slack columns) / pivot entry
    leaves."""
    m, n = len(A), len(c)
    rhs = n + m
    zero, one = Fraction(0), Fraction(1)
    T = [
        [Fraction(v) for v in A[i]] + [one if j == i else zero for j in range(m)] + [Fraction(b[i])]
        for i in range(m)
    ]
    T.append([-Fraction(ci) for ci in c] + [zero] * m + [zero])
    basis = [n + i for i in range(m)]
    for _ in range(max_pivots):
        obj = T[m]
        col = min(range(rhs), key=obj.__getitem__)
        if obj[col] >= 0:
            break
        rows = [i for i in range(m) if T[i][col] > 0]
        assert rows, "unbounded"
        pivot_row = min(rows, key=lambda i: [T[i][j] / T[i][col] for j in [rhs, *range(n, rhs)]])
        piv = T[pivot_row][col]
        T[pivot_row] = [t / piv for t in T[pivot_row]]
        for i in range(m + 1):
            if i != pivot_row and T[i][col] != zero:
                factor = T[i][col]
                T[i] = [t - factor * p for t, p in zip(T[i], T[pivot_row])]
        basis[pivot_row] = col
    else:
        raise AssertionError("pivot limit")
    x = [zero] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = T[i][rhs]
    return x, [T[m][n + i] for i in range(m)], T[m][rhs]


def _columns(A):
    # the column form _simplex_max takes: per column, the rows where it has
    # a 1, an integer entry a > 1 written as its row repeated a times
    return [tuple(i for i, row in enumerate(A) for _ in range(int(row[j]))) for j in range(len(A[0]))]


def _menger_lp(k, m):
    # the LP that fractional_menger hands the simplex, as a dense A: one
    # column per distinct path colour set, by first occurrence
    paths = rainbow_st_paths(build_counterexample(k, m), 0, m)
    columns = list(dict.fromkeys(frozenset(a.label for a in p) for p in paths))
    colours = sorted(set().union(*columns))
    A = [[int(c in cs) for cs in columns] for c in colours]
    return len(paths), A, [1] * len(colours), [1] * len(columns)


def _random_01_lp(seed):
    from rainbowmatch.rng import SplitMix64

    rng = SplitMix64(seed)
    m = 1 + rng.below(8)
    n = 1 + rng.below(30)
    density = 2 + rng.below(3)  # one entry in 2, 3 or 4 is set
    A = [[int(rng.below(density) == 0) for _ in range(n)] for _ in range(m)]
    for j in range(n):  # a column in no row makes the LP unbounded
        if not any(A[i][j] for i in range(m)):
            A[rng.below(m)][j] = 1
    # unit capacities tie many ratios; a zero capacity forces degenerate pivots
    b = [rng.below(3) if seed % 2 else 1 for _ in range(m)]
    c = [1 + rng.below(2) if seed % 3 == 0 else 1 for _ in range(n)]
    return A, b, c


@pytest.mark.parametrize("seed", range(60))
def test_integer_pivots_match_the_fraction_tableau_on_random_lps(seed):
    from rainbowmatch.menger import _simplex_max

    A, b, c = _random_01_lp(seed)
    got = _simplex_max(_columns(A), b, c)
    # repr pins the Fraction type as well as the values
    assert repr(got) == repr(_fraction_simplex(A, b, c))


def test_integer_pivots_match_the_fraction_tableau_on_counterexamples():
    from rainbowmatch.menger import EXACT_PATH_LIMIT, _simplex_max

    # Every counterexample LP up to the 64-path boundary: k = 1 with
    # m = 4..63 and k = 2 with m = 6, 7; and beyond it (2, 8), (2, 10),
    # (3, 8) and (3, 9), the largest LP `menger --lp` runs in the benchmark's
    # toolbox workload.  The Fraction reference pivots a dense (m+1)-square
    # LP for k = 1 (1.6 s at m = 63, about 27 s over all m), so it runs on
    # m <= 24, on the 64-path boundary and on k >= 2; every case checks the
    # value (m+k)/m and the dual certificate.
    cases = [(1, m) for m in range(4, 64)] + [(2, 6), (2, 7), (2, 8), (2, 10), (3, 8), (3, 9)]
    for k, m in cases:
        n_paths, A, b, c = _menger_lp(k, m)
        x, y, value = got = _simplex_max(_columns(A), b, c)
        assert value == sum(y) == sum(x) == Fraction(m + k, m)
        assert all(sum(yi for yi, row in zip(y, A) if row[j]) >= 1 for j in range(len(c)))
        if k >= 2 or m <= 24 or m == 63:
            assert repr(got) == repr(_fraction_simplex(A, b, c)), (k, m)
    assert _menger_lp(1, 63)[0] == EXACT_PATH_LIMIT < _menger_lp(1, 64)[0]
    assert _menger_lp(2, 7)[0] <= EXACT_PATH_LIMIT < _menger_lp(2, 8)[0]


def test_integer_pivots_reject_non_integral_entries():
    from rainbowmatch.menger import _simplex_max

    with pytest.raises(ValueError, match=r"^exact simplex needs integral entries"):
        _simplex_max([(0,)], [Fraction(3, 2)], [1])
    with pytest.raises(ValueError, match=r"^exact simplex needs integral entries"):
        _simplex_max([(0,)], [1], [0.5])
    # a column names its rows by index: one outside range(len(b)), or one
    # that is not an int, is refused by the column's number
    for rows in [(1,), (-1,), (0, 0.5), (0, "0")]:
        with pytest.raises(ValueError, match=r"^column 1 names a row outside range\(1\)"):
            _simplex_max([(0,), rows], [1], [1, 1])
    # integral Fractions are accepted and give the same result as ints; the
    # entry 2 is its row twice
    assert _simplex_max([(0, 0)], [Fraction(3)], [Fraction(1)]) == (
        [Fraction(3, 2)],
        [Fraction(1, 2)],
        Fraction(3, 2),
    )


def _every_pair_shares_an_arc(D, u, v):
    sets = [frozenset(p) for p in rainbow_st_paths(D, u, v)]
    return all(a & b for i, a in enumerate(sets) for b in sets[i + 1 :])


def _random_multidigraph(seed):
    from rainbowmatch.rng import SplitMix64

    rng = SplitMix64(seed)
    n = 3 + rng.below(4)
    palette = 2 + rng.below(5)
    arcs = []
    for _ in range(n + rng.below(2 * n)):
        tail = rng.below(n - 1)
        head = tail + 1 + rng.below(min(2, n - 1 - tail))  # mostly forward hops
        arcs.append((tail, head, rng.below(palette)))
        if rng.below(4) == 0:  # a parallel arc, sometimes of the same colour
            arcs.append((tail, head, rng.below(palette)))
    return LabelledDigraph(n, arcs)


def test_property_II_against_pairwise_intersection():
    verdicts = []
    for seed in range(200):
        D = _random_multidigraph(seed)
        sink = D.vertex_count - 1
        expected = _every_pair_shares_an_arc(D, 0, sink)
        assert verify_property_II(rainbow_st_paths(D, 0, sink)) == expected, seed
        verdicts.append(expected)
        if seed % 10 == 0:
            S = subdivide_to_simple(D)
            assert verify_property_II(rainbow_st_paths(S, 0, sink)) == expected, seed
    assert 20 <= sum(verdicts) <= 180  # both verdicts occur often
    for k, m in [(1, 4), (1, 6), (2, 6), (2, 7)]:
        for D in (build_counterexample(k, m), subdivide_to_simple(build_counterexample(k, m))):
            paths = rainbow_st_paths(D, 0, m)
            assert verify_property_II(paths) is _every_pair_shares_an_arc(D, 0, m) is True
