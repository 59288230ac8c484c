import pytest

from rainbowmatch.budget import SearchBudget
from rainbowmatch.core import (
    ColouredBipartiteMultigraph,
    Edge,
    MatchingContext,
    RainbowMatching,
    verify_rainbow_matching,
)
from rainbowmatch.errors import ContextInvalid
from rainbowmatch.gen import generate_instance, random_latin_square
from rainbowmatch.golden import (
    PHI,
    build_colour_digraph,
    check_uncovered_edge_bound,
    golden_solve,
)
from rainbowmatch.latin import parse_latin, square_to_graph
from rainbowmatch.oracle import exact_max_rainbow_matching

from helpers import deficient_suite, golden_suite, missing_colour

LATIN_2x2 = square_to_graph(parse_latin("1 2\n2 1"))


def test_phi_identity():
    assert abs(PHI**2 - PHI - 1) < 1e-12


def test_colour_digraph_rejects_empty_matching():
    with pytest.raises(ContextInvalid):
        build_colour_digraph(MatchingContext(LATIN_2x2, RainbowMatching()))


def test_colour_digraph_two_colour_example():
    g = ColouredBipartiteMultigraph(2, 1, 2, [(0, 0, 1), (1, 0, 0)])
    ctx = MatchingContext(g, RainbowMatching((Edge(0, 0, 1),)))
    D = build_colour_digraph(ctx)
    assert len(D.arcs) == 1
    arc = D.arcs[0]
    assert (arc.tail, arc.head) == (0, 1)
    assert arc.label == ("x", 1)


def test_colour_digraph_uses_both_free_sides():
    # one reroute through a free X-vertex, one through a free Y-vertex
    g = ColouredBipartiteMultigraph(
        2, 2, 2, [(0, 0, 1), (1, 0, 0), (0, 1, 0)]
    )
    ctx = MatchingContext(g, RainbowMatching((Edge(0, 0, 1),)))
    D = build_colour_digraph(ctx)
    labels = sorted(a.label for a in D.arcs)
    assert labels == [("x", 1), ("y", 1)]


def test_colour_digraph_out_proper_on_seeded_instances():
    checked = 0
    for i in range(100):
        n = 2 + (i % 6)
        g = generate_instance(
            "random", n, n + 1, True, seed=8800 + i, left_size=n + 2, right_size=n + 2
        )
        res = exact_max_rainbow_matching(g)
        m = res.matching
        if m.size == g.colour_count:
            m = RainbowMatching(m.edges[:-1])
        ctx = MatchingContext(g, m)
        D = build_colour_digraph(ctx)
        for v in range(D.vertex_count):
            labels = [a.label for a in D.out_arcs(v)]
            assert len(labels) == len(set(labels))
        checked += 1
    assert checked == 100


def test_uncovered_bound_missing_colour_is_contradiction_probe():
    g = square_to_graph(parse_latin("1 2\n2 1"))
    res = exact_max_rainbow_matching(g)
    ctx = MatchingContext(g, res.matching)
    rep = check_uncovered_edge_bound(ctx, missing_colour(ctx))
    assert rep.hypothesis == "certified-maximum"
    assert rep.count == 0  # else the matching was not maximum
    assert rep.distance == 0
    assert rep.holds


def test_uncovered_bound_2x2():
    g = square_to_graph(parse_latin("1 2\n2 1"))
    res = exact_max_rainbow_matching(g)
    ctx = MatchingContext(g, res.matching)
    for c in range(2):
        rep = check_uncovered_edge_bound(ctx, c)
        assert rep.holds


def test_uncovered_bound_deficient_sample():
    # fuller sweep is acceptance 7
    count = 0
    for g in list(deficient_suite())[:12]:
        res = exact_max_rainbow_matching(g)
        ctx = MatchingContext(g, res.matching)
        for c in range(g.colour_count):
            rep = check_uncovered_edge_bound(ctx, c)
            assert rep.hypothesis == "certified-maximum"
            assert rep.holds
            count += 1
    assert count > 20


def test_uncovered_bound_tight_hand_built_instance():
    # chain instance with two uncovered-pair edges of the end colour:
    # reaching colour 2 from the missing colour takes a rainbow path of
    # length exactly 2, and exactly 2 colour-2 edges join the uncovered
    # sides, so the bound holds with equality
    g = ColouredBipartiteMultigraph(
        4,
        4,
        3,
        [(2, 0, 0), (0, 0, 1), (3, 1, 1), (1, 1, 2), (2, 2, 2), (3, 3, 2)],
    )
    m = RainbowMatching((Edge(0, 0, 1), Edge(1, 1, 2)))
    res = exact_max_rainbow_matching(g)
    assert res.size == 2  # certified maximum
    ctx = MatchingContext(g, m)
    rep = check_uncovered_edge_bound(ctx, 2)
    assert rep.hypothesis == "certified-maximum"
    assert rep.count == 2
    assert rep.distance == 2
    assert rep.holds
    # the remaining colours stay within their bounds too
    for c in (0, 1):
        assert check_uncovered_edge_bound(ctx, c, certify=False).holds


def test_uncovered_bound_not_maximum_flagged():
    g = square_to_graph(parse_latin("1 2 3\n2 3 1\n3 1 2"))
    m = RainbowMatching((Edge(0, 0, 0), Edge(1, 1, 2)))  # maximum is 3
    ctx = MatchingContext(g, m)
    rep = check_uncovered_edge_bound(ctx, 1)
    assert rep.hypothesis == "not-maximum"


def test_golden_n1():
    g = ColouredBipartiteMultigraph(2, 2, 1, [(0, 0, 0), (1, 1, 0)])
    m, oracle = golden_solve(g)
    assert m.size == 1
    assert oracle is None
    # no colour: the engine is full at once
    m, oracle = golden_solve(ColouredBipartiteMultigraph(2, 2, 0, []))
    assert m.size == 0
    assert oracle is None
    # the 2x2 square has no transversal: the oracle proves size 1
    m, oracle = golden_solve(LATIN_2x2)
    assert m.size == 1
    assert oracle is not None and oracle.optimal


def test_golden_cyclic3():
    g = square_to_graph(parse_latin("1 2 3\n2 3 1\n3 1 2"))
    m, _ = golden_solve(g)
    assert m.size == 3
    assert verify_rainbow_matching(g, m).ok


def test_golden_deficient_returns_maximum():
    g = square_to_graph(random_latin_square(4, seed=1))
    m, trace = golden_solve(g)
    assert m.size == 3 == exact_max_rainbow_matching(g).size
    assert verify_rainbow_matching(g, m).ok


def test_golden_suite_matches_oracle():
    # acceptance 7 runs the sized suite; sample here
    for n, g in list(golden_suite(10)):
        m, trace = golden_solve(g)
        assert verify_rainbow_matching(g, m).ok
        res = exact_max_rainbow_matching(g)
        if res.size == n:
            assert m.size == n


def test_golden_trace_records_shortfall_on_deficient():
    g = square_to_graph(random_latin_square(4, seed=7))
    m, oracle = golden_solve(g)
    assert m.size == 3
    assert oracle is not None and oracle.optimal
    assert oracle.matching == m


def test_golden_oracle_fallback_records_unproved_result():
    # an isotope of the order-6 cyclic square has no transversal; the engine
    # fits in 100 nodes, the oracle's proof does not
    g = square_to_graph(random_latin_square(6, seed=6))
    m, oracle = golden_solve(g, budget=SearchBudget(node_limit=100))
    assert m.size == 5
    assert oracle is not None and not oracle.optimal
    assert oracle.stop == "node_limit"
    m, oracle = golden_solve(g)
    assert m.size == 5
    assert oracle is not None and oracle.optimal
