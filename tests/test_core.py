import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch.core import (
    ColouredBipartiteMultigraph,
    Edge,
    MatchingContext,
    RainbowMatching,
    greedy_rainbow_matching,
    read_edge_list,
    verify_rainbow_matching,
    write_edge_list,
)
from rainbowmatch.errors import (
    DuplicateEdgeAcrossColours,
    DuplicateEndpointInColourClass,
    IdOutOfRange,
)
from rainbowmatch.gen import generate_instance
from rainbowmatch.latin import parse_latin, square_to_graph
from rainbowmatch.oracle import exact_max_rainbow_matching

from helpers import greedy_suite, restrict

LATIN_2x2 = square_to_graph(parse_latin("1 2\n2 1"))


def test_build_single_matching():
    g = ColouredBipartiteMultigraph(2, 2, 1, [(0, 0, 0), (1, 1, 0)])
    assert len(g.edges) == 2
    assert g.colour_classes[0] == (Edge(0, 0, 0), Edge(1, 1, 0))


def test_build_rejects_shared_endpoint():
    with pytest.raises(DuplicateEndpointInColourClass):
        ColouredBipartiteMultigraph(2, 2, 1, [(0, 0, 0), (0, 1, 0)])


def test_build_rejects_duplicate_pair_when_edge_disjoint():
    with pytest.raises(DuplicateEdgeAcrossColours):
        ColouredBipartiteMultigraph(2, 2, 2, [(0, 0, 0), (0, 0, 1)], edge_disjoint=True)
    # and allows it as a multigraph
    g = ColouredBipartiteMultigraph(2, 2, 2, [(0, 0, 0), (0, 0, 1)])
    assert len(g.edges) == 2


def test_build_rejects_out_of_range():
    with pytest.raises(IdOutOfRange):
        ColouredBipartiteMultigraph(2, 2, 1, [(2, 0, 0)])
    with pytest.raises(IdOutOfRange):
        ColouredBipartiteMultigraph(2, 2, 1, [(0, 0, 1)])


def test_latin_2x2_graph_is_valid_and_edge_disjoint():
    assert LATIN_2x2.colour_count == 2
    assert LATIN_2x2.edge_disjoint
    assert len(LATIN_2x2.edges) == 4


def test_verify_empty_matching():
    assert verify_rainbow_matching(LATIN_2x2, RainbowMatching()).ok


def test_verify_shared_y():
    g = ColouredBipartiteMultigraph(2, 1, 2, [(0, 0, 0), (1, 0, 1)])
    verdict = verify_rainbow_matching(
        g, RainbowMatching((Edge(0, 0, 0), Edge(1, 0, 1)))
    )
    assert not verdict.ok
    assert "Y-endpoint" in verdict.reason


def test_verify_takes_plain_tuples():
    g = read_edge_list("3 3 3\n0 0 0\n1 1 0\n1 2 1\n0 1 1\n2 1 2\n1 0 2\n")
    assert verify_rainbow_matching(g, [(0, 0, 0), (1, 2, 1), (2, 1, 2)]) == (True, None)
    faults = {
        "edge (0, 2, 0) not in host graph": [(1, 1, 0), (0, 2, 0)],
        "shared X-endpoint 1": [(1, 1, 0), (1, 2, 1)],
        "shared Y-endpoint 1": [(1, 1, 0), (0, 1, 1)],
        "repeated colour 0": [(0, 0, 0), (1, 1, 0)],
    }
    for reason, matching in faults.items():
        assert verify_rainbow_matching(g, matching) == (False, reason)


def test_build_keeps_or_converts_edges():
    rows = [(0, 0, 0), (1, 1, 0), (0, 1, 1)]
    edges = tuple(Edge(*r) for r in rows)
    forms = [edges, list(edges), rows, [list(r) for r in rows], iter(rows), [edges[0], *rows[1:]]]
    for form in forms:
        g = ColouredBipartiteMultigraph(2, 2, 2, form)
        assert g.edges == edges
        assert all(type(e) is Edge for e in g.edges)
        assert g.colour_classes == ((edges[0], edges[1]), (edges[2],))
    assert ColouredBipartiteMultigraph(2, 2, 2, edges).edges is edges  # already Edges: kept as is


def test_verify_on_2x2_latin_pairs():
    # exhaustive over all edge pairs: no pair is a rainbow matching of size 2
    edges = LATIN_2x2.edges
    for i in range(4):
        for j in range(i + 1, 4):
            assert not verify_rainbow_matching(
                LATIN_2x2, RainbowMatching((edges[i], edges[j]))
            ).ok
    assert verify_rainbow_matching(LATIN_2x2, RainbowMatching((edges[0],))).ok


def test_greedy_single_class():
    g = ColouredBipartiteMultigraph(3, 3, 1, [(0, 0, 0), (1, 1, 0)])
    assert greedy_rainbow_matching(g).size == 1


def test_greedy_two_disjoint_classes_of_four():
    edges = [(x, x, 0) for x in range(4)] + [(x, (x + 1) % 4, 1) for x in range(4)]
    g = ColouredBipartiteMultigraph(4, 4, 2, edges)
    m = greedy_rainbow_matching(g)
    assert m.size == 2
    assert verify_rainbow_matching(g, m).ok


def test_greedy_on_2x2_latin_matches_maximum():
    m = greedy_rainbow_matching(LATIN_2x2)
    assert m.size == 1
    assert exact_max_rainbow_matching(LATIN_2x2).size == 1


def test_greedy_is_deterministic():
    g = generate_instance("random", 5, 6, False, seed=7, left_size=8, right_size=8)
    assert greedy_rainbow_matching(g) == greedy_rainbow_matching(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_greedy_always_valid_and_below_oracle(seed):
    n = 2 + seed % 5
    g = generate_instance(
        "random", n, n, False, seed=seed, left_size=n + 1, right_size=n + 1
    )
    m = greedy_rainbow_matching(g)
    assert verify_rainbow_matching(g, m).ok
    assert m.size <= exact_max_rainbow_matching(g).size


def test_greedy_guarantee_on_double_classes():
    # spot check the 2n-edge guarantee; the full 500-instance run is acceptance 2
    for g in list(greedy_suite(25)):
        assert greedy_rainbow_matching(g).size == g.colour_count


def test_context_accessors_and_round_trip():
    g = generate_instance("random", 4, 5, True, seed=11, left_size=6, right_size=6)
    m = greedy_rainbow_matching(g)
    ctx = MatchingContext(g, m)
    assert sorted(ctx.edge_of_colour) == sorted(m.colours())
    # identities: x0/y0 are exactly the uncovered vertices
    xs, ys = {e.x for e in m}, {e.y for e in m}
    assert set(ctx.x0) == set(range(6)) - xs
    assert set(ctx.y0) == set(range(6)) - ys
    # uncovered vertices are not keys of the maps
    assert set(ctx.edge_of_x) == xs
    assert set(ctx.edge_of_y) == ys


def test_restrict_preserves_vertices_and_remaps_colours():
    g = generate_instance("random", 4, 4, False, seed=3, left_size=5, right_size=5)
    sub, cmap = restrict(g, colours=[1, 3])
    assert sub.colour_count == 2
    assert cmap == (1, 3)
    assert sub.left_size == g.left_size
    for e in sub.edges:
        assert Edge(e.x, e.y, cmap[e.c]) in g.edges


def test_edge_list_round_trip():
    g = generate_instance("random", 3, 3, True, seed=2, left_size=4, right_size=4)
    text = write_edge_list(g)
    again = read_edge_list(text)
    assert again == g
    assert write_edge_list(again) == text  # bit-exact


def test_edge_list_comments_and_errors():
    g = read_edge_list("# header comment\n2 2 1\n0 0 0  # an edge\n1 1 0\n")
    assert len(g.edges) == 2
    with pytest.raises(ValueError):
        read_edge_list("2 2\n0 0 0\n")
    with pytest.raises(ValueError):
        read_edge_list("")


def test_degenerate_inputs_are_valid():
    g = ColouredBipartiteMultigraph(0, 0, 0, [])
    assert greedy_rainbow_matching(g).size == 0
    g2 = ColouredBipartiteMultigraph(3, 3, 2, [(0, 0, 1)])  # colour 0 empty
    assert greedy_rainbow_matching(g2).size == 1
