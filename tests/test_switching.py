import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch import switching
from rainbowmatch.core import (
    ColouredBipartiteMultigraph,
    Edge,
    MatchingContext,
    RainbowMatching,
    greedy_rainbow_matching,
    read_edge_list,
    verify_rainbow_matching,
)
from rainbowmatch.digraph import (
    LabelledDigraph,
    check_proper_labelling,
    iter_rainbow_paths,
    iter_shortest_first,
)
from rainbowmatch.budget import SearchBudget
from rainbowmatch.errors import (
    BudgetExceeded,
    EmptyMatching,
    ExchangeNotApplicable,
    PreconditionViolated,
)
from rainbowmatch.gen import generate_instance
from rainbowmatch.latin import parse_latin, square_to_graph
from rainbowmatch.oracle import exact_max_rainbow_matching
from rainbowmatch.switching import (
    AugmentFailure,
    _Engine,
    Switching,
    apply_switching,
    augment,
    build_switch_digraph,
    solve_switching_engine,
)

from helpers import (
    clashing_label_digraphs,
    colour_path_to_switching,
    deficient_suite,
    missing_colour,
    reference_proper_labelling,
    relabel_matching,
    restrict,
    switching_suite,
    tight_text,
    validate_switching,
)

LATIN_2x2 = square_to_graph(parse_latin("1 2\n2 1"))


def _ctx_one_missing(graph, matching=None):
    if matching is None:
        res = exact_max_rainbow_matching(graph)
        matching = res.matching
        if matching.size == graph.colour_count:
            matching = RainbowMatching(matching.edges[:-1])
    return MatchingContext(graph, matching)


# A 3-colour instance whose only augmentation needs a length-2 switching:
# M = {(0,0,c1), (1,1,c2)} misses c0; the free X-vertices reroute c1 and c2
# before the final colour-2 edge lands on the uncovered pair (4, 2).
DEPTH2 = ColouredBipartiteMultigraph(
    5,
    3,
    3,
    [(2, 0, 0), (0, 0, 1), (3, 1, 1), (1, 1, 2), (4, 2, 2)],
)
DEPTH2_M = RainbowMatching((Edge(0, 0, 1), Edge(1, 1, 2)))


def test_switch_digraph_empty_xprime_is_edgeless():
    ctx = _ctx_one_missing(LATIN_2x2)
    D = build_switch_digraph(ctx, ())
    assert D.arcs == ()
    assert D.vertex_count == 2


def test_switch_digraph_2x2_example():
    ctx = MatchingContext(LATIN_2x2, RainbowMatching((Edge(0, 0, 0),)))
    D = build_switch_digraph(ctx, ctx.x0)
    assert ctx.x0 == frozenset({1})
    assert len(D.arcs) == 1
    arc = D.arcs[0]
    assert (arc.tail, arc.head, arc.label) == (1, 0, 1)
    assert D.vertex_labels == (0, "*")


def test_switch_digraph_rejects_bad_contexts():
    ctx = MatchingContext(LATIN_2x2, RainbowMatching())
    with pytest.raises(EmptyMatching):
        build_switch_digraph(ctx, ())
    # Two colours missing: each is labelled "*" and has out-arcs, no in-arcs.
    g = square_to_graph(parse_latin("1 2 3\n2 3 1\n3 1 2"))
    ctx2 = MatchingContext(g, RainbowMatching((Edge(0, 0, 0),)))
    D = build_switch_digraph(ctx2, ctx2.x0)
    assert D.vertex_labels == (0, "*", "*")
    assert [tuple(a) for a in D.arcs] == [(1, 0, 1), (2, 0, 2)]
    assert D.arcs_into(1) == D.arcs_into(2) == {}


def test_built_digraphs_always_properly_labelled():
    checked = 0
    for i in range(100):
        n = 2 + (i % 6)
        g = generate_instance(
            "random", n, n + 1, True, seed=4000 + i, left_size=n + 2, right_size=n + 2
        )
        ctx = _ctx_one_missing(g)
        if ctx.matching.size == 0:
            continue
        D = build_switch_digraph(ctx, ctx.x0)
        assert check_proper_labelling(D).ok
        checked += 1
    assert checked >= 90


def test_check_proper_labelling_violations():
    ok = LabelledDigraph(2, [], vertex_labels=(5, 6))
    assert check_proper_labelling(ok).ok
    dup_out = LabelledDigraph(3, [(0, 1, 9), (0, 2, 9)], vertex_labels=(5, 6, 7))
    verdict = check_proper_labelling(dup_out)
    assert not verdict.ok and "out-arcs" in verdict.reason
    dup_vertex = LabelledDigraph(2, [], vertex_labels=(5, 5))
    assert not check_proper_labelling(dup_vertex).ok


def test_check_proper_labelling_names_the_first_failure_in_arc_order():
    # Per head, the in-arc repeat named is the first one in D.arcs order;
    # reading the in-arcs tail by tail names another label on some of these.
    reasons = set()
    for D in clashing_label_digraphs(4000):
        expected = reference_proper_labelling(D)
        assert check_proper_labelling(D) == (expected is None, expected), D.arcs
        words = expected.split() if expected else ["proper"]
        reasons.add(words[1] if words[0] == "two" else words[0])
    assert reasons == {"proper", "vertices", "out-arcs", "in-arcs", "vertex"}


def test_path_to_switching_length1():
    ctx = MatchingContext(LATIN_2x2, RainbowMatching((Edge(0, 0, 0),)))
    sigma = colour_path_to_switching(ctx, build_switch_digraph(ctx, ctx.x0), [1, 0])
    assert len(sigma.matched_edges) == 1
    assert sigma.free_edges == (Edge(1, 0, 1),)
    assert sigma.matched_edges == (Edge(0, 0, 0),)
    assert validate_switching(ctx, ctx.x0, sigma).ok


def test_all_short_paths_give_valid_switchings():
    # every rainbow path of length <= 3 on 50 seeded instances converts cleanly
    total = 0
    for i in range(50):
        n = 2 + (i % 6)
        g = generate_instance(
            "random", n, n + 1, True, seed=6000 + i, left_size=n + 2, right_size=n + 2
        )
        ctx = _ctx_one_missing(g)
        if ctx.matching.size == 0:
            continue
        D = build_switch_digraph(ctx, ctx.x0)
        for path in iter_rainbow_paths(
            D, missing_colour(ctx), target=None, max_len=3, mode="total"
        ):
            if not path:
                continue
            verts = [path[0].tail] + [a.head for a in path]
            sigma = colour_path_to_switching(ctx, D, verts)
            verdict = validate_switching(ctx, ctx.x0, sigma)
            assert verdict.ok, verdict.reason
            total += 1
    assert total > 100


def test_length4_switching_full_exchange():
    # seeded witness: a rainbow colour path of length 4 exists in the
    # uncovered-side switch digraph; the switching exchanges 4 edge pairs
    g = generate_instance(
        "random", 6, 7, True, seed=0, left_size=11, right_size=8
    )
    m, _ = solve_switching_engine(g)
    if m.size == g.colour_count:
        m = RainbowMatching(m.edges[:-1])
    missing = sorted(set(range(g.colour_count)) - m.colours())
    sub, cmap = restrict(g, colours=sorted(m.colours() | {missing[0]}))
    inv = {old: new for new, old in enumerate(cmap)}
    ctx = MatchingContext(
        sub, RainbowMatching(tuple(Edge(e.x, e.y, inv[e.c]) for e in m.edges))
    )
    D = build_switch_digraph(ctx, ctx.x0)
    long_path = next(
        p
        for p in iter_rainbow_paths(
            D, missing_colour(ctx), target=None, max_len=4, mode="total"
        )
        if len(p) == 4
    )
    verts = [long_path[0].tail] + [a.head for a in long_path]
    sigma = colour_path_to_switching(ctx, D, verts)
    assert len(sigma.free_edges) == 4 and len(sigma.matched_edges) == 4
    assert validate_switching(ctx, ctx.x0, sigma).ok
    out = apply_switching(ctx, sigma)
    assert out.size == ctx.matching.size
    assert {e.y for e in out} == {e.y for e in ctx.matching}
    assert verify_rainbow_matching(sub, out).ok


def test_validate_switching_clause_i():
    ctx = MatchingContext(DEPTH2, DEPTH2_M)
    sigma = Switching((Edge(0, 0, 1),), (Edge(0, 0, 1),))  # e_0 in M
    verdict = validate_switching(ctx, ctx.x0, sigma)
    assert not verdict.ok and verdict.reason.startswith("(i)")


def test_validate_switching_clause_iv_shared_x():
    # hand-built: two free edges out of the same X-vertex
    g = ColouredBipartiteMultigraph(
        4,
        3,
        3,
        [(3, 1, 0), (1, 1, 1), (3, 2, 1), (2, 2, 2)],
    )
    m = RainbowMatching((Edge(1, 1, 1), Edge(2, 2, 2)))
    ctx = MatchingContext(g, m)
    sigma = Switching(
        (Edge(3, 1, 0), Edge(3, 2, 1)),
        (Edge(1, 1, 1), Edge(2, 2, 2)),
    )
    verdict = validate_switching(ctx, ctx.x0, sigma)
    assert not verdict.ok
    assert verdict.reason.startswith("(iv)")
    assert "e_0 and e_1" in verdict.reason


def test_validate_switching_clause_v():
    ctx = MatchingContext(LATIN_2x2, RainbowMatching((Edge(0, 0, 0),)))
    sigma = colour_path_to_switching(ctx, build_switch_digraph(ctx, ctx.x0), [1, 0])
    verdict = validate_switching(ctx, (), sigma)  # X' empty now
    assert not verdict.ok and verdict.reason.startswith("(v)")


def test_apply_switching_length1():
    ctx = MatchingContext(LATIN_2x2, RainbowMatching((Edge(0, 0, 0),)))
    sigma = colour_path_to_switching(ctx, build_switch_digraph(ctx, ctx.x0), [1, 0])
    out = apply_switching(ctx, sigma)
    assert out.size == 1
    assert out.colours() == {1}
    assert verify_rainbow_matching(LATIN_2x2, out).ok
    # Y-cover preserved
    assert {e.y for e in out} == {e.y for e in ctx.matching}


def test_apply_switching_preconditions_named():
    ctx = MatchingContext(DEPTH2, DEPTH2_M)
    sigma = colour_path_to_switching(ctx, build_switch_digraph(ctx, ctx.x0), [0, 1])
    outside = Switching(sigma.free_edges, (Edge(1, 1, 1),))  # not in ctx.matching
    with pytest.raises(ExchangeNotApplicable):
        apply_switching(ctx, outside)
    # the kept matching is {(1, 1, 2)}: a free edge may share none of x, y or c
    for free, reason in ((Edge(1, 0, 0), "collides"), (Edge(2, 0, 2), "already present")):
        with pytest.raises(ExchangeNotApplicable, match=reason):
            apply_switching(ctx, Switching((free,), sigma.matched_edges))


def test_apply_switching_checks_free_edges_against_each_other_and_the_graph():
    # Both matched edges go, so nothing is kept: each free edge must still
    # miss the earlier free edges' x, y and colour, and be a graph edge.
    g = read_edge_list("3 3 3\n0 0 0\n2 1 0\n1 1 1\n0 2 1\n2 0 2\n1 2 2\n")
    ctx = MatchingContext(g, RainbowMatching((Edge(0, 0, 0), Edge(1, 1, 1))))
    for free, reason in (
        ((Edge(2, 1, 0), Edge(2, 0, 2)), r"free edge \(2, 0, 2\) collides"),
        ((Edge(2, 1, 0), Edge(1, 1, 1)), r"free edge \(1, 1, 1\) collides"),
        ((Edge(2, 1, 0), Edge(0, 0, 0)), "free-edge colour 0 already present"),
        ((Edge(2, 2, 0),), r"free edge \(2, 2, 0\) is not a graph edge"),
    ):
        with pytest.raises(ExchangeNotApplicable, match=reason):
            apply_switching(ctx, Switching(free, ctx.matching.edges))


def test_apply_switching_seeded_property():
    # every exchange keeps size and Y-cover and misses the end colour
    applied = 0
    for i in range(60):
        n = 2 + (i % 6)
        g = generate_instance(
            "random", n, n + 1, True, seed=6500 + i, left_size=n + 2, right_size=n + 2
        )
        ctx = _ctx_one_missing(g)
        if ctx.matching.size == 0:
            continue
        D = build_switch_digraph(ctx, ctx.x0)
        for path in iter_rainbow_paths(
            D, missing_colour(ctx), target=None, max_len=3, mode="total"
        ):
            if not path:
                continue
            verts = [path[0].tail] + [a.head for a in path]
            sigma = colour_path_to_switching(ctx, D, verts)
            out = apply_switching(ctx, sigma)
            assert verify_rainbow_matching(g, out).ok
            assert out.size == ctx.matching.size
            assert {e.y for e in out} == {e.y for e in ctx.matching}
            assert sigma.matched_edges[-1].c not in out.colours()
            applied += 1
    assert applied > 100


def test_augment_depth0():
    g = ColouredBipartiteMultigraph(2, 2, 2, [(0, 0, 0), (1, 1, 1)])
    ctx = MatchingContext(g, RainbowMatching((Edge(0, 0, 0),)))
    out = augment(ctx, 1)
    assert isinstance(out, RainbowMatching)
    assert out.size == 2


def test_augment_2x2_latin_fails_with_report():
    ctx = MatchingContext(LATIN_2x2, RainbowMatching((Edge(0, 0, 0),)))
    out = augment(ctx, 1)
    assert isinstance(out, AugmentFailure)
    assert out.depth_cap_exhausted
    assert out.frontier == (0,)  # colour A reachable, no uncovered edge for it


def test_augment_needs_depth2():
    ctx = MatchingContext(DEPTH2, DEPTH2_M)
    assert isinstance(augment(ctx, 0, depth_cap=1), AugmentFailure)
    out = augment(ctx, 0, depth_cap=2)
    assert isinstance(out, RainbowMatching)
    assert out.size == 3
    assert verify_rainbow_matching(DEPTH2, out).ok
    assert exact_max_rainbow_matching(DEPTH2).size == 3


def test_engine_greedy_regime():
    edges = [(x, x, 0) for x in range(4)] + [(x, (x + 1) % 4, 1) for x in range(4)]
    g = ColouredBipartiteMultigraph(4, 4, 2, edges)
    m, _ = solve_switching_engine(g)
    assert m.size == 2


def test_engine_2x2_latin():
    m, _ = solve_switching_engine(LATIN_2x2)
    assert m.size == 1


def test_engine_matches_oracle_on_suite_sample():
    # full 200-instance run is acceptance 4
    for g in list(switching_suite(40)):
        m, _ = solve_switching_engine(g)
        assert verify_rainbow_matching(g, m).ok
        assert m.size == exact_max_rainbow_matching(g).size


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_engine_output_always_valid_and_no_better_than_oracle(seed, disjoint):
    n = 2 + seed % 5
    g = generate_instance(
        "random", n, n, disjoint, seed=seed, left_size=n + 2, right_size=n + 2
    )
    m, _ = solve_switching_engine(g)
    assert verify_rainbow_matching(g, m).ok
    assert m.size <= exact_max_rainbow_matching(g).size


def test_engine_deterministic():
    g = generate_instance("random", 5, 6, True, seed=42, left_size=7, right_size=7)
    m1, _ = solve_switching_engine(g)
    m2, _ = solve_switching_engine(g)
    assert m1 == m2


def test_missing_colour_has_no_in_arcs():
    # the missing colour's matching edge is undefined, so nothing points at it
    for i in range(20):
        n = 2 + (i % 6)
        g = generate_instance(
            "random", n, n + 1, True, seed=7100 + i, left_size=n + 2, right_size=n + 2
        )
        ctx = _ctx_one_missing(g)
        if ctx.matching.size == 0:
            continue
        D = build_switch_digraph(ctx, ctx.x0)
        assert D.arcs_into(missing_colour(ctx)) == {}


def test_path_switching_converse_round_trip():
    # opportunistic converse: a path-derived switching determines its colour
    # path uniquely (free-edge colours followed by the end colour)
    for i in range(30):
        n = 3 + (i % 5)
        g = generate_instance(
            "random", n, n + 1, True, seed=7700 + i, left_size=n + 2, right_size=n + 2
        )
        ctx = _ctx_one_missing(g)
        if ctx.matching.size == 0:
            continue
        D = build_switch_digraph(ctx, ctx.x0)
        for path in iter_rainbow_paths(
            D, missing_colour(ctx), target=None, max_len=3, mode="total"
        ):
            if not path:
                continue
            verts = [path[0].tail] + [a.head for a in path]
            sigma = colour_path_to_switching(ctx, D, verts)
            recovered = [e.c for e in sigma.free_edges] + [sigma.matched_edges[-1].c]
            assert recovered == verts


def test_out_degree_witness_on_certified_maxima():
    # for every colour reached by a rainbow path P in the uncovered-side
    # switch digraph of a certified-maximum matching:
    # outdeg(v) >= |class(v)| + |X0| - |X| - 2|P|
    checked = 0
    for g in deficient_suite():
        res = exact_max_rainbow_matching(g)
        assert res.optimal and res.size == g.colour_count - 1
        ctx = MatchingContext(g, res.matching)
        D = build_switch_digraph(ctx, ctx.x0)
        x0, left = len(ctx.x0), g.left_size
        c_star = missing_colour(ctx)
        best_len: dict[int, int] = {c_star: 0}
        for path in iter_rainbow_paths(D, c_star, target=None, max_len=4, mode="total"):
            if path:
                v = path[-1].head
                best_len[v] = min(best_len.get(v, len(path)), len(path))
        for v, plen in best_len.items():
            bound = len(g.colour_classes[v]) + x0 - left - 2 * plen
            assert D.out_degree(v) >= bound
            checked += 1
    assert checked >= 60


def test_rotation_search_honours_node_limit(monkeypatch):
    # The order-6 cyclic square has no transversal, so the engine stops at 5
    # after exhausting the rotation search.  On the solve's one meter pass
    # 1's augment probes spend 22 nodes and the rotation search's move
    # enumerations 48 more, so 69 nodes cover pass 1 but not the search.
    g = generate_instance("latin", 6, seed=6)
    tight = SearchBudget(node_limit=69)
    with monkeypatch.context() as patch:
        patch.setattr(switching, "ROTATION_LIMIT", 0)
        m, _ = solve_switching_engine(g, budget=tight)
    assert m.size == 5
    m, _ = solve_switching_engine(g)
    assert m.size == 5
    with pytest.raises(BudgetExceeded):
        solve_switching_engine(g, budget=tight)


def test_engine_says_why_it_stopped(monkeypatch):
    # The order-6 cyclic square has no transversal: the rotation search runs
    # dry at 5, or first stops at a small rotation limit.
    g = generate_instance("latin", 6, seed=6)
    m, trace = solve_switching_engine(g)
    assert (m.size, trace.stop) == (5, "stalled")
    for limit in (0, 2):
        with monkeypatch.context() as patch:
            patch.setattr(switching, "ROTATION_LIMIT", limit)
            m, trace = solve_switching_engine(g)
        assert (m.size, trace.stop) == (5, "rotation_limit")
    m, trace = solve_switching_engine(generate_instance("latin", 5, seed=1))
    assert (m.size, trace.stop) == (5, "complete")


def test_each_missing_colours_probe_matches_the_restricted_copy():
    # One host context serves every missing colour c: augment(ctx, c) equals
    # the augmentation on the copy restricted to the matched colours plus c,
    # in host colour ids.  A walk from c builds no other missing colour's row,
    # and the host digraph less those rows is the copy's switch digraph.
    probes = shared = 0
    for i in range(60):
        n = 4 + i % 5
        g = generate_instance(
            "random", n, 3, True, seed=7000 + i, left_size=n + 1, right_size=n + 1
        )
        m = greedy_rainbow_matching(g)
        host = MatchingContext(g, m)
        missing = sorted(set(range(n)) - m.colours())
        shared += len(missing) >= 2
        for c_star in missing:
            sub, cmap = restrict(g, colours=m.colours() | {c_star})
            inv = {old: new for new, old in enumerate(cmap)}
            ctx = MatchingContext(sub, RainbowMatching(tuple(Edge(e.x, e.y, inv[e.c]) for e in m)))
            if m.size:
                D = build_switch_digraph(host, host.x0)
                for _ in iter_shortest_first(D, c_star, max_len=m.size + 1, mode="total"):
                    pass
                built = {v for v, row in enumerate(D._out._rows) if row is not None}
                assert built.intersection(missing) == {c_star}
                others = set(missing) - {c_star}
                mapped = sorted(
                    (cmap[a.tail], cmap[a.head], a.label)
                    for a in build_switch_digraph(ctx, ctx.x0).arcs
                )
                assert sorted(a for a in D.arcs if a.tail not in others) == mapped
            got, want = augment(host, c_star), augment(ctx, inv[c_star])
            if isinstance(want, AugmentFailure):
                assert got == AugmentFailure(
                    want.depth_cap,
                    want.deepest_explored,
                    want.paths_explored,
                    tuple(cmap[c] for c in want.frontier),
                    want.depth_cap_exhausted,
                )
            else:
                assert got == relabel_matching(want, cmap)
            probes += 1
    assert probes >= 70 and shared >= 15


def test_augment_needs_a_missing_colour():
    ctx = MatchingContext(DEPTH2, DEPTH2_M)
    for c in (1, 2, -1, 3):
        with pytest.raises(PreconditionViolated, match=f"colour {c} "):
            augment(ctx, c)


def _reference_moves(engine, ctx, c_star, flip):
    """Every same-size matching one switching away, on the host: one walk of
    the switch digraph, ``apply_switching`` per non-empty path."""
    if ctx.matching.size == 0:
        return []
    D = build_switch_digraph(ctx, ctx.x0)
    cap = engine.depth_cap if engine.depth_cap is not None else ctx.matching.size + 1
    moves = []
    for path in iter_rainbow_paths(D, c_star, max_len=cap, mode="total"):
        if path:
            sigma = colour_path_to_switching(ctx, D, [c_star] + [a.head for a in path])
            moves.append(engine.to_host(apply_switching(ctx, sigma), flip))
    return moves


@pytest.mark.parametrize("depth_cap", [None, 2])
def test_explore_gives_augment_or_the_reference_moves(monkeypatch, depth_cap):
    # Replays every (matching, side) the engine builds a context for, with
    # each of its missing colours c*: the states pass 1 probes and those the
    # rotation search explores, and more.  On the rotation states of these
    # systems the first hit in preorder is also a shortest one; some pass-1
    # states are where the two differ.
    contexts = {}
    context = _Engine.context

    def recording(self, matching, flip):
        contexts[matching, flip] = self
        return context(self, matching, flip)

    monkeypatch.setattr(_Engine, "context", recording)
    for order, seed in [(9, 0), (11, 0), (13, 6), (15, 8), (17, 7)]:
        graph = read_edge_list(tight_text(order, seed))
        m, _ = solve_switching_engine(graph, depth_cap=depth_cap)
        assert m.size == graph.colour_count
    monkeypatch.undo()
    outcomes = {"augmented": 0, "moves": 0}
    for (current, flip), engine in contexts.items():
        ctx = engine.context(current, flip)
        for c_star in sorted(set(range(ctx.graph.colour_count)) - current.colours()):
            augmented, moves = engine.explore(current, c_star, flip)
            want = augment(ctx, c_star, engine.depth_cap)
            if isinstance(want, RainbowMatching):
                assert (augmented, moves) == (engine.to_host(want, flip), [])
                outcomes["augmented"] += 1
            else:
                assert augmented is None
                assert moves == _reference_moves(engine, ctx, c_star, flip)
                outcomes["moves"] += 1
    assert outcomes["augmented"] >= 5 and outcomes["moves"] >= 20
