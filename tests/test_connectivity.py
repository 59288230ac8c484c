import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rainbowmatch import connectivity
from rainbowmatch.connectivity import (
    build_two_hop_digraph,
    find_kd_connected_set,
    low_expansion_ball,
    rainbow_distance,
    rainbow_path_through,
)
from rainbowmatch.digraph import Arc, LabelledDigraph, iter_rainbow_paths
from rainbowmatch.errors import (
    NoVerifiedSetFound,
    PathNotRainbow,
    PreconditionViolated,
    SegmentNotFound,
)
from rainbowmatch.gen import generate_proper_digraph
from rainbowmatch.menger import build_counterexample
from helpers import complete_biorientation

INF = math.inf


def test_rainbow_distance_self():
    D = complete_biorientation(3)
    assert rainbow_distance(D, 1, 1, cap=2) == 0


def test_rainbow_distance_single_edge():
    D = LabelledDigraph(2, [(0, 1, 10)], vertex_labels=(0, 1))
    assert rainbow_distance(D, 0, 1, cap=3) == 1
    assert rainbow_distance(D, 1, 0, cap=3) == INF


def test_rainbow_distance_counterexample():
    D = build_counterexample(1, 4)
    assert rainbow_distance(D, 0, 4, cap=6, mode="edge") == 4


def test_ball_isolated_vertex():
    D = LabelledDigraph(4, [], vertex_labels=(0, 1, 2, 3))
    t0, ball = low_expansion_ball(D, 2, 1)
    assert t0 == 0
    assert ball == frozenset({2})


def test_ball_eps_one_always_t0_at_most_1():
    for seed in range(10):
        D = generate_proper_digraph(20, 4, seed=seed)
        t0, _ = low_expansion_ball(D, 0, 1)
        assert t0 <= 1


def test_ball_growth_certificate_reverifies():
    # recompute layers independently via the oracle's path enumerator
    for seed in range(8):
        D = generate_proper_digraph(30, 6, seed=seed)
        eps = 0.25
        t0, ball = low_expansion_ball(D, 0, eps)
        assert t0 <= 4
        cap = 5 + 1
        sizes = []
        for t in range(t0 + 2):
            members = {
                v
                for v in range(D.vertex_count)
                if _min_total_rainbow_distance(D, 0, v, cap) <= t
            }
            sizes.append(len(members))
            if t == t0:
                assert members == set(ball)
        assert sizes[t0 + 1] <= sizes[t0] + eps * D.vertex_count


def _min_total_rainbow_distance(D, u, v, cap):
    # independent recomputation: enumerate and minimise, endpoints counted
    best = INF
    for p in iter_rainbow_paths(
        D, u, target=v, max_len=cap, mode="total"
    ):
        best = min(best, len(p))
    return best


def test_ball_nontrivial_growth_exists():
    # dense enough that the first layer exceeds eps*|D|, forcing t0 >= 1
    D = generate_proper_digraph(40, 12, seed=5)
    t0, ball = low_expansion_ball(D, 0, 0.25)
    assert t0 >= 1
    assert len(ball) > 13


def test_two_hop_single_edge_is_edgeless():
    D = LabelledDigraph(2, [(0, 1, 10)], vertex_labels=(0, 1))
    derived, cert = build_two_hop_digraph(D, 1)
    assert derived.arcs == ()
    assert cert.bundles == {}


def test_two_hop_m1_matches_direct_enumeration():
    D = generate_proper_digraph(25, 5, seed=11)
    derived, cert = build_two_hop_digraph(D, 1)
    assert cert.validate(D)
    derived_pairs = {(a.tail, a.head) for a in derived.arcs}
    for x in range(25):
        for y in range(25):
            if x == y:
                continue
            exists = any(
                len(p) == 2
                for p in iter_rainbow_paths(
                    D, x, target=y, max_len=2, mode="total"
                )
            )
            assert ((x, y) in derived_pairs) == exists


def test_two_hop_m2_certificates_and_absence():
    D = generate_proper_digraph(30, 8, seed=13)
    derived, cert = build_two_hop_digraph(D, 2)
    assert cert.validate(D)
    derived_pairs = {(a.tail, a.head) for a in derived.arcs}
    # absence cross-check by exhaustive midpoint-pair enumeration, 20 pairs
    sampled = [
        (x, y)
        for x in range(6)
        for y in range(6)
        if x != y and (x, y) not in derived_pairs
    ][:20]
    for x, y in sampled:
        cands = _candidate_triples(D, x, y)
        for t1, t2 in itertools.combinations(cands, 2):
            assert t1[0] == t2[0] or (t1[1] & t2[1])


def _candidate_triples(D, x, y):
    out = []
    ends = {D.vertex_labels[x], D.vertex_labels[y]}
    for a1 in D.out_arcs(x):
        u = a1.head
        if u == y:
            continue
        for a2 in D.out_arcs(u):
            if a2.head != y:
                continue
            triple = {a1.label, D.vertex_labels[u], a2.label}
            if len(triple) == 3 and not (triple & ends):
                out.append((u, frozenset(triple)))
    return out


def test_two_hop_degree_law_sample():
    # full 20-instance law run is acceptance 5
    for seed in (0, 1):
        D = generate_proper_digraph(100, 40, seed=seed)
        derived, cert = build_two_hop_digraph(D, 1)
        assert cert.validate(D)
        assert derived.min_out_degree() >= D.min_out_degree() - 0.3 * 100


def test_kdset_complete_biorientation():
    D = complete_biorientation(6)
    result = find_kd_connected_set(D, 4, 0.5, mode="uncoloured")
    assert result.vertices == frozenset(range(6))
    assert result.verdict.connected
    assert result.verdict.mode == "exhaustive"
    assert len(result.vertices) >= result.target_size


def test_kdset_edgeless_returns_vacuous_singleton():
    D = LabelledDigraph(4, [], vertex_labels=(0, 1, 2, 3))
    result = find_kd_connected_set(D, 2, 0.5, mode="uncoloured")
    assert len(result.vertices) == 1
    assert result.verdict.mode == "vacuous"


def test_kdset_coloured_mode():
    D = complete_biorientation(6)
    result = find_kd_connected_set(D, 2, 0.9, mode="total")
    assert result.vertices == frozenset(range(6))
    assert result.verdict.connected


# A str-labelled copy of generate_proper_digraph(12, 3, seed=0), whose
# peeled set fails the edge-mode check with a two-label removal set.
_STR_LABELLED_KDSET = """
from rainbowmatch.connectivity import find_kd_connected_set
from rainbowmatch.digraph import LabelledDigraph
from rainbowmatch.errors import NoVerifiedSetFound
from rainbowmatch.gen import generate_proper_digraph

G = generate_proper_digraph(12, 3, seed=0)
D = LabelledDigraph(
    12,
    [(a.tail, a.head, f"a{a.label}") for a in G.arcs],
    vertex_labels=tuple(f"v{v}" for v in range(12)),
)
try:
    find_kd_connected_set(D, 3, "1/2", mode="edge")
except NoVerifiedSetFound as e:
    print(e)
"""


def test_kdset_failure_reason_is_independent_of_the_hash_seed():
    # The removal set is written sorted, not in a frozenset's hash order;
    # under these two seeds a frozenset of the two labels iterates in
    # opposite orders.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    reasons = {
        subprocess.run(
            [sys.executable, "-c", _STR_LABELLED_KDSET],
            capture_output=True, text=True, check=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
        ).stdout
        for seed in ("0", "6")
    }
    assert reasons == {
        "peeled set of size 7 failed verification: removal set ['a13', 'a16'] cuts 2 -> 3\n"
    }


def test_kdset_failure_reason_sorts_int_labels():
    D = generate_proper_digraph(12, 3, seed=0)
    with pytest.raises(NoVerifiedSetFound, match=r"removal set \[13, 16\] cuts 2 -> 3$"):
        find_kd_connected_set(D, 3, "1/2", mode="edge")


def test_anchored_path_single_anchor():
    D = complete_biorientation(4)
    assert rainbow_path_through(D, range(4), [2], frozenset(), 2) == ()


def test_anchored_path_three_anchors():
    D = complete_biorientation(6)
    path = rainbow_path_through(D, range(6), [0, 2, 4], frozenset(), 2)
    assert len(path) == 2
    assert path[0].tail == 0 and path[-1].head == 4
    visited = [path[0].tail] + [a.head for a in path]
    assert visited.index(2) < visited.index(4)


def test_anchored_path_with_forced_detour():
    # direct arc 0 -> 2 is missing; the leg must route around, length <= kd
    arcs = [
        (0, 1, 10),
        (1, 2, 11),
        (2, 3, 12),
        (0, 3, 13),
        (1, 3, 14),
        (3, 2, 15),
    ]
    D = LabelledDigraph(4, arcs, vertex_labels=(0, 1, 2, 3))
    path = rainbow_path_through(D, range(4), [0, 2], frozenset(), 3)
    assert [a.tail for a in path] + [path[-1].head] == [0, 1, 2]


@pytest.mark.parametrize(
    "seed, anchors",
    [(1, [7, 31, 48, 28, 30]), (6, [23, 20, 49, 1]), (7, [34, 6, 23, 37, 3])],
)
def test_anchored_path_earlier_leg_avoids_later_anchors(seed, anchors):
    # each of these once failed: an earlier shortest leg ran through a later
    # anchor, whose own leg then had no rainbow way in
    D = generate_proper_digraph(60, 12, seed)
    path = rainbow_path_through(D, range(60), anchors, frozenset(), 3)
    visited = [path[0].tail] + [a.head for a in path]
    assert [v for v in visited if v in anchors] == anchors
    assert visited[0] == anchors[0] and visited[-1] == anchors[-1]
    labels = [a.label for a in path] + [D.vertex_labels[v] for v in visited]
    assert len(set(labels)) == len(labels)


def test_anchored_path_earlier_leg_avoids_later_anchor_colours():
    # leg 0 once took the arc coloured 12, vertex 2's colour, and leg 1 failed
    D = LabelledDigraph(3, [(0, 1, 12), (0, 1, 20), (1, 2, 21)], vertex_labels=(10, 11, 12))
    path = rainbow_path_through(D, range(3), [0, 1, 2], frozenset(), 4)
    assert path == (Arc(0, 1, 20), Arc(1, 2, 21))


def test_anchored_path_precondition_and_failure():
    D = complete_biorientation(4)
    with pytest.raises(PreconditionViolated):
        rainbow_path_through(D, range(4), [0, 1], {1}, 2)  # anchor colour in S
    sparse = LabelledDigraph(3, [(0, 1, 10)], vertex_labels=(0, 1, 2))
    with pytest.raises(SegmentNotFound) as exc:
        rainbow_path_through(sparse, range(3), [0, 2], frozenset(), 2)
    assert "leg 0" in str(exc.value)


@pytest.mark.parametrize(
    "A, anchors, S",
    [([0, 1, 9], [0, 9], frozenset()), ([0, -1], [0, -1], frozenset({7}))],
    ids=["past-the-end", "negative"],
)
def test_an_anchor_outside_the_digraph_is_named_before_its_label_is_read(A, anchors, S):
    # vertex 9 has no label to read, and a label read at -1 would be vertex 7's
    D = generate_proper_digraph(8, 3, 0)
    bad = anchors[-1]
    with pytest.raises(ValueError, match=rf"^vertex {bad} is not among the digraph's 8 vertices$"):
        rainbow_path_through(D, A, anchors, S, 3)


def test_one_helper_builds_the_vertex_range_message():
    # the kernel, anchored paths, the Menger entries and (k, d)-connectedness
    # all call digraph._check_vertices
    package = Path(connectivity.__file__).parent
    builders = [
        path.name
        for path in sorted(package.glob("*.py"))
        if "is not among the digraph's" in path.read_text()
    ]
    assert builders == ["digraph.py"]


def test_returned_paths_are_reverified(monkeypatch):
    # the re-verification is an explicit check, so it holds under python -O
    monkeypatch.setattr(connectivity, "is_rainbow_arc_path", lambda *args, **kwargs: False)
    with pytest.raises(PathNotRainbow, match="rainbow_path_through"):
        rainbow_path_through(complete_biorientation(6), range(6), [0, 2, 4], frozenset(), 2)


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("vertices, degree", [(3, 0), (12, 8)], ids=["degenerate", "peeled"])
def test_kd_set_refuses_k_below_one(k, vertices, degree):
    D = generate_proper_digraph(vertices, degree, seed=0)
    with pytest.raises(ValueError, match=f"^k must be at least 1, got {k}$"):
        find_kd_connected_set(D, k, 0.5)
