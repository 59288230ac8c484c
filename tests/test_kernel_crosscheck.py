"""Independent cross-check of ``iter_rainbow_paths`` by brute force.

Every simple path of a small digraph is built from ``itertools.permutations``
of its vertices and one arc per hop; the rainbow rules are then applied as
written, with no search.  The kernel must yield exactly the surviving paths,
in lexicographic order of their (head, label) sequences, and
``iter_shortest_first`` must yield them by length, in that order per length.
The toolbox's distances, distance layers and low-expansion balls are checked
against the same paths, in every mode.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from rainbowmatch.budget import BudgetMeter
from rainbowmatch.connectivity import low_expansion_ball, rainbow_ball_layers, rainbow_distance
from rainbowmatch.digraph import MODES, LabelledDigraph, iter_rainbow_paths, iter_shortest_first
from rainbowmatch.oracle import is_kd_connected


def shared_palette_digraph(n: int, arcs_per_vertex: int, palette: int, seed: int):
    """Arc and vertex colours from one palette; parallel arcs allowed."""
    rng = random.Random(f"kernel-crosscheck/{seed}")
    arcs = set()
    for v in range(n):
        for _ in range(arcs_per_vertex):
            w = rng.randrange(n - 1)
            arcs.add((v, w if w < v else w + 1, rng.randrange(palette)))
    labels = tuple(rng.randrange(palette) for _ in range(n))
    return LabelledDigraph(n, sorted(arcs), vertex_labels=labels)


def all_simple_paths(D: LabelledDigraph, start: int):
    """Every simple arc path from start, the empty one included."""
    others = [v for v in range(D.vertex_count) if v != start]
    for length in range(len(others) + 1):
        for rest in itertools.permutations(others, length):
            verts = (start,) + rest
            hops = [D.arcs_between(a, b) for a, b in zip(verts, verts[1:])]
            yield from itertools.product(*hops)


def is_admissible(D, start, path, *, target, max_len, mode, forbidden) -> bool:
    verts = [start] + [a.head for a in path]
    if len(path) > max_len:
        return False
    if target is not None and verts[-1] != target:
        return False
    # without a target every vertex after the start counts as internal
    internal = verts[1:-1] if target is not None else verts[1:]
    edge_labels = mode in ("edge", "total")
    vertex_labels = mode in ("vertex", "total")
    colours = []
    if edge_labels:
        colours += [a.label for a in path]
    if vertex_labels:
        colours += [D.vertex_labels[v] for v in verts]
    if len(set(colours)) != len(colours):
        return False
    if edge_labels and any(a.label in forbidden for a in path):
        return False
    if vertex_labels and any(D.vertex_labels[v] in forbidden for v in internal):
        return False
    return True


def _order(path):
    return tuple((a.head, a.label) for a in path)


@pytest.mark.parametrize("seed", range(9))
def test_kernel_equals_brute_force(seed):
    n = 5 + seed % 3
    D = shared_palette_digraph(n, 4, n + 2, seed)
    rng = random.Random(seed)
    start = rng.randrange(n)
    candidates = list(all_simple_paths(D, start))
    others = [v for v in range(n) if v != start]
    two_colours = rng.sample(range(n + 2), 2)
    for mode, forbidden, target, max_len in itertools.product(
        MODES,
        (frozenset(), frozenset(two_colours[:1]), frozenset(two_colours)),
        (None, start, others[-1], others[0]),
        (2, n - 1),
    ):
        rules = dict(target=target, max_len=max_len, mode=mode, forbidden=forbidden)
        expected = sorted(
            (p for p in candidates if is_admissible(D, start, p, **rules)), key=_order
        )
        got = list(iter_rainbow_paths(D, start, meter=BudgetMeter(None), **rules))
        assert got == expected, rules
        by_length = sorted(expected, key=lambda p: (len(p), _order(p)))
        assert list(iter_shortest_first(D, start, **rules)) == by_length, rules


def brute_lengths(D, start, paths, mode, target):
    """The lengths of the admissible paths among ``paths``, by end vertex."""
    rules = dict(target=target, max_len=len(D.arcs), mode=mode, forbidden=frozenset())
    lengths = {}
    for p in paths:
        if is_admissible(D, start, p, **rules):
            lengths.setdefault(p[-1].head if p else start, []).append(len(p))
    return lengths


@pytest.mark.parametrize("seed", range(3))
def test_toolbox_equals_brute_force_in_every_mode(seed):
    n = 5 + seed
    D = shared_palette_digraph(n, 3, n + 2, 100 + seed)
    for mode, v in itertools.product(MODES, range(n)):
        paths = list(all_simple_paths(D, v))
        reached = brute_lengths(D, v, paths, mode, None)
        full = {w: min(lengths) for w, lengths in reached.items()}
        for cap in (0, 1, 2, n - 1):
            capped = {w: d for w, d in full.items() if d <= cap}
            assert rainbow_ball_layers(D, v, cap, mode=mode) == capped, (mode, v, cap)
        for w in range(n):
            lengths = brute_lengths(D, v, paths, mode, w).get(w, [])
            for cap in (0, 1, 2, n - 1):
                expected = min((d for d in lengths if d <= cap), default=math.inf)
                assert rainbow_distance(D, v, w, cap, mode=mode) == expected, (mode, v, w, cap)
        for eps in (1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)):
            t0, ball = low_expansion_ball(D, v, eps, mode=mode)
            assert 0 <= t0 <= math.ceil(1 / eps)
            assert ball == {w for w, d in full.items() if d <= t0}
            for t in range(t0 + 1):  # t0 is the first radius whose next layer is small
                inner = sum(d <= t for d in full.values())
                small = sum(d <= t + 1 for d in full.values()) <= inner + eps * n
                assert small == (t == t0), (mode, v, eps, t)


def test_unknown_mode_is_named_by_every_entry_point():
    D = shared_palette_digraph(5, 3, 7, 0)
    entry_points = (
        lambda mode: next(iter_rainbow_paths(D, 0, max_len=2, mode=mode)),
        lambda mode: rainbow_distance(D, 0, 1, 2, mode=mode),
        lambda mode: rainbow_ball_layers(D, 0, 2, mode=mode),
        lambda mode: low_expansion_ball(D, 0, Fraction(1, 2), mode=mode),
        lambda mode: is_kd_connected(D, [0, 1], 1, 2, mode=mode),
    )
    for call in entry_points:
        with pytest.raises(ValueError, match="'bogus'"):
            call("bogus")
    unlabelled = LabelledDigraph(3, [(0, 1, "a"), (1, 2, "b")])
    for mode in ("vertex", "total"):
        with pytest.raises(ValueError, match=repr(mode)):
            next(iter_rainbow_paths(unlabelled, 0, max_len=2, mode=mode))
        with pytest.raises(ValueError, match=repr(mode)):
            is_kd_connected(unlabelled, [0, 2], 1, 2, mode=mode)


def test_a_walk_without_a_meter_runs_on_one_default_meter(meters_built):
    D = shared_palette_digraph(6, 3, 8, 0)
    assert list(iter_rainbow_paths(D, 0, max_len=3, mode="total"))
    assert meters_built == [1]


def test_a_shortest_first_stream_without_a_meter_runs_on_one_default_meter(meters_built):
    D = shared_palette_digraph(6, 3, 8, 0)
    assert len({len(p) for p in iter_shortest_first(D, 0, max_len=3, mode="total")}) > 2
    assert meters_built == [1]


def test_a_stream_without_a_target_ends_at_its_first_empty_length():
    # Depths 1-3 tick 1, 2 and 3 arcs; depth 4 ticks 3 and yields nothing,
    # so no longer path exists and the stream ends there, whatever the cap.
    D = LabelledDigraph(4, [(0, 1, "a"), (1, 2, "b"), (2, 3, "c")])
    ticks = []
    for max_len in (4, 50):
        meter = BudgetMeter(None)
        paths = list(iter_shortest_first(D, 0, max_len=max_len, meter=meter))
        assert [len(p) for p in paths] == [0, 1, 2, 3]
        ticks.append(meter.nodes)
    assert ticks == [9, 9]
