"""Independent cross-check of ``iter_rainbow_paths`` by brute force.

Every simple path of a small digraph is built from ``itertools.permutations``
of its vertices and one arc per hop; the rainbow rules are then applied as
written, with no search.  The kernel must yield exactly the surviving paths,
in lexicographic order of their (head, label) sequences.
"""

import itertools
import random

import pytest

from rainbowmatch.budget import BudgetMeter
from rainbowmatch.digraph import LabelledDigraph, iter_rainbow_paths


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


def is_admissible(D, start, path, *, target, max_len, edge_rainbow, vertex_scope,
                  forbidden, forbidden_vertices) -> bool:
    verts = [start] + [a.head for a in path]
    if len(path) > max_len or any(v in forbidden_vertices for v in verts):
        return False
    if target is not None and verts[-1] != target:
        return False
    # without a target every vertex after the start counts as internal
    internal = verts[1:-1] if target is not None else verts[1:]
    colours = []
    if edge_rainbow:
        colours += [a.label for a in path]
    if vertex_scope == "all":
        colours += [D.vertex_labels[v] for v in verts]
    elif vertex_scope == "internal":
        colours += [D.vertex_labels[v] for v in internal]
    if len(set(colours)) != len(colours):
        return False
    if edge_rainbow and any(a.label in forbidden for a in path):
        return False
    if vertex_scope != "none" and any(D.vertex_labels[v] in forbidden for v in internal):
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
    for edge_rainbow, vertex_scope, forbidden, forbidden_vertices, target, max_len in itertools.product(
        (True, False),
        ("none", "internal", "all"),
        (frozenset(), frozenset(two_colours[:1]), frozenset(two_colours)),
        (frozenset(), frozenset({others[0]}), frozenset({start})),
        (None, start, others[-1], others[0]),
        (2, n - 1),
    ):
        rules = dict(
            target=target,
            max_len=max_len,
            edge_rainbow=edge_rainbow,
            vertex_scope=vertex_scope,
            forbidden=forbidden,
            forbidden_vertices=forbidden_vertices,
        )
        expected = sorted(
            (p for p in candidates if is_admissible(D, start, p, **rules)), key=_order
        )
        got = list(iter_rainbow_paths(D, start, meter=BudgetMeter(None), **rules))
        assert got == expected, rules
