"""Reproducible instance generation for tests, corpora, and the CLI.

All randomness flows through the documented SplitMix64 generator, so a seed
pins an instance byte-for-byte on any platform or implementation.
"""

from __future__ import annotations

from .core import ColouredBipartiteMultigraph, Edge
from .digraph import LabelledDigraph
from .errors import InfeasibleParameters, RejectionBudgetExceeded
from .latin import LatinRectangle, square_to_graph
from .rng import SplitMix64


def generate_instance(
    kind: str,
    n: int,
    class_size: int = 0,
    edge_disjoint: bool = False,
    seed: int = 0,
    left_size: int | None = None,
    right_size: int | None = None,
) -> ColouredBipartiteMultigraph:
    """Seeded instance: n colour classes, each a uniform random matching.

    kind "random" draws each class as a uniform matching of ``class_size``
    on the given sides (defaults: both equal to class_size), rejecting and
    redrawing whole classes while edge-disjointness is violated when the
    flag is set.  kind "latin" ignores the class parameters and returns the
    graph of a random order-n Latin square.
    """
    if kind == "latin":
        return square_to_graph(random_latin_square(n, seed))
    if kind != "random":
        raise InfeasibleParameters(f"unknown instance kind {kind!r}")
    left = left_size if left_size is not None else class_size
    right = right_size if right_size is not None else class_size
    sizes = (("n", n), ("class size", class_size), ("left size", left), ("right size", right))
    for name, value in sizes:
        if value < 0:
            raise InfeasibleParameters(f"{name} must be non-negative, got {value}")
    if class_size > min(left, right):
        raise InfeasibleParameters(
            f"class size {class_size} exceeds side capacity {min(left, right)}"
        )
    rng = SplitMix64(seed)
    used_pairs: set[tuple[int, int]] = set()
    edges: list[Edge] = []
    for c in range(n):
        for attempt in range(10000):
            xs = rng.sample_ids(left, class_size)
            ys = rng.sample_ids(right, class_size)
            pairs = list(zip(xs, ys))
            if not edge_disjoint or not any(p in used_pairs for p in pairs):
                break
        else:
            raise RejectionBudgetExceeded(
                f"could not draw an edge-disjoint class for colour {c}"
            )
        if edge_disjoint:
            used_pairs.update(pairs)
        edges.extend(Edge(x, y, c) for x, y in pairs)
    return ColouredBipartiteMultigraph(left, right, n, edges, edge_disjoint=edge_disjoint)


def random_latin_square(n: int, seed: int = 0) -> LatinRectangle:
    """Random isotope of the cyclic order-n square (rows, columns, symbols
    independently permuted).  Not uniform over all squares; reproducible."""
    if n < 1:
        raise InfeasibleParameters("latin order must be >= 1")
    rng = SplitMix64(seed)
    rows = list(range(n))
    cols = list(range(n))
    syms = list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    rng.shuffle(syms)
    grid = tuple(
        tuple(syms[(rows[i] + cols[j]) % n] for j in range(n)) for i in range(n)
    )
    return LatinRectangle(n, n, grid, tuple(str(s) for s in range(n)))


def generate_proper_digraph(
    vertex_count: int,
    out_degree: int,
    seed: int = 0,
) -> LabelledDigraph:
    """Random properly totally coloured digraph with rainbow vertex set.

    Vertex v gets colour v; edge colours come from a disjoint palette and
    are chosen greedily so out-arcs per tail and in-arcs per head stay
    distinct.  Every output satisfies the proper-labelling check.
    """
    if out_degree < 0:
        raise InfeasibleParameters(f"out-degree must be non-negative, got {out_degree}")
    if out_degree >= vertex_count:
        raise InfeasibleParameters("out-degree must be below the vertex count")
    rng = SplitMix64(seed)
    used_out: list[set] = [set() for _ in range(vertex_count)]
    used_in: list[set] = [set() for _ in range(vertex_count)]
    palette_base = vertex_count
    arcs: list[tuple[int, int, int]] = []
    for v in range(vertex_count):
        heads = rng.sample_ids(vertex_count - 1, out_degree)
        for h in heads:
            w = h if h < v else h + 1  # skip self
            colour = palette_base
            while colour in used_out[v] or colour in used_in[w]:
                colour += 1
            offset = rng.below(2 * out_degree + 1)
            candidate = palette_base + offset
            if candidate not in used_out[v] and candidate not in used_in[w]:
                colour = candidate
            used_out[v].add(colour)
            used_in[w].add(colour)
            arcs.append((v, w, colour))
    return LabelledDigraph(vertex_count, arcs, vertex_labels=tuple(range(vertex_count)))
