"""Digraphs assembled from their producers' out-lists.

``build_switch_digraph`` and ``build_two_hop_digraph`` hand their out-lists
to ``LabelledDigraph._from_out_lists``, which checks nothing.  Each digraph
they build must equal the one the public constructor builds from its arcs,
and no other code in the package may take the unchecked path.
"""

import ast
import random
from pathlib import Path

import pytest

from rainbowmatch.core import Edge, RainbowMatching, build_graph, greedy_rainbow_matching
from rainbowmatch.switching import _Engine, _YSide, build_switch_digraph

from helpers import assert_built_as_by_constructor

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rainbowmatch"
UNCHECKED = "_from_out_lists"


def planted_tight_system(n: int, seed: int):
    """n edge-disjoint classes of size n+1 with a planted transversal.

    Each class is a row of a random isotope of the cyclic square of odd
    order N >= n+1: the row's diagonal cell plus n other cells.  The
    diagonal cells (r, r) carry the distinct symbols 2r mod N, so they form
    a rainbow matching of size n.  Returns the graph and that matching.
    """
    order = n + 1 if n % 2 == 0 else n + 2
    rng = random.Random(f"out-lists/planted/{n}/{seed}")
    col = rng.sample(range(order), order)
    sym = rng.sample(range(order), order)
    edges, planted = [], []
    for colour, r in enumerate(rng.sample(range(order), n)):
        others = [j for j in range(order) if j != r]
        edges.extend((col[j], sym[(r + j) % order], colour) for j in [r, *rng.sample(others, n)])
        planted.append((col[r], sym[2 * r % order], colour))
    graph = build_graph(order, order, n, edges, edge_disjoint=True)
    return graph, RainbowMatching(tuple(Edge(*e) for e in planted))


def _matchings(graph, planted, rng):
    """The greedy matching and random parts of the planted one."""
    yield greedy_rainbow_matching(graph)
    for size in range(1, planted.size):
        yield RainbowMatching(tuple(rng.sample(planted.edges, size)))


def test_switch_digraphs_equal_the_constructor_on_both_sides():
    checked = {False: 0, True: 0}
    arcs = 0
    for n in range(3, 9):
        for seed in range(3):
            graph, planted = planted_tight_system(n, seed)
            engine = _Engine(graph, None, None, 0)
            rng = random.Random(f"out-lists/matchings/{n}/{seed}")
            for matching in _matchings(graph, planted, rng):
                for c_star in sorted(set(range(n)) - matching.colours()):
                    for flip in (False, True):
                        ctx = engine.context(matching, c_star, flip)
                        xs = range(ctx.graph.left_size)
                        subsets = [ctx.x0, xs, (), rng.sample(xs, rng.randint(1, len(xs)))]
                        for x_prime in subsets:
                            D = build_switch_digraph(ctx, x_prime)
                            assert_built_as_by_constructor(D)
                            arcs += len(D.arcs)
                        checked[isinstance(ctx.graph, _YSide)] += 1
    assert min(checked.values()) >= 200, checked
    assert arcs > 5000


def _mentions(tree: ast.AST, scope: str = "<module>"):
    """The enclosing definition of each mention of the unchecked path: an
    attribute, a name or a string."""
    for child in ast.iter_child_nodes(tree):
        if (
            isinstance(child, ast.Attribute) and child.attr == UNCHECKED
            or isinstance(child, ast.Name) and child.id == UNCHECKED
            or isinstance(child, ast.Constant) and child.value == UNCHECKED
        ):
            yield scope
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
        yield from _mentions(child, inner)


def test_only_the_two_producers_take_the_unchecked_path():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 10
    found = sorted(
        (path.name, scope)
        for path in files
        for scope in _mentions(ast.parse(path.read_text(), str(path)))
    )
    assert found == [
        ("connectivity.py", "build_two_hop_digraph"),
        ("switching.py", "build_switch_digraph"),
    ]
