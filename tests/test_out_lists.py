"""Digraphs assembled from their producers' out-lists.

``build_switch_digraph`` and ``build_two_hop_digraph`` hand their out-lists
to ``LabelledDigraph._from_out_lists``, which checks nothing.  Each digraph
they build must equal the one the public constructor builds from its arcs,
and no other code in the package may take the unchecked path.

The switch digraph's out-lists are lazy: each row is built the first time
it is read.  A walk builds only the rows it steps into, and every public
reader, asked first on a fresh digraph, answers as the constructor's
digraph does.
"""

import ast
import random
import sys
import threading
from functools import partial
from itertools import product
from pathlib import Path

import pytest

from rainbowmatch.core import (
    ColouredBipartiteMultigraph,
    Edge,
    RainbowMatching,
    greedy_rainbow_matching,
)
from rainbowmatch.digraph import Arc, LabelledDigraph, _LazyOutLists, iter_shortest_first
from rainbowmatch.switching import _Engine, _YSide, build_switch_digraph

from helpers import assert_built_as_by_constructor, scan_switch_digraph

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rainbowmatch"
UNCHECKED = "_from_out_lists"
LAZY = "_LazyOutLists"


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
    graph = ColouredBipartiteMultigraph(order, order, n, edges, edge_disjoint=True)
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
        for seed in range(7):
            graph, planted = planted_tight_system(n, seed)
            engine = _Engine(graph, None, None, 0)
            rng = random.Random(f"out-lists/matchings/{n}/{seed}")
            for matching in _matchings(graph, planted, rng):
                for flip in (False, True):
                    ctx = engine.context(matching, flip)
                    xs = range(ctx.graph.left_size)
                    subsets = [ctx.x0, xs, (), rng.sample(xs, rng.randint(1, len(xs)))]
                    for x_prime in subsets:
                        D = build_switch_digraph(ctx, x_prime)
                        assert_built_as_by_constructor(D)
                        arcs += len(D.arcs)
                    checked[isinstance(ctx.graph, _YSide)] += 1
    assert min(checked.values()) >= 200, checked
    assert arcs > 5000


def _mentions(tree: ast.AST, scope: str = "<module>", name: str = UNCHECKED):
    """The enclosing definition of each mention of ``name``, by default the
    unchecked path: an attribute, a name, a string or an import."""
    for child in ast.iter_child_nodes(tree):
        if (
            isinstance(child, ast.Attribute) and child.attr == name
            or isinstance(child, ast.Name) and child.id == name
            or isinstance(child, ast.Constant) and child.value == name
            or isinstance(child, ast.alias) and name in (child.name, child.asname)
        ):
            yield scope
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
        yield from _mentions(child, inner, name)


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


def test_only_digraph_and_the_switch_digraph_name_the_lazy_rows():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 10
    found = {
        (path.name, scope)
        for path in files
        for scope in _mentions(ast.parse(path.read_text(), str(path)), name=LAZY)
    }
    assert ("switching.py", "build_switch_digraph") in found
    assert {(f, s) for f, s in found if f != "digraph.py"} == {
        ("switching.py", "build_switch_digraph")
    }


def _fresh_digraphs():
    """Factories of fresh switch digraphs, one per (context, X'), on both
    sides, with rows of every kind: empty, missing colours' and long.  Each
    comes with the digraph the public constructor builds from a scan of
    every edge, its arcs read tail by tail."""
    factories = []
    for n in range(3, 7):
        graph, planted = planted_tight_system(n, 0)
        engine = _Engine(graph, None, None, 0)
        rng = random.Random(f"out-lists/lazy/{n}")
        for matching in _matchings(graph, planted, rng):
            for flip in (False, True):
                ctx = engine.context(matching, flip)
                for x_prime in (ctx.x0, range(ctx.graph.left_size)):
                    scan = scan_switch_digraph(ctx, x_prime)
                    want = LabelledDigraph(scan.vertex_count, sorted(scan.arcs), scan.vertex_labels)
                    factories.append((partial(build_switch_digraph, ctx, x_prime), want))
    return factories


FRESH = _fresh_digraphs()


def _built_rows(D) -> set[int]:
    return {v for v, row in enumerate(D._out._rows) if row is not None}


def test_a_walk_of_one_arc_builds_only_the_missing_colours_row():
    walked = 0
    for fresh, want in FRESH:
        for c_star in [v for v, label in enumerate(want.vertex_labels) if label == "*"]:
            D = fresh()
            assert _built_rows(D) == set()
            paths = list(iter_shortest_first(D, c_star, max_len=1, mode="total"))
            assert _built_rows(D) == {c_star}
            assert [p for p in paths if p] == [(a,) for a in D.out_arcs(c_star)]
            walked += len(paths) > 1
    assert walked >= 20


READERS = {
    "arcs": lambda D: D.arcs,
    "min_out_degree": lambda D: D.min_out_degree(),
    "out_arcs": lambda D, v: D.out_arcs(v),
    "out_neighbours": lambda D, v: D.out_neighbours(v),
    "out_degree": lambda D, v: D.out_degree(v),
    "arcs_into": lambda D, v: D.arcs_into(v),
    "in_neighbours": lambda D, v: D.in_neighbours(v),
    "arcs_between": lambda D, u, v: D.arcs_between(u, v),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_each_reader_asked_first_answers_as_the_constructor(reader):
    read = READERS[reader]
    arity = read.__code__.co_argcount - 1
    for fresh, want in FRESH[::3]:
        for args in product(range(want.vertex_count), repeat=arity):
            assert read(fresh(), *args) == read(want, *args), (reader, args)


def test_lazy_rows_are_built_once_and_read_like_a_tuple():
    built = []

    def row(v):
        built.append(v)
        return (Arc(v, (v + 1) % 3, "ab"[v % 2]),)

    out = _LazyOutLists(3, row)
    assert len(out) == 3
    assert out[-1] is out[2]  # a negative index builds the row it names
    assert built == [2]
    with pytest.raises(IndexError):
        out[3]
    arcs = (Arc(0, 1, "a"), Arc(1, 2, "b"), Arc(2, 0, "a"))
    assert tuple(out) == tuple((a,) for a in arcs)  # iterating builds every row
    assert built == [2, 0, 1]
    D = LabelledDigraph._from_out_lists(3, _LazyOutLists(3, row))
    assert D.arcs == arcs
    assert D.arcs is D.arcs  # assembled once


def test_threads_racing_on_lazy_rows_build_equal_rows():
    # more threads than cores, switching often, each reading a fresh switch
    # digraph's rows at the same moment
    digraphs = [(fresh(), want) for fresh, want in FRESH[::4]]
    failures = []
    barrier = threading.Barrier(6)

    def ask():
        try:
            for D, want in digraphs:
                barrier.wait(timeout=10)
                for v in range(D.vertex_count):
                    if D.out_arcs(v) != want.out_arcs(v) or D.arcs_into(v) != want.arcs_into(v):
                        raise AssertionError(f"row {v} differs")
                if D.arcs != want.arcs:
                    raise AssertionError("arcs differ")
        except Exception as exc:  # reported below; a thread cannot fail the test
            failures.append(exc)
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
