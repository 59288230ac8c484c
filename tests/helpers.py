"""Shared test utilities: independent oracles and seeded corpora.

The oracles here are deliberately written against different representations
than the library (cell grids instead of graphs, vertex enumeration instead
of simplex) so that agreement is meaningful.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterable, Sequence

from rainbowmatch.core import (
    ColouredBipartiteMultigraph,
    Edge,
    MatchingContext,
    RainbowMatching,
    Verdict,
)
from rainbowmatch.digraph import Arc, LabelledDigraph, iter_rainbow_paths
from rainbowmatch.switching import STAR, Switching
from rainbowmatch.gen import generate_instance, random_latin_square
from rainbowmatch.latin import LatinRectangle, square_to_graph


def max_partial_transversal(grid) -> int:
    """Cell-level backtracker: maximum partial transversal of a square grid."""
    n = len(grid)
    best = 0

    def rec(row: int, used_cols: set, used_syms: set, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if row == n or size + (n - row) <= best:
            return
        for col in range(n):
            sym = grid[row][col]
            if col not in used_cols and sym not in used_syms:
                used_cols.add(col)
                used_syms.add(sym)
                rec(row + 1, used_cols, used_syms, size + 1)
                used_cols.discard(col)
                used_syms.discard(sym)
        rec(row + 1, used_cols, used_syms, size)

    rec(0, set(), set(), 0)
    return best


def enumerate_latin_squares(n: int):
    """Yield every order-n Latin square as a tuple of row tuples."""
    grid = [[-1] * n for _ in range(n)]

    def rec(pos: int):
        if pos == n * n:
            yield tuple(tuple(row) for row in grid)
            return
        r, c = divmod(pos, n)
        for s in range(n):
            if all(grid[r][j] != s for j in range(c)) and all(
                grid[i][c] != s for i in range(r)
            ):
                grid[r][c] = s
                yield from rec(pos + 1)
                grid[r][c] = -1

    yield from rec(0)


def lp_max_by_vertex_enumeration(A, b, c) -> Fraction:
    """Exact LP max by brute force over basic feasible points.

    max c.x s.t. Ax <= b, x >= 0, all data rational.  Enumerates every
    choice of n tight constraints among the m rows and n sign constraints,
    solves the linear system, and keeps the best feasible solution.
    """
    m, n = len(A), len(c)
    rows = [list(map(Fraction, row)) for row in A]
    b = list(map(Fraction, b))
    c = list(map(Fraction, c))
    best = Fraction(0)  # x = 0 feasible since b >= 0
    for combo in itertools.combinations(range(m + n), n):
        sys_rows = []
        sys_rhs = []
        for idx in combo:
            if idx < m:
                sys_rows.append(rows[idx][:])
                sys_rhs.append(b[idx])
            else:
                var = idx - m
                sys_rows.append(
                    [Fraction(1) if j == var else Fraction(0) for j in range(n)]
                )
                sys_rhs.append(Fraction(0))
        x = _solve_square(sys_rows, sys_rhs)
        if x is None:
            continue
        if any(xi < 0 for xi in x):
            continue
        if any(sum(r[j] * x[j] for j in range(n)) > bi for r, bi in zip(rows, b)):
            continue
        value = sum(ci * xi for ci, xi in zip(c, x))
        if value > best:
            best = value
    return best


def _solve_square(A, b):
    n = len(A)
    M = [row[:] + [rhs] for row, rhs in zip(A, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            return None  # singular: no unique solution
        M[col], M[pivot] = M[pivot], M[col]
        inv = M[col][col]
        M[col] = [v / inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [v - f * p for v, p in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def latin_text(rect: LatinRectangle) -> str:
    """The grid as ``parse_latin`` reads it: one line of symbols per row."""
    return "".join(" ".join(rect.symbols[s] for s in row) + "\n" for row in rect.grid)


def complete_biorientation(q: int, rainbow: bool = True) -> LabelledDigraph:
    """All ordered pairs present; labels all distinct when rainbow."""
    arcs = [
        (u, v, 1000 + u * q + v if rainbow else 1000)
        for u in range(q)
        for v in range(q)
        if u != v
    ]
    return LabelledDigraph(q, arcs, vertex_labels=tuple(range(q)))


# --- removal verdicts by brute force: every removal set, one search per pair -


def reference_path_avoids(D: LabelledDigraph, x: int, y: int, S, max_len: int, mode: str) -> bool:
    """Whether some x -> y path of length <= max_len survives the removal of
    S: a BFS over the vertices outside S in ``"uncoloured"`` mode, otherwise
    the kernel's rainbow paths under ``mode`` with the colours S forbidden."""
    if mode == "uncoloured":
        reached = frontier = {x}
        for _ in range(max_len):
            frontier = {a.head for v in frontier for a in D.out_arcs(v)} - reached - set(S)
            reached = reached | frontier
        return y in reached
    paths = iter_rainbow_paths(D, x, target=y, max_len=max_len, mode=mode, forbidden=frozenset(S))
    return next(paths, None) is not None


def reference_kd_connected(D: LabelledDigraph, A: Iterable[int], k: int, d: int, mode: str) -> bool:
    """``is_kd_connected`` by sweeping every removal set.

    In ``"uncoloured"`` mode S runs over every set of at most k-1 vertices
    and the pairs over A minus S.  Otherwise S runs over every set of
    min(k-1, |labels|) colours, where the labels are the arc colours unless
    the mode is ``"vertex"`` and the vertex colours unless it is ``"edge"``.
    """
    A = sorted(set(A))
    pairs = [(x, y) for x in A for y in A if x != y]
    if mode == "uncoloured":
        n = D.vertex_count
        sets = itertools.chain.from_iterable(
            itertools.combinations(range(n), r) for r in range(min(k - 1, n) + 1)
        )
        return all(
            reference_path_avoids(D, x, y, S, d, mode)
            for S in sets
            for x, y in pairs
            if x not in S and y not in S
        )
    labels = set() if mode == "vertex" else {a.label for a in D.arcs}
    if mode != "edge":
        labels.update(D.vertex_labels)
    return all(
        reference_path_avoids(D, x, y, S, d, mode)
        for S in itertools.combinations(sorted(labels, key=repr), min(k - 1, len(labels)))
        for x, y in pairs
    )


def reference_property_I(D: LabelledDigraph, u: int, v: int, k: int) -> bool:
    """``verify_property_I`` by sweeping every set of min(k, |colours|) arc
    colours; false when u == v."""
    colours = sorted({a.label for a in D.arcs})
    max_len = max(D.vertex_count - 1, 1)
    return u != v and all(
        reference_path_avoids(D, u, v, S, max_len, "edge")
        for S in itertools.combinations(colours, min(k, len(colours)))
    )


# --- seeded corpora used by both module tests and the acceptance gate ------


def greedy_suite(count: int = 500):
    for i in range(count):
        n = 2 + (i % 49)
        yield generate_instance(
            "random", n, 2 * n, False, seed=20_000 + i, left_size=2 * n, right_size=2 * n
        )


def switching_suite(count: int = 200):
    for i in range(count):
        n = 2 + (i % 6)
        yield generate_instance(
            "random", n, n + 1, True, seed=1000 + i, left_size=n + 2, right_size=n + 2
        )


def deficient_suite():
    """60 instances whose maximum rainbow matching misses exactly one colour.

    Isotopes of cyclic squares of even order have no transversal, so the
    optimum is order-1; the tests certify that per instance via the oracle.
    """
    for order in (2, 4, 6):
        for seed in range(20):
            yield square_to_graph(random_latin_square(order, seed=seed))


def golden_suite(count: int = 20):
    import math

    from rainbowmatch.golden import PHI

    for i in range(count):
        n = 1 + (i % 10)
        cs = math.ceil(PHI * n) + 3
        yield n, generate_instance(
            "random", n, cs, False, seed=900 + i, left_size=cs + 2, right_size=cs + 2
        )


def tight_text(order: int, seed: int) -> str:
    """order-1 whole rows of a random isotope of the cyclic square."""
    rng = random.Random(f"engine-snapshot/{order}/{seed}")
    rows, cols, syms = list(range(order)), list(range(order)), list(range(order))
    rng.shuffle(rows)
    rng.shuffle(cols)
    rng.shuffle(syms)
    edges = [
        (cols[j], syms[(rows[i] + cols[j]) % order], i)
        for i in range(order - 1)
        for j in range(order)
    ]
    rng.shuffle(edges)
    lines = [f"{order} {order} {order - 1}"] + [f"{x} {y} {c}" for x, y, c in edges]
    return "\n".join(lines) + "\n"


# --- colour slices: a graph's restriction and its matchings mapped back ---


def restrict(
    graph: ColouredBipartiteMultigraph,
    xs: Iterable[int] | None = None,
    ys: Iterable[int] | None = None,
    colours: Iterable[int] | None = None,
) -> tuple[ColouredBipartiteMultigraph, tuple[int, ...]]:
    """Subgraph keeping only the named vertices/colours.

    Vertex ids are preserved (vertices outside the slice just become
    isolated); colours are renumbered densely in ascending original order.
    Returns the subgraph plus the tuple mapping new colour id -> old id.
    """
    xset = None if xs is None else frozenset(xs)
    yset = None if ys is None else frozenset(ys)
    old_colours = (
        tuple(range(graph.colour_count)) if colours is None else tuple(sorted(set(colours)))
    )
    cmap = {old: new for new, old in enumerate(old_colours)}
    kept = [
        Edge(e.x, e.y, cmap[e.c])
        for e in graph.edges
        if e.c in cmap
        and (xset is None or e.x in xset)
        and (yset is None or e.y in yset)
    ]
    sub = ColouredBipartiteMultigraph(
        graph.left_size,
        graph.right_size,
        len(old_colours),
        kept,
        edge_disjoint=False,
    )
    return sub, old_colours


def relabel_matching(matching: RainbowMatching, colour_map: Sequence[int]) -> RainbowMatching:
    """Map a matching found in a restricted graph back to original colour ids."""
    return RainbowMatching(tuple(Edge(e.x, e.y, colour_map[e.c]) for e in matching))


def missing_colour(ctx) -> int:
    """The one colour a context's matching misses; fails unless exactly one."""
    (c,) = set(range(ctx.graph.colour_count)).difference(ctx.edge_of_colour)
    return c


def scan_switch_digraph(ctx, x_prime) -> LabelledDigraph:
    """The switch digraph built by scanning every edge of every colour and
    keeping those that start in X' (the library looks X' up instead)."""
    xset = frozenset(x_prime)
    graph = ctx.graph

    def label(c):
        e = ctx.edge_of_colour.get(c)  # a missing colour has none
        return STAR if e is None else e.x

    labels = tuple(map(label, range(graph.colour_count)))
    arcs = []
    for u in range(graph.colour_count):
        for e in graph.colour_classes[u]:
            if e.x not in xset:
                continue
            target = ctx.edge_of_y.get(e.y)
            if target is None or target.c == u:
                continue
            arcs.append((u, target.c, e.x))
    return LabelledDigraph(graph.colour_count, arcs, vertex_labels=labels)


def colour_path_to_switching(
    ctx: MatchingContext, D: LabelledDigraph, colours: Sequence[int]
) -> Switching:
    """The switching behind a colour path of ``ctx``'s switch digraph D.

    The i-th free edge is the graph edge behind the arc from the i-th colour
    to the next; the i-th matched edge is the matching edge of the colour
    that arc reaches.  Each arc is read from ``D.out_arcs``, so a lazy D
    builds only the out-lists of the colours the path leaves.
    """
    free, matched = [], []
    for a, b in zip(colours, colours[1:]):
        (arc,) = [arc for arc in D.out_arcs(a) if arc.head == b]
        head_edge = ctx.edge_of_colour[b]
        free.append(Edge(arc.label, head_edge.y, a))
        matched.append(head_edge)
    return Switching(tuple(free), tuple(matched))


def validate_switching(
    ctx: MatchingContext, x_prime: Iterable[int], sigma: Switching
) -> Verdict:
    """Check the five defining clauses; report the first violated one.

    (i) matched edges belong to the matching, free edges do not;
    (ii) paired edges share their colour;
    (iii) consecutive free/matched edges meet exactly in the matched edge's
    Y-endpoint; (iv) all other intersections are empty and colours are
    pairwise distinct; (v) free edges start in X'.
    """
    xset = frozenset(x_prime)
    e, m = sigma.free_edges, sigma.matched_edges
    if len(e) != len(m):
        return Verdict(False, "(structure) needs equal counts of e- and m-edges")
    if sigma.is_empty():
        return Verdict(True, None)
    medges = ctx.matching.edge_set()
    for i, ei in enumerate(e):
        if ei in medges:
            return Verdict(False, f"(i) e_{i} is a matching edge")
        if not ctx.graph.has_edge(ei):
            return Verdict(False, f"(i) e_{i} is not a graph edge")
    for i, mi in enumerate(m, start=1):
        if mi not in medges:
            return Verdict(False, f"(i) m_{i} is not a matching edge")
    for i in range(1, len(e)):
        if e[i].c != m[i - 1].c:
            return Verdict(False, f"(ii) e_{i} and m_{i} differ in colour")
    for i in range(len(m)):
        if e[i].y != m[i].y or e[i].x == m[i].x:
            return Verdict(
                False, f"(iii) e_{i} and m_{i + 1} must share exactly the Y-endpoint"
            )
    colours = [e[0].c] + [mi.c for mi in m]
    if len(set(colours)) != len(colours):
        return Verdict(False, "(iv) colours are not pairwise distinct")
    for i in range(len(e)):
        for j in range(len(e)):
            if i != j and (e[i].x == e[j].x or e[i].y == e[j].y):
                return Verdict(False, f"(iv) e_{i} and e_{j} intersect")
    for i in range(len(e)):
        for j in range(len(m)):
            if i != j and (e[i].x == m[j].x or e[i].y == m[j].y):
                return Verdict(False, f"(iv) e_{i} and m_{j + 1} intersect")
    for i, ei in enumerate(e):
        if ei.x not in xset:
            return Verdict(False, f"(v) e_{i} starts outside X'")
    return Verdict(True, None)


def clashing_label_digraphs(count: int, seed: str = "proper-labelling"):
    """Small shuffled digraphs with parallel arcs whose integer labels clash.

    Arc labels come from a palette of 2..n+1 colours, so in-arcs at a head
    often repeat a label, and out-arcs do when a tail draws its labels with
    replacement.  Vertex labels mostly lie clear of the arc palette, and
    sometimes repeat one another.
    """
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 6)
        palette = rng.randint(2, n + 1)
        shift = rng.choice((0, palette, palette, palette))
        if rng.random() < 0.9:
            labels = tuple(shift + x for x in rng.sample(range(n + palette), n))
        else:
            labels = tuple(shift + rng.randrange(n + palette) for _ in range(n))
        rainbow_out = rng.random() < 0.7
        arcs: dict = {}  # ordered, without repeats
        for u in range(n):
            k = rng.randint(0, palette)
            if rainbow_out:
                out_labels = rng.sample(range(palette), k)
            else:
                out_labels = [rng.randrange(palette) for _ in range(k)]
            for label in out_labels:
                w = rng.randrange(n - 1)
                arcs[(u, w + (w >= u), label)] = None
        order = list(arcs)
        rng.shuffle(order)  # D.arcs order differs from the out-arc sort
        yield LabelledDigraph(n, order, vertex_labels=labels)


def reference_proper_labelling(D: LabelledDigraph) -> str | None:
    """The first failure ``check_proper_labelling`` should name, from plain
    scans of ``D.arcs``; None when the labelling is proper.

    Vertex labels are checked first.  Then, vertex by vertex: a repeat among
    its out-arcs in (head, label) order, a repeat among its in-arcs in
    ``D.arcs`` order, and an incident arc with the vertex's own label.
    Integer arc labels only.
    """
    labels = D.vertex_labels
    if labels is None:
        return "digraph has no vertex labels"
    for v, label in enumerate(labels):
        if label in labels[:v]:
            return f"vertices {labels.index(label)} and {v} share label {label!r}"
    for v in range(D.vertex_count):
        outs = sorted((a for a in D.arcs if a.tail == v), key=lambda a: (a.head, a.label))
        ins = [a for a in D.arcs if a.head == v]
        for side, arcs in (("out", outs), ("in", ins)):
            for i, a in enumerate(arcs):
                if any(b.label == a.label for b in arcs[:i]):
                    return f"two {side}-arcs at {v} share label {a.label!r}"
        if any(a.label == labels[v] for a in outs + ins):
            return f"vertex {v} shares label {labels[v]!r} with incident arc"
    return None


def assert_built_as_by_constructor(D: LabelledDigraph) -> None:
    """D, assembled from its producer's out-lists, equals the digraph the
    public constructor builds from D's arcs and labels: in out-lists, in the
    per-head index and in vertex labels.  Each out-list is a tuple, read
    through ``out_arcs``, which builds it if D builds its rows lazily.  Its
    ``arcs`` are ``Arc``s read tail by tail, so they hold the constructor's
    out-arcs, sorted."""
    want = LabelledDigraph(D.vertex_count, D.arcs, D.vertex_labels)
    for v in range(D.vertex_count):
        assert type(D.out_arcs(v)) is tuple
        assert D.out_arcs(v) == want.out_arcs(v)
    for v in range(D.vertex_count):
        assert D.arcs_into(v) == want.arcs_into(v)
    assert D.vertex_labels == want.vertex_labels
    assert D.arcs == tuple(itertools.chain.from_iterable(want._out))
    assert all(type(a) is Arc for a in D.arcs)
