"""Exact ground truth by exhaustive search.

These solvers are deliberately simple and budgeted: branch and bound over
colour classes for maximum rainbow matchings, and one bounded search tree
over removal sets for the connectivity predicates and property (I).  Every
verdict is exact; a search that runs out of budget raises rather than
guess.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from time import monotonic
from typing import Iterable, Sequence

from .budget import CLOCK_STRIDE, BudgetMeter, SearchBudget
from .core import ColouredBipartiteMultigraph, Edge, RainbowMatching
from .digraph import LabelledDigraph, iter_rainbow_paths, mode_labels

__all__ = [
    "OracleResult",
    "exact_max_rainbow_matching",
    "is_rainbow_k_edge_connected",
    "is_kd_connected",
    "ConnectivityVerdict",
]

EXHAUSTIVE = "exhaustive"
VACUOUS = "vacuous"

# Bits (table entries times live-edge mask width) the dead-state table of
# one oracle call may hold.
_DEAD_BITS = 1 << 21
# Bits the kill masks cached by one oracle call may hold.
_KILL_BITS = 1 << 21


class _Stop(Exception):
    """Ends the search early; args[0] is the OracleResult.stop it gives."""


@dataclass(frozen=True)
class OracleResult:
    matching: RainbowMatching
    optimal: bool
    nodes: int
    stop: str  # "complete" | "node_limit" | "time_limit" | "recursion"

    @property
    def size(self) -> int:
        return self.matching.size


@dataclass(frozen=True)
class ConnectivityVerdict:
    """An exact removal verdict.  ``checked`` is the number of nodes of the
    removal search tree, one path search each; ``witness`` is the (S, x, y)
    that failed, when any."""

    connected: bool
    mode: str  # "exhaustive", or "vacuous" for a set of at most one vertex
    checked: int
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.connected


def _class_layout(widths: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Bit masks of consecutive classes of the given widths (each >= 1),
    lowest bits first: ``(class_mask, tops, rest)``.

    class_mask[i] covers class i, tops[i] holds the top bit of every class
    from i on (tops[len(widths)] is 0), and rest every bit that is not a
    top.  For any mask ``live``, the top bit of class j is set in
    ``((live & rest) + rest) | live`` exactly when live meets class j: a
    live bit below the top carries into it, and the carry stops there.
    """
    class_mask: list[int] = []
    tops = [0] * (len(widths) + 1)
    first = 0
    for i, width in enumerate(widths):
        class_mask.append(((1 << width) - 1) << first)
        first += width
        tops[i] = 1 << first - 1
    for i in reversed(range(len(widths))):
        tops[i] |= tops[i + 1]
    return class_mask, tops, ((1 << first) - 1) ^ tops[0]


def exact_max_rainbow_matching(
    graph: ColouredBipartiteMultigraph, budget: SearchBudget | None = None
) -> OracleResult:
    """Maximum-size rainbow matching, by branch and bound.

    Branches per colour on "use edge e" / "leave the colour unused", with
    colours ordered by ascending class size (fail-first).  The state is one
    int of live edges: an edge dies when its colour is decided or it shares
    an endpoint with a placed edge.  A node is cut when current size +
    remaining colours cannot beat the best found.  When beating it needs
    every remaining colour, a node is also cut if one of them has no live
    edge left (forward check, one bit test by ``_class_layout``), and
    leaving a colour unused is not tried.  The bound never cuts a strictly
    better matching, so the optimum returned is the first one the plain
    size bound would find.

    A parent counts each child against the budget and runs the child's
    cuts itself; it recurses only into children that survive them.
    ``nodes`` counts every child visited, cut or not, so it is the size of
    the search tree.  Each edge's kill mask ``~(class | x | y)`` is cached
    the first time it is used, up to ``_KILL_BITS`` bits of masks.

    A table of dead states remembers each live mask whose slack-0 subtree
    found no full completion, and cuts the mask when it recurs.  This is
    sound because a mask stored at colour index i has live bits only in
    classes >= i and one in class i, so the mask alone fixes both i and
    the remaining subproblem, whatever ``best`` becomes later.  A subtree cut
    short by the budget is never stored.  The table stops growing at
    ``_DEAD_BITS`` bits of masks.  Both the table and the kill-mask cache
    are freed when the call returns.

    On budget exhaustion, or when the search recurses past the
    interpreter's recursion limit (about 990 colours at the default limit),
    the best matching found so far is returned with ``optimal=False``, and
    ``stop`` says which limit ended the search.
    """
    order = sorted(
        (c for c in range(graph.colour_count) if graph.colour_classes[c]),
        key=lambda c: (len(graph.colour_classes[c]), c),
    )
    upper = len(order)

    # Edge k is bit k, numbered in class-scan order: colours in `order`,
    # each class's edges as stored.
    edges = list(itertools.chain.from_iterable(map(graph.colour_classes.__getitem__, order)))
    x_mask = [0] * graph.left_size
    y_mask = [0] * graph.right_size
    bit = 1
    for x, y, _ in edges:
        x_mask[x] |= bit
        y_mask[y] |= bit
        bit <<= 1
    class_mask, tops, rest = _class_layout([len(graph.colour_classes[c]) for c in order])
    live = (1 << len(edges)) - 1

    meter = BudgetMeter(budget)
    node_limit, deadline = meter.node_limit, meter.deadline
    nodes = 1  # the root
    last = len(order) - 1
    best: list[Edge] = []
    best_len = 0
    current: list[Edge] = []
    dead: set[int] = set()  # live masks with no full completion, found at slack 0
    dead_cap = _DEAD_BITS // max(len(edges), 1)
    kills: list[int | None] = [None] * len(edges)  # ~(class | x | y) of each edge used
    kill_room = _KILL_BITS // max(len(edges), 1)

    def search(i: int, live: int, size: int) -> None:
        """Visit the children of the node at colour i.  The node itself was
        counted, and not cut, by its parent."""
        nonlocal best, best_len, nodes, kill_room
        slack = size + last - i - best_len
        before = best_len
        cls = class_mask[i]
        later = tops[i + 1]
        cand = live & cls
        while cand:
            low = cand & -cand
            cand ^= low
            k = low.bit_length() - 1
            kill = kills[k]
            if kill is None:
                e = edges[k]
                kill = ~(cls | x_mask[e.x] | y_mask[e.y])
                if kill_room:
                    kills[k] = kill
                    kill_room -= 1
            child = live & kill
            nodes += 1
            if nodes > node_limit or not nodes % CLOCK_STRIDE and monotonic() > deadline:
                raise _Stop("node_limit" if nodes > node_limit else "time_limit")
            if size == best_len:  # the child beats best
                best = current + [edges[k]]
                best_len += 1
                if best_len == upper:
                    raise _Stop("complete")
            child_slack = size + last - i - best_len
            if child_slack > 0 or not child_slack and child not in dead and (
                ((child & rest) + rest) | child
            ) & later == later:
                current.append(edges[k])
                search(i + 1, child, size + 1)
                current.pop()
        if slack:  # with no slack, leaving colour i unused cannot beat best
            child = live & ~cls
            nodes += 1
            if nodes > node_limit or not nodes % CLOCK_STRIDE and monotonic() > deadline:
                raise _Stop("node_limit" if nodes > node_limit else "time_limit")
            child_slack = size + last - i - 1 - best_len
            if child_slack > 0 or not child_slack and child not in dead and (
                ((child & rest) + rest) | child
            ) & later == later:
                search(i + 1, child, size)
        elif best_len == before and len(dead) < dead_cap:
            dead.add(live)

    stop = "complete"
    try:
        if order:
            search(0, live, 0)
    except _Stop as halt:
        stop = halt.args[0]
    except RecursionError:
        # one frame per colour: past the interpreter's limit the search stops
        # unproved; the cut-off subtrees never reached `dead.add`
        stop = "recursion"
    finally:
        del search  # the closure refers to itself; break the cycle, free the tables
    meter.nodes = nodes
    matching = RainbowMatching(tuple(sorted(best, key=lambda e: (e.c, e.x, e.y))))
    return OracleResult(matching, stop == "complete", nodes, stop)


def removal_verdict(
    D: LabelledDigraph,
    pairs: Iterable[tuple[int, int]],
    r: int,
    max_len: int,
    mode: str,
    meter: BudgetMeter,
) -> ConnectivityVerdict:
    """Whether every (x, y) in ``pairs`` keeps a path of length <= max_len
    after any removal of at most r labels: vertices other than x and y in
    ``"uncoloured"`` mode, colours under the kernel's ``mode`` otherwise.

    Per pair, the bounded search tree for hitting sets (Cygan et al.,
    *Parameterized Algorithms*, 2015, ch. 3): a node S finds one path that
    avoids S, and while |S| < r branches on each label that would kill it.
    Any set that kills every path contains one of those labels, so the tree
    reaches a killing set whenever one of size <= r exists.  Each set is
    searched once per pair, and each tree node ticks ``meter``.  The first
    (S, x, y) with no path is the witness; ``checked`` counts tree nodes.
    """
    if mode == "uncoloured":

        def survivor(x: int, y: int, S: frozenset) -> list | None:
            return _bfs_inner_vertices(D, x, y, S, max_len)

        def kill(path: list) -> list:
            return path

    else:
        arc_labels, vertex_labels = mode_labels(D, mode)

        def survivor(x: int, y: int, S: frozenset) -> tuple | None:
            paths = iter_rainbow_paths(
                D, x, target=y, max_len=max_len, mode=mode, forbidden=S, meter=meter
            )
            return next(paths, None)

        def kill(path: tuple) -> list:
            labels = [a.label for a in path] if arc_labels else []
            if vertex_labels is not None:
                labels += [vertex_labels[a.head] for a in path[:-1]]
            return labels

    checked = 0
    for x, y in pairs:
        stack = [frozenset()]
        seen = set(stack)
        while stack:
            S = stack.pop()
            meter.tick()
            checked += 1
            path = survivor(x, y, S)
            if path is None:
                return ConnectivityVerdict(False, EXHAUSTIVE, checked, (S, x, y))
            if len(S) < r:
                for label in kill(path):
                    T = S | {label}
                    if T not in seen:
                        seen.add(T)
                        stack.append(T)
    return ConnectivityVerdict(True, EXHAUSTIVE, checked)


def is_rainbow_k_edge_connected(
    D: LabelledDigraph,
    k: int,
    budget: SearchBudget | None = None,
    pairs: Sequence[tuple[int, int]] | None = None,
) -> ConnectivityVerdict:
    """Rainbow k-edge-connectivity: every <= (k-1)-colour removal leaves a
    rainbow path between every ordered pair (or the given pairs).

    Exact, by ``removal_verdict`` on one meter.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    n = D.vertex_count
    if pairs is None:
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    return removal_verdict(D, pairs, k - 1, max(n - 1, 0), "edge", BudgetMeter(budget))


def is_kd_connected(
    D: LabelledDigraph,
    A: Iterable[int],
    k: int,
    d: int,
    mode: str = "uncoloured",
    budget: SearchBudget | None = None,
) -> ConnectivityVerdict:
    """(k, d)-connectedness of a vertex set A inside D.

    ``uncoloured`` quantifies the removal set S over sets of at most k-1
    vertices (for each pair x, y of A outside S, a path of length <= d
    avoids S).
    The coloured modes (``edge`` / ``vertex`` / ``total``) quantify S over
    colour sets and ask for rainbow paths of length <= d internally avoiding
    S, under the matching convention.  Exact, by ``removal_verdict`` on one
    meter; a set A of at most one vertex is vacuously connected.  A vertex
    of A outside D raises ``ValueError`` in every mode, as the kernel does.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    A = sorted(set(A))
    for v in A:
        if not 0 <= v < D.vertex_count:
            raise ValueError(f"vertex {v} is not among the digraph's {D.vertex_count} vertices")
    if len(A) <= 1:
        return ConnectivityVerdict(True, VACUOUS, 0)
    pairs = [(x, y) for x in A for y in A if x != y]
    return removal_verdict(D, pairs, k - 1, d, mode, BudgetMeter(budget))


def _bfs_inner_vertices(
    D: LabelledDigraph, x: int, y: int, S: frozenset, max_len: int
) -> list[int] | None:
    """The inner vertices of one shortest x -> y path of length <= max_len
    that avoids S, or None when there is none."""
    parent = {x: x}
    frontier = [x]
    depth = 0
    while frontier and depth < max_len:
        depth += 1
        nxt = []
        for v in frontier:
            for arc in D.out_arcs(v):
                w = arc.head
                if w in parent or w in S:
                    continue
                if w == y:
                    inner = []
                    while v != x:
                        inner.append(v)
                        v = parent[v]
                    return inner
                parent[w] = v
                nxt.append(w)
        frontier = nxt
    return None
