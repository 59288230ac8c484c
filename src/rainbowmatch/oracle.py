"""Exact ground truth by exhaustive search.

These solvers are deliberately simple and budgeted: branch and bound over
colour classes for maximum rainbow matchings, and exhaustive (or explicitly
sampled) quantifier sweeps for the connectivity predicates.  Every verdict
records whether it was proved exhaustively or merely sampled; the two are
never silently mixed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from time import monotonic
from typing import Iterable, Sequence

from .budget import CLOCK_STRIDE, BudgetMeter, SearchBudget
from .core import ColouredBipartiteMultigraph, Edge, RainbowMatching
from .digraph import LabelledDigraph, iter_rainbow_paths, mode_labels
from .rng import SplitMix64

__all__ = [
    "OracleResult",
    "exact_max_rainbow_matching",
    "is_rainbow_k_edge_connected",
    "is_kd_connected",
    "ConnectivityVerdict",
]

EXHAUSTIVE = "exhaustive"
SAMPLED = "sampled"
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
    connected: bool
    mode: str  # "exhaustive" | "sampled" | "vacuous"
    checked: int
    witness: tuple | None = None  # (S, x, y) that failed, when any

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


def _work_meter(budget: SearchBudget | None) -> BudgetMeter:
    """Inner-work meter for the quantifier sweeps.

    For the connectivity predicates the budget's node_limit bounds the
    quantifier space (exhaustive vs sampled); the per-probe search work is
    guarded by the time limit alone.
    """
    budget = budget or SearchBudget()
    return BudgetMeter(SearchBudget(time_limit=budget.time_limit))


def _sweep(every, total, draw, fails, budget, samples) -> ConnectivityVerdict:
    """The first witness (S, x, y) that ``fails(S)`` returns decides.  S runs
    over all ``total`` sets of ``every`` when they fit the node limit, and
    over ``samples`` sets from ``draw()`` otherwise."""
    if total <= budget.node_limit:
        mode, sets = EXHAUSTIVE, every
    else:
        mode, sets = SAMPLED, (draw() for _ in range(samples))
    checked = 0
    for S in sets:
        checked += 1
        witness = fails(frozenset(S))
        if witness is not None:
            return ConnectivityVerdict(False, mode, checked, witness)
    return ConnectivityVerdict(True, mode, checked)


def _coloured_verdict(D, colours, k, pairs, max_len, mode, budget, samples, seed):
    """Whether every removal of min(k-1, |colours|) colours leaves, for each
    (x, y) in ``pairs``, a rainbow x -> y path of length <= max_len avoiding
    them under ``mode`` (edge / vertex / total)."""
    meter = _work_meter(budget)
    r = min(k - 1, len(colours))
    rng = SplitMix64(seed)

    def fails(S: frozenset) -> tuple | None:
        for x, y in pairs:
            meter.tick()
            paths = iter_rainbow_paths(
                D,
                x,
                target=y,
                max_len=max_len,
                mode=mode,
                forbidden=S,
                meter=meter,
            )
            if next(paths, None) is None:
                return S, x, y
        return None

    return _sweep(
        itertools.combinations(colours, r),
        math.comb(len(colours), r),
        lambda: [colours[j] for j in rng.sample_ids(len(colours), r)],
        fails,
        budget,
        samples,
    )


def is_rainbow_k_edge_connected(
    D: LabelledDigraph,
    k: int,
    budget: SearchBudget | None = None,
    pairs: Sequence[tuple[int, int]] | None = None,
    samples: int = 200,
    seed: int = 0,
) -> ConnectivityVerdict:
    """Rainbow k-edge-connectivity: every <= (k-1)-colour removal leaves a
    rainbow path between every ordered pair (or the given pairs).

    Exhaustive over removal sets when their count fits the node budget,
    otherwise uniformly sampled with the sample count reported.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if samples < 1:
        raise ValueError("samples must be positive")
    budget = budget or SearchBudget()
    n = D.vertex_count
    if pairs is None:
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    colours = sorted(D.edge_labels(), key=repr)
    return _coloured_verdict(
        D, colours, k, pairs, max(n - 1, 0), "edge", budget, samples, seed
    )


def is_kd_connected(
    D: LabelledDigraph,
    A: Iterable[int],
    k: int,
    d: int,
    mode: str = "uncoloured",
    budget: SearchBudget | None = None,
    samples: int = 200,
    seed: int = 0,
) -> ConnectivityVerdict:
    """(k, d)-connectedness of a vertex set A inside D.

    ``uncoloured`` quantifies the removal set S over vertex subsets of size
    at most k-1 (paths avoid S entirely; pairs are drawn from A minus S).
    The coloured modes (``edge`` / ``vertex`` / ``total``) quantify S over
    colour sets and ask for rainbow paths of length <= d internally avoiding
    S, under the matching convention.  Exhaustive when the quantifier space
    fits the budget, otherwise sampled; the verdict says which.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if samples < 1:
        raise ValueError("samples must be positive")
    budget = budget or SearchBudget()
    A = sorted(set(A))
    if len(A) <= 1:
        return ConnectivityVerdict(True, VACUOUS, 0)

    if mode == "uncoloured":
        meter = _work_meter(budget)
        rng = SplitMix64(seed)
        n = D.vertex_count
        top = min(k - 1, n)

        def fails(S: frozenset) -> tuple | None:
            members = [a for a in A if a not in S]
            for x in members:
                meter.tick()
                dists = _bfs_avoiding(D, x, S, d)
                for y in members:
                    if y != x and y not in dists:
                        return S, x, y
            return None

        return _sweep(
            itertools.chain.from_iterable(
                itertools.combinations(range(n), r) for r in range(top + 1)
            ),
            sum(math.comb(n, r) for r in range(top + 1)),
            lambda: rng.sample_ids(n, rng.below(top + 1)),
            fails,
            budget,
            samples,
        )

    arc_labels, vertex_labels = mode_labels(D, mode)
    universe = set(D.edge_labels()) if arc_labels else set()
    universe.update(vertex_labels or ())
    pairs = [(x, y) for x in A for y in A if x != y]
    return _coloured_verdict(
        D, sorted(universe, key=repr), k, pairs, d, mode, budget, samples, seed
    )


def _bfs_avoiding(
    D: LabelledDigraph, x: int, S: frozenset, max_len: int
) -> dict[int, int]:
    dist = {x: 0}
    frontier = [x]
    depth = 0
    while frontier and depth < max_len:
        depth += 1
        nxt = []
        for v in frontier:
            for arc in D.out_arcs(v):
                w = arc.head
                if w in dist or w in S:
                    continue
                dist[w] = depth
                nxt.append(w)
        frontier = nxt
    return dist
