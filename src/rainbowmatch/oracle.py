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
from .core import (
    ColouredBipartiteMultigraph,
    Edge,
    MatchingContext,
    RainbowMatching,
)
from .digraph import LabelledDigraph, iter_rainbow_paths
from .errors import BudgetExceeded, InfeasibleConstraints
from .rng import SplitMix64

__all__ = [
    "SearchBudget",
    "OracleResult",
    "exact_max_rainbow_matching",
    "is_rainbow_k_edge_connected",
    "is_kd_connected",
    "free_set_check",
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
    graph: ColouredBipartiteMultigraph,
    required: Iterable[Edge] = (),
    forbidden_x: Iterable[int] = (),
    forbidden_colours: Iterable[int] = (),
    budget: SearchBudget | None = None,
) -> OracleResult:
    """Maximum-size rainbow matching under constraints, by branch and bound.

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

    ``required`` edges are forced into the output, ``forbidden_x``
    vertices and ``forbidden_colours`` are never touched.  On budget
    exhaustion, or when the search recurses past the interpreter's
    recursion limit (about 990 colours at the default limit), the best
    matching found so far is returned with ``optimal=False``, and ``stop``
    says which limit ended the search.
    """
    required = tuple(Edge(*e) for e in required)
    forb_x = frozenset(forbidden_x)
    forb_c = frozenset(forbidden_colours)

    used_x: set[int] = set()
    used_y: set[int] = set()
    used_c: set[int] = set()
    for e in required:
        if not graph.has_edge(e):
            raise InfeasibleConstraints(f"required edge {tuple(e)} not in graph")
        if e.c in forb_c:
            raise InfeasibleConstraints(f"required edge {tuple(e)} has forbidden colour")
        if e.x in forb_x:
            raise InfeasibleConstraints(f"required edge {tuple(e)} touches forbidden X")
        if e.x in used_x or e.y in used_y or e.c in used_c:
            raise InfeasibleConstraints("required edges are not pairwise compatible")
        used_x.add(e.x)
        used_y.add(e.y)
        used_c.add(e.c)

    order = sorted(
        (
            c
            for c in range(graph.colour_count)
            if c not in used_c and c not in forb_c and graph.colour_classes[c]
        ),
        key=lambda c: (len(graph.colour_classes[c]), c),
    )
    upper = len(required) + len(order)

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
    for x in forb_x | used_x:
        if 0 <= x < graph.left_size:
            live &= ~x_mask[x]
    for y in used_y:
        live &= ~y_mask[y]

    meter = BudgetMeter(budget)
    node_limit, deadline = meter.node_limit, meter.deadline
    nodes = 1  # the root
    last = len(order) - 1
    best: list[Edge] = list(required)
    best_len = len(required)
    current: list[Edge] = list(required)
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
            search(0, live, len(required))
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
    edge_rainbow = mode in ("edge", "total")
    vertex_scope = "none" if mode == "edge" else "all"
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
                edge_rainbow=edge_rainbow,
                vertex_scope=vertex_scope,
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

    if mode not in ("edge", "vertex", "total"):
        raise ValueError(f"unknown mode {mode!r}")
    universe: set = set()
    if mode in ("edge", "total"):
        universe |= set(D.edge_labels())
    if mode in ("vertex", "total"):
        if D.vertex_labels is None:
            raise ValueError("vertex/total mode needs vertex labels")
        universe |= set(D.vertex_labels)
    pairs = [(x, y) for x in A for y in A if x != y]
    return _coloured_verdict(
        D, sorted(universe, key=repr), k, pairs, d, mode, budget, samples, seed
    )


def free_set_check(
    ctx: MatchingContext,
    x_prime: Iterable[int],
    T: Iterable[int],
    c: int,
    k: int,
    budget: SearchBudget | None = None,
) -> bool:
    """Decide the k-fold pin/avoid freeness of a vertex set, exhaustively.

    A set X' passes when it is disjoint from T, neither X' nor T covers an
    edge of colour c, and for every choice of k matching edges A (outside
    the T-pinned and colour-c edges) and k vertices B in X' clear of A there
    is a full-size rainbow matching that keeps A, avoids B, and misses
    colour c.  Each (A, B) pair is decided by the exact solver.
    """
    budget = budget or SearchBudget()
    xp = frozenset(x_prime)
    tset = frozenset(T)
    if xp & tset:
        return False
    c_edge = ctx.edge_of_colour.get(c)
    if c_edge is not None and c_edge.x in xp | tset:
        return False

    n = ctx.matching.size
    pinned = frozenset(ctx.edge_of_x[x] for x in tset if x in ctx.edge_of_x)
    a_pool = sorted(
        (e for e in ctx.matching if e not in pinned and e != c_edge),
        key=lambda e: e.c,
    )
    b_pool = sorted(xp)
    if k > len(a_pool) or k > len(b_pool):
        return True  # no admissible (A, B) pair: vacuous

    n_a = math.comb(len(a_pool), k)
    n_b = math.comb(len(b_pool), k)
    if n_a * n_b > budget.node_limit:
        raise BudgetExceeded(
            f"{n_a * n_b} (A, B) pairs exceed node limit {budget.node_limit}"
        )

    for A in itertools.combinations(a_pool, k):
        ax = {e.x for e in A}
        b_candidates = [b for b in b_pool if b not in ax]
        if len(b_candidates) < k:
            continue
        for B in itertools.combinations(b_candidates, k):
            result = exact_max_rainbow_matching(
                ctx.graph,
                required=A,
                forbidden_x=B,
                forbidden_colours=(c,),
                budget=budget,
            )
            if not result.optimal:
                raise BudgetExceeded("inner oracle call ran out of budget")
            if result.size < n:
                return False
    return True


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
