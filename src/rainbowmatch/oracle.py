"""Exact ground truth by exhaustive search.

These solvers are deliberately simple and budgeted: branch and bound over
colour classes for maximum rainbow matchings, and exhaustive (or explicitly
sampled) quantifier sweeps for the connectivity predicates.  Every verdict
records whether it was proved exhaustively or merely sampled; the two are
never silently mixed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .budget import BudgetMeter, SearchBudget
from .core import (
    ColouredBipartiteMultigraph,
    Edge,
    MatchingContext,
    RainbowMatching,
)
from .digraph import Arc, LabelledDigraph, iter_rainbow_paths
from .errors import BudgetExceeded, InfeasibleConstraints
from .rng import SplitMix64

__all__ = [
    "SearchBudget",
    "OracleResult",
    "exact_max_rainbow_matching",
    "enumerate_rainbow_paths",
    "is_rainbow_k_edge_connected",
    "is_kd_connected",
    "free_set_check",
    "ConnectivityVerdict",
]

EXHAUSTIVE = "exhaustive"
SAMPLED = "sampled"
VACUOUS = "vacuous"


@dataclass(frozen=True)
class OracleResult:
    matching: RainbowMatching
    optimal: bool
    nodes: int

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
    edge left (forward check), and leaving a colour unused is not tried.
    The bound never cuts a strictly better matching, so the optimum
    returned is the first one the plain size bound would find.  ``required`` edges are forced into the
    output, ``forbidden_x`` vertices and ``forbidden_colours`` are never
    touched.  On budget exhaustion the best matching found so far is
    returned with ``optimal=False``.
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
    edges = [e for c in order for e in graph.colour_classes[c]]
    x_mask = [0] * graph.left_size
    y_mask = [0] * graph.right_size
    bit = 1
    for x, y, _ in edges:
        x_mask[x] |= bit
        y_mask[y] |= bit
        bit <<= 1
    class_mask: list[int] = []
    first = 0
    for c in order:
        n_edges = len(graph.colour_classes[c])
        class_mask.append(((1 << n_edges) - 1) << first)
        first += n_edges
    later_masks = [class_mask[i:] for i in range(len(order))]
    live = (1 << len(edges)) - 1
    for x in forb_x | used_x:
        if 0 <= x < graph.left_size:
            live &= ~x_mask[x]
    for y in used_y:
        live &= ~y_mask[y]

    meter = BudgetMeter(budget)
    best: list[Edge] = list(required)
    current: list[Edge] = list(required)
    optimal = True
    done = False

    def search(i: int, live: int) -> None:
        nonlocal best, optimal, done
        try:
            meter.tick()
        except BudgetExceeded:
            optimal = False
            done = True
            return
        size = len(current)
        if size > len(best):
            best = list(current)
            if size == upper:
                done = True
                return
        slack = size + len(order) - i - len(best) - 1
        if slack < 0:
            return
        if slack == 0:  # beating best needs every colour left: each must keep a live edge
            for m in later_masks[i]:
                if not live & m:
                    return
        cand = live & class_mask[i]
        while cand:
            low = cand & -cand
            cand ^= low
            e = edges[low.bit_length() - 1]
            current.append(e)
            search(i + 1, live & ~(class_mask[i] | x_mask[e.x] | y_mask[e.y]))
            current.pop()
            if done:
                return
        if slack:  # with no slack, leaving colour i unused cannot beat best
            search(i + 1, live & ~class_mask[i])

    search(0, live)
    matching = RainbowMatching(tuple(sorted(best, key=lambda e: (e.c, e.x, e.y))))
    return OracleResult(matching, optimal, meter.nodes)


def enumerate_rainbow_paths(
    D: LabelledDigraph,
    u: int,
    v: int,
    max_len: int,
    forbidden_colours: Iterable = (),
    mode: str = "edge",
    budget: SearchBudget | None = None,
) -> tuple[tuple[Arc, ...], ...]:
    """All rainbow u -> v paths of length <= max_len, lexicographic order.

    In ``edge`` mode only edge colours must be pairwise distinct and avoid
    the forbidden set; ``total`` mode adds internal vertex colours to both
    requirements (endpoints exempt).
    """
    forb = frozenset(forbidden_colours)
    meter = BudgetMeter(budget)
    scope = "none" if mode == "edge" else "internal"
    return tuple(
        iter_rainbow_paths(
            D,
            u,
            target=v,
            max_len=max_len,
            edge_rainbow=True,
            vertex_scope=scope,
            forbidden=forb,
            meter=meter,
        )
    )


def _work_meter(budget: SearchBudget | None) -> BudgetMeter:
    """Inner-work meter for the quantifier sweeps.

    For the connectivity predicates the budget's node_limit bounds the
    quantifier space (exhaustive vs sampled); the per-probe search work is
    guarded by the time limit alone.
    """
    budget = budget or SearchBudget()
    return BudgetMeter(SearchBudget(time_limit=budget.time_limit))


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
    budget = budget or SearchBudget()
    colours = sorted(D.edge_labels(), key=repr)
    r = min(k - 1, len(colours))
    if pairs is None:
        pairs = [
            (u, v)
            for u in range(D.vertex_count)
            for v in range(D.vertex_count)
            if u != v
        ]
    n_sets = _binomial(len(colours), r)
    meter = _work_meter(budget)
    max_len = max(D.vertex_count - 1, 0)

    def check_sets(sets, mode, total):
        checked = 0
        for S in sets:
            fs = frozenset(S)
            checked += 1
            for u, v in pairs:
                paths = iter_rainbow_paths(
                    D, u, target=v, max_len=max_len, forbidden=fs, meter=meter
                )
                if next(paths, None) is None:
                    return ConnectivityVerdict(False, mode, checked, (fs, u, v))
        return ConnectivityVerdict(True, mode, total if mode == EXHAUSTIVE else checked)

    if n_sets <= budget.node_limit:
        return check_sets(itertools.combinations(colours, r), EXHAUSTIVE, n_sets)
    rng = SplitMix64(seed)
    sampled = ([colours[i] for i in rng.sample_ids(len(colours), r)] for _ in range(samples))
    return check_sets(sampled, SAMPLED, samples)


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
    budget = budget or SearchBudget()
    A = sorted(set(A))
    if len(A) <= 1:
        return ConnectivityVerdict(True, VACUOUS, 0)
    meter = _work_meter(budget)

    if mode == "uncoloured":
        universe = list(range(D.vertex_count))
        total = 0
        for r in range(min(k - 1, len(universe)) + 1):
            total += _binomial(len(universe), r)
        exhaustive = total <= budget.node_limit

        def uncoloured_ok(S: frozenset) -> tuple[bool, tuple | None]:
            members = [a for a in A if a not in S]
            for x in members:
                meter.tick()
                dists = _bfs_avoiding(D, x, S, d)
                for y in members:
                    if y != x and y not in dists:
                        return False, (S, x, y)
            return True, None

        if exhaustive:
            checked = 0
            for r in range(min(k - 1, len(universe)) + 1):
                for S in itertools.combinations(universe, r):
                    checked += 1
                    ok, wit = uncoloured_ok(frozenset(S))
                    if not ok:
                        return ConnectivityVerdict(False, EXHAUSTIVE, checked, wit)
            return ConnectivityVerdict(True, EXHAUSTIVE, checked)
        rng = SplitMix64(seed)
        for i in range(samples):
            r = rng.below(min(k - 1, len(universe)) + 1)
            S = frozenset(rng.sample_ids(len(universe), r))
            ok, wit = uncoloured_ok(S)
            if not ok:
                return ConnectivityVerdict(False, SAMPLED, i + 1, wit)
        return ConnectivityVerdict(True, SAMPLED, samples)

    if mode not in ("edge", "vertex", "total"):
        raise ValueError(f"unknown mode {mode!r}")
    edge_rainbow = mode in ("edge", "total")
    vertex_scope = "none" if mode == "edge" else "all"
    universe_set: set = set()
    if mode in ("edge", "total"):
        universe_set |= set(D.edge_labels())
    if mode in ("vertex", "total"):
        if D.vertex_labels is None:
            raise ValueError("vertex/total mode needs vertex labels")
        universe_set |= set(D.vertex_labels)
    universe = sorted(universe_set, key=repr)
    r = min(k - 1, len(universe))

    def coloured_ok(S: frozenset) -> tuple[bool, tuple | None]:
        for x in A:
            for y in A:
                if x == y:
                    continue
                meter.tick()
                paths = iter_rainbow_paths(
                    D,
                    x,
                    target=y,
                    max_len=d,
                    edge_rainbow=edge_rainbow,
                    vertex_scope=vertex_scope,
                    forbidden=S,
                    meter=meter,
                )
                if next(paths, None) is None:
                    return False, (S, x, y)
        return True, None

    n_sets = _binomial(len(universe), r)
    if n_sets <= budget.node_limit:
        checked = 0
        for S in itertools.combinations(universe, r):
            checked += 1
            ok, wit = coloured_ok(frozenset(S))
            if not ok:
                return ConnectivityVerdict(False, EXHAUSTIVE, checked, wit)
        return ConnectivityVerdict(True, EXHAUSTIVE, checked)
    rng = SplitMix64(seed)
    for i in range(samples):
        S = frozenset(universe[j] for j in rng.sample_ids(len(universe), r))
        ok, wit = coloured_ok(S)
        if not ok:
            return ConnectivityVerdict(False, SAMPLED, i + 1, wit)
    return ConnectivityVerdict(True, SAMPLED, samples)


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
    if c in ctx.colours_of_xs(xp | tset):
        return False

    n = ctx.matching.size
    pinned = ctx.edges_of_xs(tset)
    c_edge = ctx.edge_of_colour.get(c)
    a_pool = sorted(
        (e for e in ctx.matching if e not in pinned and e != c_edge),
        key=lambda e: e.c,
    )
    b_pool = sorted(xp)
    if k > len(a_pool) or k > len(b_pool):
        return True  # no admissible (A, B) pair: vacuous

    n_a = _binomial(len(a_pool), k)
    n_b = _binomial(len(b_pool), k)
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


def _binomial(n: int, r: int) -> int:
    if r < 0 or r > n:
        return 0
    out = 1
    for i in range(r):
        out = out * (n - i) // (i + 1)
    return out
