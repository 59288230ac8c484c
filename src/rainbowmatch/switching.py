"""Switching calculus: the switch digraph, exchanges, and the augmentation
engine that grows rainbow matchings one colour at a time.

A switching is an alternating sequence of non-matching and matching edges of
pairwise equal colours; applying it rewrites the matching while preserving
its size and Y-cover and trading the missing colour for the sequence's end
colour.  The switch digraph encodes, per ordered colour pair, the single-
colour reroutes available through a chosen X-vertex set; its rainbow paths
are exactly the valid switchings.  The calculus switches on the X side
only; the Y side is the same calculus on the transposed graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Sequence

from .budget import BudgetMeter, SearchBudget
from .core import (
    ColouredBipartiteMultigraph,
    Edge,
    MatchingContext,
    RainbowMatching,
    greedy_rainbow_matching,
    verify_rainbow_matching,
)
from .digraph import (
    Arc,
    LabelledDigraph,
    iter_shortest_first,
)
from .errors import (
    EmptyMatching,
    ExchangeNotApplicable,
    PreconditionViolated,
)

STAR = "*"  # vertex label of each missing colour in the switch digraph
ROTATION_LIMIT = 20000  # (state, c*) pairs one rotation search may expand
_HEAD = itemgetter(1)


@dataclass(frozen=True)
class Switching:
    """Alternating exchange sequence (e_0, m_1, e_1, ..., m_l).

    ``free_edges`` are the non-matching edges e_0..e_{l-1}; ``matched_edges``
    are the matching edges m_1..m_l.  It is valid when (i) matched edges
    belong to the matching and free edges do not; (ii) paired edges share
    their colour; (iii) e_{i-1} and m_i meet exactly in m_i's Y-endpoint;
    (iv) all other pairs are disjoint and the colours pairwise distinct;
    (v) free edges start in X'.
    """

    free_edges: tuple[Edge, ...]
    matched_edges: tuple[Edge, ...]

    def x_vertices(self) -> frozenset[int]:
        """X-endpoints of all edges of the switching."""
        return frozenset(e.x for e in self.free_edges) | frozenset(
            m.x for m in self.matched_edges
        )

    def is_empty(self) -> bool:
        return not self.free_edges and not self.matched_edges


@dataclass(frozen=True)
class AugmentFailure:
    """Outcome of an exhausted augmentation search; not a fault.

    ``switchings`` holds every switching the search tried, one per rainbow
    path from c* within the depth cap, sorted by colour path.  The heads of
    an out-list are distinct, so that is the preorder of one full walk of
    the switch digraph.  Their end colours are the colours the search
    reached; an empty matching has no switch digraph, and tries none.
    """

    switchings: tuple[Switching, ...]


def build_switch_digraph(ctx: MatchingContext, x_prime: Iterable[int]) -> LabelledDigraph:
    """Digraph on colours whose arcs are single-colour reroutes through X'.

    Vertices are the graph's colour ids.  Vertex labels are the matched
    X-endpoints of each colour, with every missing colour labelled "*"; an
    arc u -> v labelled x records a colour-u edge from x in X' to the
    Y-endpoint of v's matching edge.  A missing colour has no Y-endpoint,
    hence no in-arcs, so a path holds at most one "*": its start.

    The labels and the Y-cover are read once per digraph; each out-list is
    built the first time it is read.  A walk from a missing colour reads
    its own out-list and those of matched colours only, and most walks end
    within a few arcs, so most colours' out-lists are never built.  An
    out-list costs one lookup in the graph's ``x_index`` per X-vertex of
    X'.  Its arcs, sorted by head, are its out-list as built: heads are
    distinct because a colour class is a matching.
    """
    from .digraph import _LazyOutLists  # the one producer of lazy out-lists

    if ctx.matching.size == 0:
        raise EmptyMatching("switch digraph needs a non-empty matching")
    label_of = {c: e.x for c, e in ctx.edge_of_colour.items()}
    graph = ctx.graph
    labels = tuple(map(label_of.get, range(graph.colour_count), repeat(STAR)))
    xs = tuple(dict.fromkeys(x_prime))
    colour_at_y = {y: e.c for y, e in ctx.edge_of_y.items()}
    x_index = graph.x_index
    new = tuple.__new__  # builds an Arc without its Python-level __new__

    def out_list(u: int) -> tuple[Arc, ...]:
        row = []
        for e in filter(None, map(x_index[u].get, xs)):
            v = colour_at_y.get(e.y, u)  # an uncovered y, like u's own, gives no arc
            if v != u:
                row.append(new(Arc, (u, v, e.x)))
        row.sort(key=_HEAD)
        return tuple(row)

    out = _LazyOutLists(graph.colour_count, out_list)
    return LabelledDigraph._from_out_lists(graph.colour_count, out, vertex_labels=labels)


def apply_switching(ctx: MatchingContext, sigma: Switching) -> RainbowMatching:
    """Exchange along a switching: drop its matched edges, add its free ones.

    Preserves size and Y-cover; the result misses the switching's end
    colour.  A switching whose matched edges are not all in the matching,
    or one of whose free edges is no graph edge or collides with the kept
    edges or an earlier free edge, raises :class:`ExchangeNotApplicable`.
    """
    if sigma.is_empty():
        return ctx.matching
    current = ctx.matching.edge_set()
    m_set = frozenset(sigma.matched_edges)
    if not m_set <= current:
        raise ExchangeNotApplicable("switching matched edges not all in the matching")
    kept = current - m_set
    kept_x = {e.x for e in kept}
    kept_y = {e.y for e in kept}
    kept_c = {e.c for e in kept}
    for ei in sigma.free_edges:
        if ei.x in kept_x or ei.y in kept_y:
            raise ExchangeNotApplicable(
                f"free edge {tuple(ei)} collides with a kept or earlier free edge"
            )
        if ei.c in kept_c:
            raise ExchangeNotApplicable(
                f"free-edge colour {ei.c} already present in a kept or earlier free edge"
            )
        if not ctx.graph.has_edge(ei):
            raise ExchangeNotApplicable(f"free edge {tuple(ei)} is not a graph edge")
        kept_x.add(ei.x)
        kept_y.add(ei.y)
        kept_c.add(ei.c)
    out = tuple(sorted(kept | set(sigma.free_edges), key=lambda e: (e.c, e.x, e.y)))
    return RainbowMatching(out)


def augment(
    ctx: MatchingContext,
    c_star: int,
    depth_cap: int | None = None,
    meter: BudgetMeter | None = None,
) -> RainbowMatching | AugmentFailure:
    """Grow the matching by one edge, if a switching from the missing colour
    c* allows.

    Enumerates rainbow paths from c* in the switch digraph over the
    uncovered X-vertices, shortest first, up to ``depth_cap`` arcs (default:
    the matching's size plus one); for every reached colour it scans that
    colour's edges from the still-uncovered X-side to the uncovered Y-side.
    A hit yields the exchanged matching plus the new edge: the first hit in
    :func:`iter_shortest_first` order, so a shortest one.  Exhaustion
    returns a structured report with every switching tried (a legitimate
    outcome: the matching may simply be maximum).  The walks tick ``meter``.
    """
    if c_star in ctx.edge_of_colour or not 0 <= c_star < ctx.graph.colour_count:
        raise PreconditionViolated(f"colour {c_star} is not a missing colour")
    cap = depth_cap if depth_cap is not None else ctx.matching.size + 1

    # depth 0: a missing-colour edge between uncovered sides extends directly
    e = _closing_edge(ctx, c_star, frozenset())
    if e is not None:
        return _with_edge(ctx.matching, e)

    if ctx.matching.size == 0:
        return AugmentFailure(())

    D = build_switch_digraph(ctx, ctx.x0)
    tried = []
    for path in iter_shortest_first(D, c_star, max_len=cap, mode="total", meter=meter):
        if not path:
            continue  # depth 0 was tried above
        sigma = _arcs_to_switching(ctx, path)
        e = _closing_edge(ctx, path[-1].head, sigma.x_vertices())
        if e is not None:
            return _with_edge(apply_switching(ctx, sigma), e)
        tried.append(sigma)
    tried.sort(key=lambda sigma: [m.c for m in sigma.matched_edges])
    return AugmentFailure(tuple(tried))


def _closing_edge(ctx: MatchingContext, c: int, sx: frozenset[int]) -> Edge | None:
    """First colour-c edge from uncovered X outside ``sx`` to uncovered Y."""
    x0, y0 = ctx.x0, ctx.y0
    for e in ctx.graph.colour_classes[c]:
        if e.x in x0 and e.x not in sx and e.y in y0:
            return e
    return None


def _with_edge(matching: RainbowMatching, e: Edge) -> RainbowMatching:
    return RainbowMatching(tuple(sorted(matching.edges + (e,), key=lambda t: (t.c, t.x, t.y))))


def _arcs_to_switching(ctx: MatchingContext, arcs: Sequence[Arc]) -> Switching:
    free: list[Edge] = []
    matched: list[Edge] = []
    for arc in arcs:
        head_edge = ctx.edge_of_colour[arc.head]
        free.append(Edge(arc.label, head_edge.y, arc.tail))
        matched.append(head_edge)
    return Switching(tuple(free), tuple(matched))


@dataclass
class EngineTrace:
    # (c*, 1) for a direct augmentation, (c*, 0) for one found after rotation
    augmentations: list[tuple[int, int]] = field(default_factory=list)
    rotations: int = 0
    # "complete", "stalled" (no reachable matching augments) or "rotation_limit"
    stop: str = "complete"


def solve_switching_engine(
    graph: ColouredBipartiteMultigraph,
    depth_cap: int | None = None,
    budget: SearchBudget | None = None,
) -> tuple[RainbowMatching, EngineTrace]:
    """Greedy start, then repeated switching augmentation.

    Each probe asks :func:`augment` for a one-edge improvement for one
    missing colour c*, on a context of the current matching that works on
    the host graph in host colour ids; one context per side serves every
    missing colour.  Because X-side switchings preserve the
    Y-cover, every probe is repeated on the Y side: the transposed host, a
    graph built and validated once per solve, which moves the other side.
    When no single switching augments, the engine explores matchings
    reachable by non-augmenting exchanges on either side (bounded
    breadth-first rotation) before giving up; the rotation search probes
    with :func:`augment` too, and the switchings a failed probe tried are
    its moves.  One meter counts every path search, so ``budget`` bounds
    the whole solve.  Output is always a valid rainbow matching;
    deterministic for fixed input order, cap and limits.
    """
    engine = _Engine(graph, depth_cap, BudgetMeter(budget))
    matching = greedy_rainbow_matching(graph)
    while matching.size < graph.colour_count:
        improved = engine.improve_once(matching)
        if improved is None:
            break
        matching = improved
    ok = verify_rainbow_matching(graph, matching)
    if not ok:
        raise AssertionError(f"engine produced an invalid matching: {ok.reason}")
    return matching, engine.trace


_YXC = itemgetter(1, 0, 2)


def _swapped(edges: Iterable[Edge]) -> tuple[Edge, ...]:
    return tuple(map(tuple.__new__, repeat(Edge), map(_YXC, edges)))


def _transposed(graph: ColouredBipartiteMultigraph) -> ColouredBipartiteMultigraph:
    """The graph seen from Y: each edge (x, y, c) reads (y, x, c).

    Each class keeps the host's edge order.  The calculus, which always
    switches on the X side, moves host Y-vertices on it.
    """
    swapped = _swapped(graph.edges)
    return ColouredBipartiteMultigraph(
        graph.right_size, graph.left_size, graph.colour_count, swapped, graph.edge_disjoint
    )


@dataclass
class _Engine:
    """State of one solve: the host graph, its transpose once built, the cap, the meter."""

    graph: ColouredBipartiteMultigraph
    depth_cap: int | None
    meter: BudgetMeter | None
    trace: EngineTrace = field(default_factory=EngineTrace)
    y_side: ColouredBipartiteMultigraph | None = None

    def context(self, matching: RainbowMatching, flip: bool) -> MatchingContext:
        """The context of ``matching`` on one side (Y when ``flip``), in that side's terms."""
        side = self.graph
        if flip:
            if self.y_side is None:
                self.y_side = _transposed(self.graph)
            side = self.y_side
            matching = RainbowMatching(_swapped(matching))
        return MatchingContext(side, matching)

    @staticmethod
    def to_host(matching: RainbowMatching, flip: bool) -> RainbowMatching:
        return RainbowMatching(_swapped(matching)) if flip else matching

    def improve_once(self, matching: RainbowMatching) -> RainbowMatching | None:
        missing = sorted(set(range(self.graph.colour_count)) - matching.colours())
        # Pass 1: direct augmentation per missing colour, either side.
        for flip in (False, True):
            ctx = self.context(matching, flip)
            for c_star in missing:
                result = augment(ctx, c_star, self.depth_cap, self.meter)
                if isinstance(result, RainbowMatching):
                    self.trace.augmentations.append((c_star, 1))
                    return self.to_host(result, flip)
        # Pass 2: rotate through switch-reachable matchings of the same size.
        return self.rotation_search(matching)

    def rotation_search(self, matching: RainbowMatching) -> RainbowMatching | None:
        """Breadth-first search over same-size matchings reachable by exchanges.

        States are matchings.  Each (state, c*, side) is one :func:`augment`
        probe on the solve's meter: a hit is the augmentation, and a failure
        lists the state's moves, its switchings applied, in the preorder of
        one full walk.  States are explored breadth first, so the shallowest
        augmentable state wins.
        """
        seen: set[frozenset[Edge]] = {matching.edge_set()}
        queue: deque[RainbowMatching] = deque([matching])
        expanded = 0
        while queue:
            current = queue.popleft()
            sides = [(flip, self.context(current, flip)) for flip in (False, True)]
            for c_star in sorted(set(range(self.graph.colour_count)) - current.colours()):
                expanded += 1
                if expanded > ROTATION_LIMIT:
                    self.trace.stop = "rotation_limit"
                    return None
                for flip, ctx in sides:
                    result = augment(ctx, c_star, self.depth_cap, self.meter)
                    if isinstance(result, RainbowMatching):
                        self.trace.rotations = expanded
                        self.trace.augmentations.append((c_star, 0))
                        return self.to_host(result, flip)
                    for sigma in result.switchings:
                        candidate = self.to_host(apply_switching(ctx, sigma), flip)
                        key = candidate.edge_set()
                        if key not in seen:
                            seen.add(key)
                            queue.append(candidate)
        self.trace.stop = "stalled"
        return None
