"""Golden-ratio recursive solver and its supporting claims as checks.

The recursion splits the colours around a low-expansion rainbow ball of the
colour digraph: colours outside the ball keep their matching edges, ball
colours are re-matched in two legs (uncovered X side into the ball's Y
vertices via the square-root-floor subroutine, the rest recursively on the
uncovered Y side), and the three parts assemble disjointly.  Desk-scale
runs treat the class-size hypothesis as advisory: every level verifies its
output and falls back to the exact solver when an assembly leg falls short,
so the returned matching is the true optimum whenever assembly fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .budget import SearchBudget
from .connectivity import low_expansion_ball, rainbow_distance
from .core import (
    ColouredBipartiteMultigraph,
    MatchingContext,
    RainbowMatching,
    make_context,
    relabel_matching,
    restrict,
    verify_rainbow_matching,
)
from .digraph import LabelledDigraph
from .errors import ContextInvalid, RainbowError, RecursionBudgetExceeded
from .oracle import exact_max_rainbow_matching
from .switching import solve_switching_engine, woolbright_floor

PHI = (1 + math.sqrt(5)) / 2


@dataclass(frozen=True)
class GoldenLevel:
    """One recursion level of the assembly, for inspection and tests."""

    n: int
    method: str  # "engine" | "assembly" | "oracle" | "base"
    ball: tuple[int, ...] | None = None
    mprime_size: int = 0
    a0_size: int = 0
    a1_size: int = 0
    m0_size: int = 0
    m1_size: int = 0
    shortfall_leg: str | None = None
    child: "GoldenTrace | None" = None
    optimal: bool = True  # False when this level's oracle stopped on its budget


@dataclass
class GoldenTrace:
    levels: list[GoldenLevel] = field(default_factory=list)

    @property
    def proved(self) -> bool:
        """No level, child traces included, holds an unproved oracle result."""
        return all(
            lv.optimal and (lv.child is None or lv.child.proved) for lv in self.levels
        )


def build_colour_digraph(ctx: MatchingContext) -> LabelledDigraph:
    """Edge-labelled digraph on colours for a matching one short of full.

    An arc c -> d labelled by an uncovered vertex v records a colour-c edge
    from v into d's matching edge; labels from the two sides are tagged to
    keep them distinct.  The labelling is out-proper because colour classes
    are matchings.
    """
    graph = ctx.graph
    if ctx.matching.size != graph.colour_count - 1 or ctx.matching.size == 0:
        raise ContextInvalid(
            f"matching of size {ctx.matching.size} with {graph.colour_count} colours; "
            "need size exactly one below the colour count (and non-empty)"
        )
    x0, y0 = ctx.x0, ctx.y0
    arcs: list[tuple[int, int, tuple]] = []
    for c in range(graph.colour_count):
        for e in graph.colour_classes[c]:
            x_free, y_free = e.x in x0, e.y in y0
            if x_free == y_free:
                continue  # both free or both covered: no matching edge touched
            if x_free:
                d = ctx.edge_of_y[e.y].c
                label = ("x", e.x)
            else:
                d = ctx.edge_of_x[e.x].c
                label = ("y", e.y)
            if d != c:
                arcs.append((c, d, label))
    return LabelledDigraph(graph.colour_count, arcs)


@dataclass(frozen=True)
class UncoveredEdgeBound:
    colour: int
    count: int
    distance: int | float
    holds: bool
    hypothesis: str  # "certified-maximum" | "not-maximum" | "unchecked"


def check_uncovered_edge_bound(
    ctx: MatchingContext,
    c: int,
    budget: SearchBudget | None = None,
    certify: bool = True,
) -> UncoveredEdgeBound:
    """Count colour-c edges between the uncovered sides and compare with the
    rainbow distance from the missing colour to c in the colour digraph.

    For a maximum matching the count never exceeds the distance (each edge
    on a shortest rainbow colour path can block at most one such edge, and a
    surviving one would extend the matching).  The hypothesis is certified
    through the exact solver unless disabled.
    """
    graph = ctx.graph
    count = sum(1 for e in graph.colour_classes[c] if e.x in ctx.x0 and e.y in ctx.y0)
    D = build_colour_digraph(ctx)
    distance = rainbow_distance(
        D, ctx.c_star, c, cap=graph.colour_count, mode="edge", budget=budget
    )
    if certify:
        best = exact_max_rainbow_matching(graph, budget=budget)
        if not best.optimal:
            hypothesis = "unchecked"
        elif best.size > ctx.matching.size:
            hypothesis = "not-maximum"
        else:
            hypothesis = "certified-maximum"
    else:
        hypothesis = "unchecked"
    return UncoveredEdgeBound(c, count, distance, count <= distance, hypothesis)


def golden_solve(
    graph: ColouredBipartiteMultigraph,
    budget: SearchBudget | None = None,
) -> tuple[RainbowMatching, GoldenTrace]:
    """Recursive ball-splitting solver; always returns a verified matching.

    The class-size hypothesis (roughly PHI * n per class) is reported, not
    required.  Whenever the engine already covers every colour the level is
    trivial; otherwise, with the matching exactly one short, the level
    attempts the split assembly and falls back to the exact solver on any
    leg shortfall.  The ball parameter is 1/ln n, and the recursion runs on
    4 * max(n, 1) + 8 units of fuel.

    Measured on random, planted tight, cyclic-isotope and uniform Latin
    corpora: every level was completed by the engine or the exact solver,
    none by the split assembly, which only a doctored test matching reaches.
    """
    fuel = 4 * max(graph.colour_count, 1) + 8
    matching, trace = _solve_level(graph, budget, fuel)
    ok = verify_rainbow_matching(graph, matching)
    if not ok:
        raise AssertionError(f"golden solver produced invalid matching: {ok.reason}")
    return matching, trace


def _solve_level(
    graph: ColouredBipartiteMultigraph,
    budget: SearchBudget | None,
    fuel: int,
) -> tuple[RainbowMatching, GoldenTrace]:
    if fuel <= 0:
        raise RecursionBudgetExceeded("golden recursion fuel exhausted")
    n = graph.colour_count
    trace = GoldenTrace()
    if n == 0:
        trace.levels.append(GoldenLevel(0, "base"))
        return RainbowMatching(), trace

    engine_matching, _ = solve_switching_engine(graph, budget=budget)
    if engine_matching.size == n or n <= 2:
        if engine_matching.size == n:
            trace.levels.append(GoldenLevel(n, "engine"))
            return engine_matching, trace
        best = exact_max_rainbow_matching(graph, budget=budget)
        trace.levels.append(GoldenLevel(n, "base", optimal=best.optimal))
        return best.matching, trace

    if engine_matching.size == n - 1:
        assembled = _try_assembly(graph, engine_matching, budget, fuel, trace)
        if assembled is not None:
            return assembled, trace

    best = exact_max_rainbow_matching(graph, budget=budget)
    if trace.levels:  # assembly logged its own shortfall level already
        trace.levels[-1] = replace(trace.levels[-1], optimal=best.optimal)
    else:
        trace.levels.append(GoldenLevel(n, "oracle", optimal=best.optimal))
    return best.matching, trace


def _try_assembly(
    graph: ColouredBipartiteMultigraph,
    matching: RainbowMatching,
    budget: SearchBudget | None,
    fuel: int,
    trace: GoldenTrace,
) -> RainbowMatching | None:
    n = graph.colour_count
    ctx = make_context(graph, matching)
    c_star = ctx.c_star
    D = build_colour_digraph(ctx)
    eps = min(1.0, 1.0 / math.log(n)) if n > 1 else 1.0
    _, ball = low_expansion_ball(D, c_star, eps, mode="edge", budget=budget)
    ball_list = sorted(ball)

    m_prime = tuple(e for e in matching if e.c not in ball)
    ball_x = {ctx.edge_of_colour[c].x for c in ball if c != c_star}
    ball_y = {ctx.edge_of_colour[c].y for c in ball if c != c_star}

    # leg 0: ball colours between uncovered X and the ball's Y-cover
    sub0, cmap0 = restrict(graph, xs=ctx.x0, ys=ball_y, colours=ball_list)
    try:
        m0_local = woolbright_floor(sub0, budget=budget)
    except RainbowError:
        m0_local = RainbowMatching()  # leg shortfall; level falls back
    m0 = relabel_matching(m0_local, cmap0)
    a0 = m0.colours()
    a1 = sorted(set(ball_list) - a0)

    if len(a1) >= n:  # no shrink: recursion would not terminate
        trace.levels.append(
            GoldenLevel(n, "oracle", tuple(ball_list), len(m_prime), shortfall_leg="ball")
        )
        return None

    # leg 1: remaining ball colours between uncovered Y and the ball's X-cover
    child_trace: GoldenTrace | None = None
    if a1:
        sub1, cmap1 = restrict(graph, xs=ball_x, ys=ctx.y0, colours=a1)
        m1_local, child_trace = _solve_level(sub1, budget, fuel - 1)
        m1 = relabel_matching(m1_local, cmap1)
    else:
        m1 = RainbowMatching()

    level = GoldenLevel(
        n,
        "assembly",
        tuple(ball_list),
        len(m_prime),
        len(a0),
        len(a1),
        m0.size,
        m1.size,
        child=child_trace,
    )
    combined = tuple(m_prime) + tuple(m0.edges) + tuple(m1.edges)
    candidate = RainbowMatching(
        tuple(sorted(combined, key=lambda e: (e.c, e.x, e.y)))
    )
    if candidate.size == n and verify_rainbow_matching(graph, candidate):
        trace.levels.append(level)
        return candidate
    shortfall = "m1" if m1.size < len(a1) else "m0"
    trace.levels.append(replace(level, method="oracle", shortfall_leg=shortfall))
    return None
