"""The golden solver and the paper's golden-ratio claims as checks.

``golden_solve`` runs the switching engine and, when it stops short, the
exact solver on the same budget.  It returns the matching with the exact
solver's result, or with ``None`` when the engine covered every colour, so
its matching is full or a proved (or flagged unproved) optimum.  The
paper's phi * n + o(n) argument is not coded as a solver: its
uncovered-edge bound is checked as a claim by
:func:`check_uncovered_edge_bound` on the colour digraph of
:func:`build_colour_digraph`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .budget import SearchBudget
from .connectivity import rainbow_distance
from .core import (
    ColouredBipartiteMultigraph,
    MatchingContext,
    RainbowMatching,
    verify_rainbow_matching,
)
from .digraph import LabelledDigraph
from .errors import ContextInvalid
from .oracle import OracleResult, exact_max_rainbow_matching
from .switching import _swapped, _transposed, build_switch_digraph, solve_switching_engine

PHI = (1 + math.sqrt(5)) / 2


def build_colour_digraph(ctx: MatchingContext) -> LabelledDigraph:
    """Edge-labelled digraph on colours for a matching one short of full.

    An arc c -> d labelled by an uncovered vertex v records a colour-c edge
    from v into d's matching edge.  Its arcs are those of the two switch
    digraphs over the uncovered vertices: of ``ctx`` (labels ``("x", v)``)
    and of the swapped matching on the transposed graph (``("y", v)``).  The
    labelling is out-proper because colour classes are matchings.
    """
    graph = ctx.graph
    if ctx.matching.size != graph.colour_count - 1 or ctx.matching.size == 0:
        raise ContextInvalid(
            f"matching of size {ctx.matching.size} with {graph.colour_count} colours; "
            "need size exactly one below the colour count (and non-empty)"
        )
    flipped = MatchingContext(_transposed(graph), RainbowMatching(_swapped(ctx.matching)))
    arcs = [
        (a.tail, a.head, (side, a.label))
        for side, c in (("x", ctx), ("y", flipped))
        for a in build_switch_digraph(c, c.x0).arcs
    ]
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
    if not 0 <= c < graph.colour_count:
        raise ValueError(f"colour {c} is not among the graph's {graph.colour_count} colours")
    count = sum(1 for e in graph.colour_classes[c] if e.x in ctx.x0 and e.y in ctx.y0)
    D = build_colour_digraph(ctx)
    (missing,) = set(range(graph.colour_count)).difference(ctx.edge_of_colour)
    distance = rainbow_distance(
        D, missing, c, cap=graph.colour_count, mode="edge", budget=budget
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
) -> tuple[RainbowMatching, OracleResult | None]:
    """The switching engine, then the exact solver; returns a verified matching.

    When the engine covers every colour the second value is ``None``.
    Otherwise the exact solver runs on the same budget, its matching is
    returned, and the second value is its result, whose ``optimal``,
    ``stop`` and ``nodes`` say whether the maximum was proved and, if not,
    why.  No class-size hypothesis is needed; the paper's bound for classes
    of about PHI * n edges is checked by :func:`check_uncovered_edge_bound`.
    """
    matching, _ = solve_switching_engine(graph, budget=budget)
    oracle = None
    if matching.size < graph.colour_count:
        oracle = exact_max_rainbow_matching(graph, budget=budget)
        matching = oracle.matching
    ok = verify_rainbow_matching(graph, matching)
    if not ok:
        raise AssertionError(f"golden solver produced invalid matching: {ok.reason}")
    return matching, oracle
