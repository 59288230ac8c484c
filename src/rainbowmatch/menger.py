"""Rainbow-Menger counterexample family and the fractional duality check.

The counterexample is a directed multipath: k+1 parallel copies of each hop,
one carrying a distinct per-hop colour and k carrying shared colours.  Any
k-colour removal still leaves a rainbow source-sink path, yet every pair of
rainbow source-sink paths shares an edge, so the integral analogue of
Menger's theorem fails while the fractional path-packing and colour-cover
programs still agree exactly.

The linear programs are solved by a self-contained dense simplex with one
column per distinct colour set of the paths, numbered by first occurrence;
later paths with the same set get weight zero.  That is exact: equal columns
stay equal under row operations, so they keep equal reduced costs, and the
entering rule takes the lowest index among equals, the first of them.  The
pivots are exact and fraction-free: Python ints over one common denominator,
as in integer-preserving Gaussian elimination (Edmonds 1967, Bareiss 1968),
with the results returned as ``Fraction``.  Beyond 64 paths the verified
optimum is reported rounded to floats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Sequence

from .budget import BudgetMeter, SearchBudget
from .digraph import Arc, LabelledDigraph, iter_rainbow_paths
from .errors import (
    LPNumericalFailure,
    ParameterViolation,
    PathBudgetExceeded,
)

EXACT_PATH_LIMIT = 64  # above it, fractional_menger reports floats
_MAX_PIVOTS = 100_000


def build_counterexample(k: int, m: int) -> LabelledDigraph:
    """Directed multipath on vertices 0..m with k+1 parallel arcs per hop.

    Hop i carries colours {i} plus the shared colours m+1..m+k (colour m is
    deliberately unused).  Source is 0, sink is m.  Requires m > 2k+1, the
    regime where any two rainbow source-sink paths must share an edge.
    """
    if k < 1:
        raise ParameterViolation(f"k must be >= 1, got {k}")
    if m <= 2 * k + 1:
        raise ParameterViolation(f"m must exceed 2k+1 = {2 * k + 1}, got {m}")
    arcs = []
    for i in range(m):
        for colour in [i] + [m + 1 + j for j in range(k)]:
            arcs.append((i, i + 1, colour))
    return LabelledDigraph(m + 1, arcs)


def subdivide_to_simple(D: LabelledDigraph) -> LabelledDigraph:
    """Parallel-arc-free version: every arc is split at a fresh vertex.

    The first half keeps the arc's colour; the second half receives a fresh
    colour unique to the arc, so rainbow paths correspond one-to-one and
    shared original arcs stay shared.
    """
    n = D.vertex_count
    fresh_vertex = n
    fresh_colour = 0
    for a in D.arcs:
        if isinstance(a.label, int):
            fresh_colour = max(fresh_colour, a.label + 1)
    arcs = []
    for a in D.arcs:
        arcs.append((a.tail, fresh_vertex, a.label))
        arcs.append((fresh_vertex, a.head, fresh_colour))
        fresh_vertex += 1
        fresh_colour += 1
    return LabelledDigraph(fresh_vertex, arcs)


def _st_paths(D: LabelledDigraph, u: int, v: int, forbidden, meter: BudgetMeter):
    """Rainbow u -> v paths of length >= 1 (edge-colour convention), lazily."""
    if u == v:  # the kernel's only path from u to u is the empty one
        return iter(())
    return iter_rainbow_paths(
        D,
        u,
        target=v,
        max_len=max(D.vertex_count - 1, 1),
        forbidden=frozenset(forbidden),
        meter=meter,
    )


def rainbow_st_paths(
    D: LabelledDigraph,
    u: int,
    v: int,
    max_paths: int = 20000,
    budget: SearchBudget | None = None,
) -> tuple[tuple[Arc, ...], ...]:
    """All rainbow u -> v paths (edge-colour convention), length >= 1.

    The search stops at path max_paths + 1 and raises PathBudgetExceeded.
    """
    paths = tuple(itertools.islice(_st_paths(D, u, v, (), BudgetMeter(budget)), max_paths + 1))
    if len(paths) > max_paths:
        raise PathBudgetExceeded(f"rainbow paths exceed cap {max_paths}")
    return paths


def verify_property_I(
    D: LabelledDigraph,
    u: int,
    v: int,
    k: int,
    budget: SearchBudget | None = None,
) -> bool:
    """For every k-colour set there is a rainbow u -> v path avoiding it.

    Each set's search stops at its first path, all on one meter.
    """
    colours = sorted(D.edge_labels())
    meter = BudgetMeter(budget)
    return all(
        next(_st_paths(D, u, v, S, meter), None) is not None
        for S in itertools.combinations(colours, min(k, len(colours)))
    )


def verify_property_II(paths: tuple[tuple[Arc, ...], ...]) -> bool:
    """Every pair of the rainbow u -> v paths shares an edge (same arc).

    ``paths`` is the tuple that ``rainbow_st_paths`` returns.
    """
    through: dict[Arc, int] = {}  # per arc, the bitset of the paths using it
    for i, p in enumerate(paths):
        bit = 1 << i
        for arc in p:
            through[arc] = through.get(arc, 0) | bit
    # p meets every path iff the paths through its arcs are all the paths
    everyone = (1 << len(paths)) - 1
    return all(reduce(or_, map(through.__getitem__, p)) == everyone for p in paths)


@dataclass(frozen=True)
class PathLP:
    """Primal path-packing and dual colour-cover solutions, both verified."""

    paths: tuple[tuple[Arc, ...], ...]
    colours: tuple
    primal_weights: tuple
    dual_weights: dict
    primal_value: object  # k_b
    dual_value: object  # k_a
    exact: bool

    @property
    def duality_gap(self) -> float:
        return abs(float(self.dual_value) - float(self.primal_value))


def fractional_menger(paths: tuple[tuple[Arc, ...], ...]) -> PathLP:
    """Solve the fractional path-packing / colour-cover pair over the
    rainbow u -> v paths that ``rainbow_st_paths`` returns, and assert
    strong duality.

    Primal: maximise the total path weight subject to unit capacity per
    colour.  Dual: minimise total colour weight subject to unit coverage of
    every path.  Both solutions are read off one exact tableau (the dual
    from the slack reduced costs) and re-verified exactly, as integer
    numerators over one common denominator: primal feasibility, dual
    feasibility, then equal objectives.  Weak duality follows from the two
    feasibilities, so equal objectives certify both optima.

    Up to ``EXACT_PATH_LIMIT`` paths the weights and values are
    ``Fraction``.  Above it they are the same exact optimum rounded to
    floats, with ``exact`` false, because ``bench/checks.py`` still reads
    those values with ``float()``.
    """
    if not paths:
        return PathLP((), (), (), {}, 0, 0, True)

    colour_sets = [frozenset(a.label for a in p) for p in paths]
    columns = list(dict.fromkeys(colour_sets))  # distinct, by first occurrence
    colours = sorted(set().union(*columns))

    # rows: one capacity constraint per colour; columns: one var per colour set
    A = [[int(c in cs) for cs in columns] for c in colours]
    x_col, y, _ = _simplex_max(A, [1] * len(colours), [1] * len(columns))

    # X / D and Y / D are the primal and dual solutions, exactly
    D = math.lcm(*(v.denominator for v in itertools.chain(x_col, y)))
    X = [v.numerator * (D // v.denominator) for v in x_col]
    Y = [v.numerator * (D // v.denominator) for v in y]
    for xj, cs in zip(X, columns):
        if xj < 0:
            raise LPNumericalFailure(
                f"primal infeasible: negative weight on colour set {sorted(cs)}"
            )
    for c, row in zip(colours, A):
        if sum(itertools.compress(X, row)) > D:
            raise LPNumericalFailure(f"primal infeasible at colour {c}")
    dual = dict(zip(colours, Y))
    for c, yc in dual.items():
        if yc < 0:
            raise LPNumericalFailure(f"dual infeasible: negative weight on colour {c}")
    for cs in columns:
        if sum(map(dual.__getitem__, cs)) < D:
            raise LPNumericalFailure(f"dual infeasible on the path colour set {sorted(cs)}")
    primal, dual_total = Fraction(sum(X), D), Fraction(sum(Y), D)
    if primal != dual_total:
        raise LPNumericalFailure(f"duality gap: primal value {primal}, dual value {dual_total}")

    exact = len(paths) <= EXACT_PATH_LIMIT
    number = Fraction if exact else float
    first = dict(zip(columns, map(number, x_col)))
    x = tuple(first.pop(cs, number(0)) for cs in colour_sets)  # later duplicates get zero
    value = number(primal)
    dual_weights = {c: number(yc) for c, yc in zip(colours, y)}
    return PathLP(paths, tuple(colours), x, dual_weights, value, value, exact)


def _integral(values) -> list[int]:
    ints = list(map(int, values))
    if ints != list(values):
        raise ValueError(f"exact simplex needs integral entries, got {values!r}")
    return ints


def _simplex_max(A: Sequence[Sequence], b: Sequence, c: Sequence):
    """Dense tableau simplex for max c.x s.t. Ax <= b, x >= 0, b >= 0.

    The entries must be integral.  Slack variables give the starting basis
    (no phase one needed).  Returns (x, y, value) as ``Fraction``, with y
    the dual solution read off the slack reduced costs.

    The entering column has the most negative reduced cost, the lowest
    index on ties (Dantzig's rule).  The leaving row is the lexicographic
    least of (rhs, slack columns) divided by its entry in the pivot column.
    The slack columns hold the rows of the basis inverse, which are
    linearly independent, so that least is unique, and the rule cannot
    cycle whatever column enters (Dantzig, Orden and Wolfe 1955).

    The rational tableau is held as ints N over one common denominator
    ``det`` > 0, the last pivot element (1 at the start).  Every entry of N
    is a minor of the starting tableau, so each row update
    ``(t * piv - f * p) // det`` divides exactly.  Signs and ratio
    comparisons are those of N / det, so every pivot, and hence every
    result, equals that of a ``Fraction`` tableau under the same rule.
    """
    m, n = len(A), len(c)
    rhs = n + m
    lex = [rhs, *range(n, rhs)]
    T = [
        _integral(A[i]) + [int(j == i) for j in range(m)] + [bi]
        for i, bi in enumerate(_integral(b))
    ]
    T.append([-v for v in _integral(c)] + [0] * (m + 1))
    basis = [n + i for i in range(m)]
    det = 1

    for _ in range(_MAX_PIVOTS):
        obj = T[m]
        least = min(obj[:rhs])
        if least >= 0:
            break
        col = obj.index(least)
        pivot_row = None
        for i in range(m):
            a = T[i][col]
            if a > 0:
                if pivot_row is not None:
                    # row / a against best / best_a, lexicographically, cross-multiplied
                    row, best = T[i], T[pivot_row]
                    for j in lex:
                        d = row[j] * best_a - best[j] * a
                        if d:
                            break
                    if d > 0:
                        continue
                pivot_row, best_a = i, a
        if pivot_row is None:
            raise LPNumericalFailure(f"LP unbounded in column {col}; incidence matrix malformed")
        prow = T[pivot_row]
        piv = prow[col]
        for i in range(m + 1):
            if i != pivot_row:
                row = T[i]
                f = row[col]
                if f:
                    T[i] = [(t * piv - f * p) // det for t, p in zip(row, prow)]
                elif piv != det:
                    T[i] = [t * piv // det for t in row]
        det = piv
        basis[pivot_row] = col
    else:
        raise LPNumericalFailure(f"pivot limit {_MAX_PIVOTS} reached without convergence")

    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = Fraction(T[i][rhs], det)
    y = [Fraction(T[m][n + i], det) for i in range(m)]
    value = Fraction(T[m][rhs], det)
    return x, y, value
