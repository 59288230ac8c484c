"""Rainbow-Menger counterexample family and the fractional duality check.

The counterexample is a directed multipath: k+1 parallel copies of each hop,
one carrying a distinct per-hop colour and k carrying shared colours.  Any
k-colour removal still leaves a rainbow source-sink path, yet every pair of
rainbow source-sink paths shares an edge, so the integral analogue of
Menger's theorem fails while the fractional path-packing and colour-cover
programs still agree exactly.

The linear programs are solved by a self-contained dense simplex over the
explicit path/colour incidence: exact rational arithmetic up to 64 paths,
floating point beyond.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .budget import BudgetMeter, SearchBudget
from .digraph import Arc, LabelledDigraph, iter_rainbow_paths
from .errors import (
    LPNumericalFailure,
    ParameterViolation,
    PathBudgetExceeded,
)

EXACT_PATH_LIMIT = 64


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


def _st_paths(D: LabelledDigraph, u: int, v: int, forbidden, budget):
    """Rainbow u -> v paths of length >= 1 (edge-colour convention), lazily."""
    paths = iter_rainbow_paths(
        D,
        u,
        target=v,
        max_len=max(D.vertex_count - 1, 1),
        forbidden=frozenset(forbidden),
        meter=BudgetMeter(budget),
    )
    return (p for p in paths if p)


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
    paths = tuple(itertools.islice(_st_paths(D, u, v, (), budget), max_paths + 1))
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

    Each set's search stops at its first path; the budget bounds each set.
    """
    colours = sorted(D.edge_labels())
    return all(
        next(_st_paths(D, u, v, S, budget), None) is not None
        for S in itertools.combinations(colours, min(k, len(colours)))
    )


def verify_property_II(
    D: LabelledDigraph,
    u: int,
    v: int,
    max_paths: int = 20000,
    budget: SearchBudget | None = None,
) -> bool:
    """Every pair of rainbow u -> v paths shares an edge (same arc)."""
    paths = rainbow_st_paths(D, u, v, max_paths=max_paths, budget=budget)
    sets = [frozenset(p) for p in paths]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if not sets[i] & sets[j]:
                return False
    return True


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


def fractional_menger(
    D: LabelledDigraph,
    u: int,
    v: int,
    tolerance: float = 1e-9,
    max_paths: int = 20000,
    budget: SearchBudget | None = None,
) -> PathLP:
    """Solve the fractional path-packing / colour-cover pair over the
    enumerated rainbow u -> v paths and assert strong duality.

    Primal: maximise the total path weight subject to unit capacity per
    colour.  Dual: minimise total colour weight subject to unit coverage of
    every path.  Both solutions are extracted from one exact tableau (the
    dual from the slack reduced costs), then re-verified for feasibility;
    weak duality is asserted before the gap.
    """
    paths = rainbow_st_paths(D, u, v, max_paths=max_paths, budget=budget)
    if not paths:
        return PathLP((), (), (), {}, 0, 0, True)

    colour_sets = [frozenset(a.label for a in p) for p in paths]
    colours = sorted(set().union(*colour_sets))
    exact = len(paths) <= EXACT_PATH_LIMIT
    one: object = Fraction(1) if exact else 1.0

    # rows: one capacity constraint per colour; columns: one var per path
    A = [[one if c in cs else one * 0 for cs in colour_sets] for c in colours]
    b = [one for _ in colours]
    c_obj = [one for _ in paths]
    x, y, value = _simplex_max(A, b, c_obj, exact=exact, tolerance=tolerance)

    primal_value = sum(x) if x else 0
    dual_value = sum(y) if y else 0
    eps = 0 if exact else tolerance

    # primal feasibility
    for i, c in enumerate(colours):
        load = sum(xp for xp, cs in zip(x, colour_sets) if c in cs)
        if load > one * 1 + eps or any(xp < -eps for xp in x):
            raise LPNumericalFailure(f"primal infeasible at colour {c}")
    # dual feasibility
    dual = {c: y[i] for i, c in enumerate(colours)}
    for cs in colour_sets:
        cover = sum(dual[c] for c in cs)
        if cover < one * 1 - eps or any(val < -eps for val in dual.values()):
            raise LPNumericalFailure("dual infeasible on a path constraint")
    # weak duality first, then the strong-duality gap
    if float(primal_value) > float(dual_value) + tolerance:
        raise LPNumericalFailure("weak duality violated")
    if abs(float(primal_value) - float(dual_value)) > tolerance:
        raise LPNumericalFailure(
            f"duality gap {float(dual_value) - float(primal_value)} above tolerance"
        )
    return PathLP(paths, tuple(colours), tuple(x), dual, primal_value, dual_value, exact)


def _simplex_max(
    A: Sequence[Sequence],
    b: Sequence,
    c: Sequence,
    exact: bool,
    tolerance: float = 1e-9,
    max_pivots: int = 100000,
):
    """Dense tableau simplex for max c.x s.t. Ax <= b, x >= 0, b >= 0.

    Slack variables give the starting basis (no phase one needed).  Bland's
    rule prevents cycling.  Returns (x, y, value) with y the dual solution
    read off the slack reduced costs.
    """
    m, n = len(A), len(c)
    zero = Fraction(0) if exact else 0.0
    one = Fraction(1) if exact else 1.0
    eps = zero if exact else tolerance / 10

    # tableau: m constraint rows + objective row; columns x | slacks | rhs
    T = [list(A[i]) + [one if j == i else zero for j in range(m)] + [b[i]] for i in range(m)]
    T.append([-ci for ci in c] + [zero] * m + [zero])
    basis = [n + i for i in range(m)]

    for _ in range(max_pivots):
        obj = T[m]
        col = next((j for j in range(n + m) if obj[j] < -eps), None)
        if col is None:
            break
        pivot_row = None
        best_ratio = None
        for i in range(m):
            if T[i][col] > eps:
                ratio = T[i][n + m] / T[i][col]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[pivot_row])
                ):
                    best_ratio = ratio
                    pivot_row = i
        if pivot_row is None:
            raise LPNumericalFailure("LP unbounded; incidence matrix malformed")
        piv = T[pivot_row][col]
        T[pivot_row] = [t / piv for t in T[pivot_row]]
        for i in range(m + 1):
            if i != pivot_row and T[i][col] != zero:
                factor = T[i][col]
                T[i] = [
                    t - factor * p for t, p in zip(T[i], T[pivot_row])
                ]
        basis[pivot_row] = col
    else:
        raise LPNumericalFailure("pivot limit reached without convergence")

    x = [zero] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = T[i][n + m]
    y = [T[m][n + i] for i in range(m)]
    value = T[m][n + m]
    return x, y, value
