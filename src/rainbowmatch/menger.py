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
stay equal under row operations, and Bland's rule enters the first of them.
Up to 64 paths the pivots are exact and fraction-free: Python ints over one
common denominator, as in integer-preserving Gaussian elimination (Edmonds
1967, Bareiss 1968), with the results returned as ``Fraction``.  Beyond 64
paths the arithmetic is floating point.
"""

from __future__ import annotations

import itertools
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

EXACT_PATH_LIMIT = 64
_TOLERANCE = 1e-9  # float branch: feasibility slack and largest duality gap
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
    every path.  Both solutions are extracted from one exact tableau (the
    dual from the slack reduced costs), then re-verified for feasibility;
    weak duality is asserted before the gap.
    """
    if not paths:
        return PathLP((), (), (), {}, 0, 0, True)

    colour_sets = [frozenset(a.label for a in p) for p in paths]
    columns = list(dict.fromkeys(colour_sets))  # distinct, by first occurrence
    colours = sorted(set().union(*columns))
    exact = len(paths) <= EXACT_PATH_LIMIT
    one: object = 1 if exact else 1.0  # the exact simplex takes ints, returns Fractions
    zero = Fraction(0) if exact else 0.0

    # rows: one capacity constraint per colour; columns: one var per colour set
    A = [[one * (c in cs) for cs in columns] for c in colours]
    b = [one for _ in colours]
    c_obj = [one for _ in columns]
    x_col, y, value = _simplex_max(A, b, c_obj, exact=exact)
    first = dict(zip(columns, x_col))
    x = [first.pop(cs, zero) for cs in colour_sets]  # later duplicates get zero

    primal_value = sum(x)
    dual_value = sum(y)
    eps = 0 if exact else _TOLERANCE

    # primal feasibility
    if any(xp < -eps for xp in x_col):
        raise LPNumericalFailure(f"primal infeasible at colour {colours[0]}")
    for c in colours:
        if sum(xp for xp, cs in zip(x_col, columns) if c in cs) > one + eps:
            raise LPNumericalFailure(f"primal infeasible at colour {c}")
    # dual feasibility
    dual = dict(zip(colours, y))
    if any(val < -eps for val in y) or any(
        sum(dual[c] for c in cs) < one - eps for cs in columns
    ):
        raise LPNumericalFailure("dual infeasible on a path constraint")
    # weak duality first, then the strong-duality gap
    if float(primal_value) > float(dual_value) + _TOLERANCE:
        raise LPNumericalFailure("weak duality violated")
    if abs(float(primal_value) - float(dual_value)) > _TOLERANCE:
        raise LPNumericalFailure(
            f"duality gap {float(dual_value) - float(primal_value)} above tolerance"
        )
    return PathLP(paths, tuple(colours), tuple(x), dual, primal_value, dual_value, exact)


def _simplex_max(A: Sequence[Sequence], b: Sequence, c: Sequence, exact: bool):
    """Dense tableau simplex for max c.x s.t. Ax <= b, x >= 0, b >= 0.

    Slack variables give the starting basis (no phase one needed).  Bland's
    rule prevents cycling.  Returns (x, y, value) with y the dual solution
    read off the slack reduced costs.  With ``exact`` the entries must be
    integral and the results are ``Fraction``; otherwise they are floats.
    """
    if exact:
        return _simplex_max_exact(A, b, c)
    m, n = len(A), len(c)
    zero = 0.0
    one = 1.0
    eps = _TOLERANCE / 10

    # tableau: m constraint rows + objective row; columns x | slacks | rhs
    T = [list(A[i]) + [one if j == i else zero for j in range(m)] + [b[i]] for i in range(m)]
    T.append([-ci for ci in c] + [zero] * m + [zero])
    basis = [n + i for i in range(m)]

    for _ in range(_MAX_PIVOTS):
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


def _integral(v) -> int:
    i = int(v)
    if i != v:
        raise ValueError(f"exact simplex needs integral entries, got {v!r}")
    return i


def _simplex_max_exact(A, b, c):
    """The exact branch of ``_simplex_max``, pivoting on ints.

    The rational tableau is held as ints N over one common denominator
    ``det`` > 0, the last pivot element (1 at the start).  Every entry of N
    is a minor of the starting tableau, so each row update
    ``(t * piv - f * p) // det`` divides exactly.  Signs and ratio
    comparisons are those of N / det, so the entering column, the pivot
    row and its Bland tie-break, and hence every result, equal those of a
    ``Fraction`` tableau.
    """
    m, n = len(A), len(c)
    rhs = n + m
    T = [
        [_integral(v) for v in A[i]] + [int(j == i) for j in range(m)] + [_integral(b[i])]
        for i in range(m)
    ]
    T.append([-_integral(v) for v in c] + [0] * (m + 1))
    basis = [n + i for i in range(m)]
    det = 1

    for _ in range(_MAX_PIVOTS):
        obj = T[m]
        col = next((j for j in range(rhs) if obj[j] < 0), None)
        if col is None:
            break
        pivot_row = None
        for i in range(m):
            a = T[i][col]
            if a > 0:
                if pivot_row is not None:
                    # ratio T[i][rhs] / a against best_b / best_a, cross-multiplied
                    mine, best = T[i][rhs] * best_a, best_b * a
                    if mine > best or (mine == best and basis[i] > basis[pivot_row]):
                        continue
                best_b, best_a, pivot_row = T[i][rhs], a, i
        if pivot_row is None:
            raise LPNumericalFailure("LP unbounded; incidence matrix malformed")
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
        raise LPNumericalFailure("pivot limit reached without convergence")

    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = Fraction(T[i][rhs], det)
    y = [Fraction(T[m][n + i], det) for i in range(m)]
    value = Fraction(T[m][rhs], det)
    return x, y, value
