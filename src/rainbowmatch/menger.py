"""Rainbow-Menger counterexample family and the fractional duality check.

The counterexample is a directed multipath: k+1 parallel copies of each hop,
one carrying a distinct per-hop colour and k carrying shared colours.  Any
k-colour removal still leaves a rainbow source-sink path, yet every pair of
rainbow source-sink paths shares an edge, so the integral analogue of
Menger's theorem fails while the fractional path-packing and colour-cover
programs still agree exactly.

The linear programs are solved by a self-contained revised simplex
(Dantzig and Orchard-Hays 1954) with one column per distinct colour set of
the paths, numbered by first occurrence and given by the rows of its
colours; later paths with the same set get weight zero.  That is exact:
equal columns have equal reduced costs, and the entering rule takes the
lowest index among equals, the first of them.  Only the basis inverse is
pivoted, each column is priced from the rows it meets, and the pivots are
exact and fraction-free: Python ints over one common denominator, as in
integer-preserving Gaussian elimination (Edmonds 1967, Bareiss 1968), with
the results returned as ``Fraction``.  Beyond 64 paths the verified optimum
is reported rounded to floats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import itemgetter, or_
from typing import Sequence

from .budget import BudgetMeter, SearchBudget
from .digraph import Arc, LabelledDigraph, _check_vertices, iter_rainbow_paths
from .errors import (
    LPNumericalFailure,
    ParameterViolation,
    PathBudgetExceeded,
)
from .oracle import removal_verdict

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


def rainbow_st_paths(
    D: LabelledDigraph,
    u: int,
    v: int,
    max_paths: int = 20000,
    budget: SearchBudget | None = None,
) -> tuple[tuple[Arc, ...], ...]:
    """All rainbow u -> v paths (edge-colour convention), length >= 1.

    The search stops at path max_paths + 1 and raises PathBudgetExceeded.
    An endpoint outside D raises ``ValueError``, as the kernel does.
    """
    _check_vertices(D, (u, v))  # before the u == v shortcut, which answers for any vertex
    if u == v:  # the kernel's only path from u to u is the empty one
        return ()
    walk = iter_rainbow_paths(
        D, u, target=v, max_len=max(D.vertex_count - 1, 1), meter=BudgetMeter(budget)
    )
    paths = tuple(itertools.islice(walk, max_paths + 1))
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
    """For every k-colour set there is a rainbow u -> v path of length >= 1
    avoiding it; false when u == v.  An endpoint outside D raises
    ``ValueError``, as the kernel does.

    Exact, by the one removal search of ``oracle.removal_verdict`` on one
    meter: each tree node stops at its first path.
    """
    if k < 0:
        raise ValueError(f"k must be at least 0, got {k}")
    _check_vertices(D, (u, v))
    if u == v:  # as in rainbow_st_paths
        return False
    max_len = max(D.vertex_count - 1, 1)
    return removal_verdict(D, [(u, v)], k, max_len, "edge", BudgetMeter(budget)).connected


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
    every path.  Both solutions are read off one exact simplex (the dual
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

    label = itemgetter(2)
    colour_sets = [frozenset(map(label, p)) for p in paths]
    distinct = list(dict.fromkeys(colour_sets))  # by first occurrence
    colours = sorted(set().union(*distinct))

    # rows: one capacity constraint per colour; columns: one var per colour
    # set, given by the rows of its colours
    row_of = {c: i for i, c in enumerate(colours)}
    columns = [tuple(map(row_of.__getitem__, cs)) for cs in distinct]
    x_col, y, _ = _simplex_max(columns, [1] * len(colours), [1] * len(columns))

    # X / D and Y / D are the primal and dual solutions, exactly
    D = math.lcm(*(v.denominator for v in itertools.chain(x_col, y)))
    X = [v.numerator * (D // v.denominator) for v in x_col]
    Y = [v.numerator * (D // v.denominator) for v in y]
    load = [0] * len(colours)
    for xj, cs, rows in zip(X, distinct, columns):
        if xj < 0:
            raise LPNumericalFailure(
                f"primal infeasible: negative weight on colour set {sorted(cs)}"
            )
        for r in rows:
            load[r] += xj
    for c, total in zip(colours, load):
        if total > D:
            raise LPNumericalFailure(f"primal infeasible at colour {c}")
    for c, yc in zip(colours, Y):
        if yc < 0:
            raise LPNumericalFailure(f"dual infeasible: negative weight on colour {c}")
    for cs, rows in zip(distinct, columns):
        if sum(map(Y.__getitem__, rows)) < D:
            raise LPNumericalFailure(f"dual infeasible on the path colour set {sorted(cs)}")
    primal, dual_total = Fraction(sum(X), D), Fraction(sum(Y), D)
    if primal != dual_total:
        raise LPNumericalFailure(f"duality gap: primal value {primal}, dual value {dual_total}")

    exact = len(paths) <= EXACT_PATH_LIMIT
    number = Fraction if exact else float
    first = dict(zip(distinct, map(number, x_col)))
    x = tuple(first.pop(cs, number(0)) for cs in colour_sets)  # later duplicates get zero
    value = number(primal)
    dual_weights = {c: number(yc) for c, yc in zip(colours, y)}
    return PathLP(paths, tuple(colours), x, dual_weights, value, value, exact)


def _integral(values) -> list[int]:
    ints = list(map(int, values))
    if ints != list(values):
        raise ValueError(f"exact simplex needs integral entries, got {values!r}")
    return ints


def _simplex_max(columns: Sequence[Sequence[int]], b: Sequence, c: Sequence):
    """Revised simplex for max c.x s.t. Ax <= b, x >= 0, b >= 0.

    A is given by its columns: ``columns[j]`` lists the rows in which
    column j has a 1, an integer entry a > 1 written as that row repeated a
    times.  b and c must be integral.  Slack variables give the starting
    basis (no phase one needed).  Returns (x, y, value) as ``Fraction``,
    with y the dual solution read off the slack reduced costs.

    The entering column has the most negative reduced cost, the lowest
    index on ties (Dantzig's rule); the slack columns come after the
    structural ones.  The leaving row is the lexicographic least of (rhs,
    row of the basis inverse) divided by its entry in the pivot column.
    The rows of the basis inverse are linearly independent, so that least
    is unique, and the rule cannot cycle whatever column enters (Dantzig,
    Orden and Wolfe 1955).

    Only the m x m basis inverse, the rhs and the objective's slack row Y
    are held, as ints over one common denominator ``det`` > 0, the last
    pivot element (1 at the start): row i is [rhs_i, (det * B^-1)_i] and
    the objective row is [det * value, Y].  Each pivot prices structural
    column j as the sum of Y over its rows less det * c_j, one C-level sum
    over a prepared ``itemgetter``; the slack columns' reduced costs are Y
    itself, and only the entering column is formed, as det * B^-1 times it.
    These are the numbers a dense tableau holds, so every entry is a minor
    of the starting tableau and each row update ``(t * piv - f * p) // det``
    divides exactly.  Signs and ratio comparisons are those of the rational
    values, so every pivot, and hence every result, equals that of a
    ``Fraction`` tableau under the same rule.
    """
    m, n = len(b), len(c)
    place = {i: i + 1 for i in range(m)}  # row i's entry follows the rhs
    getters = []
    for j, rows in enumerate(columns):
        try:
            at = tuple(map(place.__getitem__, rows))
        except (KeyError, TypeError):
            raise ValueError(f"column {j} names a row outside range({m}): {rows!r}") from None
        if len(at) > 1:
            getters.append(itemgetter(*at))
        else:  # a slice keeps the result a sequence, as sum needs
            getters.append(itemgetter(slice(at[0], at[0] + 1) if at else slice(0)))
    cost = _integral(c)
    R = [[bi] + [int(i == r) for r in range(m)] for i, bi in enumerate(_integral(b))]
    R.append([0] * (m + 1))
    obj = R[m]
    basis = [n + i for i in range(m)]
    det = 1

    for _ in range(_MAX_PIVOTS):
        reduced = [sum(g(obj)) - det * cj for g, cj in zip(getters, cost)]
        least = min(reduced, default=0)
        slack_least = min(obj[1:], default=0)
        if least >= 0 <= slack_least:
            break
        if least <= slack_least:
            col = reduced.index(least)
            g = getters[col]
            column = [sum(g(row)) for row in R[:m]]
        else:
            least = slack_least
            at = obj.index(least, 1)
            col = n + at - 1
            column = [row[at] for row in R[:m]]
        column.append(least)
        pivot_row = None
        for i in range(m):
            a = column[i]
            if a > 0:
                if pivot_row is not None:
                    # R[i] / a against best / piv, lexicographically, cross-multiplied
                    for t, s in zip(R[i], best):
                        d = t * piv - s * a
                        if d:
                            break
                    if d > 0:
                        continue
                pivot_row, best, piv = i, R[i], a
        if pivot_row is None:
            raise LPNumericalFailure(f"LP unbounded in column {col}; incidence matrix malformed")
        for i, f in enumerate(column):
            if i != pivot_row:
                if f:
                    R[i] = [(t * piv - f * p) // det for t, p in zip(R[i], best)]
                elif piv != det:
                    R[i] = [t * piv // det for t in R[i]]
        obj = R[m]
        det = piv
        basis[pivot_row] = col
    else:
        raise LPNumericalFailure(f"pivot limit {_MAX_PIVOTS} reached without convergence")

    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = Fraction(R[i][0], det)
    y = [Fraction(v, det) for v in obj[1:]]
    return x, y, Fraction(obj[0], det)
