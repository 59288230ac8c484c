"""Connectivity toolbox for coloured digraphs.

Rainbow distances, low-expansion balls, the derived two-hop digraph (an arc
wherever enough internally disjoint rainbow length-2 paths exist, certified
per arc), extraction of highly connected vertex sets, and rainbow paths
through prescribed anchors.

Distances and balls take any of the kernel's ``MODES`` and follow the
total-colouring convention by default (vertex and edge colours all pairwise
distinct along a path).  All radius parameters derived from a real epsilon
are ceiling-rounded, explicitly, to avoid off-by-one drift.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

from .bounds import CONNECTED_SET_DIAMETER, RAINBOW_CONNECTED_SET_DIAMETER, as_fraction
from .budget import BudgetMeter, SearchBudget
from .digraph import (
    MODES,
    Arc,
    LabelledDigraph,
    _check_vertices,
    _label_key,
    is_rainbow_arc_path,
    iter_rainbow_paths,
    iter_shortest_first,
)
from .errors import NoVerifiedSetFound, PathNotRainbow, PreconditionViolated, SegmentNotFound
from .oracle import ConnectivityVerdict, is_kd_connected

INFINITE = math.inf


def rainbow_distance(
    D: LabelledDigraph,
    u: int,
    v: int,
    cap: int,
    mode: str = "total",
    budget: SearchBudget | None = None,
) -> int | float:
    """Length of the shortest rainbow u -> v path, or infinity beyond cap."""
    paths = iter_shortest_first(D, u, target=v, max_len=cap, mode=mode, meter=BudgetMeter(budget))
    path = next(paths, None)
    return INFINITE if path is None else len(path)


def rainbow_ball_layers(
    D: LabelledDigraph,
    v: int,
    cap: int,
    mode: str = "total",
    budget: SearchBudget | None = None,
) -> dict[int, int]:
    """Map vertex -> rainbow distance from v, up to the cap."""
    return _layers(D, v, cap, mode, BudgetMeter(budget))


def _layers(
    D: LabelledDigraph, v: int, cap: int, mode: str, meter: BudgetMeter
) -> dict[int, int]:
    dist: dict[int, int] = {}
    for path in iter_rainbow_paths(D, v, max_len=cap, mode=mode, meter=meter):
        w = path[-1].head if path else v
        if len(path) < dist.get(w, INFINITE):
            dist[w] = len(path)
    return dist


def low_expansion_ball(
    D: LabelledDigraph,
    v: int,
    eps,
    mode: str = "total",
    budget: SearchBudget | None = None,
) -> tuple[int, frozenset[int]]:
    """Smallest-radius rainbow ball whose next layer adds <= eps*|D| vertices.

    Returns (t0, ball) with t0 <= ceil(1/eps); existence is a counting fact:
    if every layer grew by more than eps*|D| the ball would exceed |D|.
    Radius t is tried only after every smaller one failed, so the layers
    are computed no further out than t0+1; one meter counts every radius.
    """
    eps = as_fraction(eps)
    if not (0 < eps <= 1):
        raise PreconditionViolated("eps must be in (0, 1]")
    meter = BudgetMeter(budget)
    slack = eps * D.vertex_count
    for t0 in range(math.ceil(1 / eps) + 1):
        dist = _layers(D, v, t0 + 1, mode, meter)
        ball = frozenset(x for x, d in dist.items() if d <= t0)
        if len(dist) <= len(ball) + slack:
            return t0, ball
    raise AssertionError("no low-expansion radius found; impossible by counting")


class TwoHopEntry(NamedTuple):
    first: Arc
    midpoint: int
    midpoint_colour: object
    second: Arc

    def colour_triple(self) -> tuple:
        return (self.first.label, self.midpoint_colour, self.second.label)


@dataclass(frozen=True)
class TwoHopCertificate:
    """Per derived arc: the bundle of midpoint paths that justifies it."""

    required: int  # bundle size m
    bundles: dict[tuple[int, int], tuple[TwoHopEntry, ...]]

    def validate(self, D: LabelledDigraph) -> bool:
        arc_set = set(D.arcs)
        for (x, y), entries in self.bundles.items():
            if len(entries) != self.required:
                return False
            mids = [e.midpoint for e in entries]
            if len(set(mids)) != len(mids):
                return False
            arcs: list[Arc] = []
            for e in entries:
                if e.first not in arc_set or e.second not in arc_set:
                    return False
                if e.first.tail != x or e.first.head != e.midpoint:
                    return False
                if e.second.tail != e.midpoint or e.second.head != y:
                    return False
                if e.midpoint_colour != D.vertex_labels[e.midpoint]:
                    return False
                arcs.extend((e.first, e.second))
            labels = [D.vertex_labels[x], D.vertex_labels[y]]
            labels += [D.vertex_labels[m] for m in mids]
            labels += [a.label for a in arcs]
            if len(set(labels)) != len(labels):
                return False  # union of the bundle paths must be rainbow
        return True


def build_two_hop_digraph(
    D: LabelledDigraph,
    m: int,
    budget: SearchBudget | None = None,
) -> tuple[LabelledDigraph, TwoHopCertificate]:
    """Derived digraph with an arc x -> y wherever m internally
    vertex-disjoint rainbow length-2 paths exist whose union is rainbow.

    Candidates are rainbow two-hop paths; two candidates conflict when they
    share the midpoint or any colour of their (first edge, midpoint, second
    edge) triples.  A greedy independent set capped at m decides the arc;
    every emitted certificate re-validates against its invariants.

    Per pair, the midpoints are x's out-head bits AND y's in-tail bits,
    read lowest first: the order of x's out-arcs.  The greedy pass counts
    one node per (first arc, second arc) pair it reads; only when it falls
    short are the candidates collected, the second pass charged and 24 or
    fewer searched exactly.  The meter ticks once per x with its row's
    count, so a budget stops a derivation at the end of a row.  Each x's
    arcs, in y order, are handed to the digraph as its out-list.
    """
    if m < 1:
        raise ValueError("bundle size m must be >= 1")
    if D.vertex_labels is None:
        raise PreconditionViolated("two-hop derivation needs vertex colours")
    meter = BudgetMeter(budget)
    tick = meter.tick
    labels = D.vertex_labels
    n = D.vertex_count
    into = [D.arcs_into(v) for v in range(n)]
    in_bits = [sum(map((1).__lshift__, tails)) for tails in into]
    new = tuple.__new__  # builds a TwoHopEntry or an Arc without its Python-level __new__
    bundles: dict[tuple[int, int], tuple[TwoHopEntry, ...]] = {}
    heads_of: list[list[int]] = []  # per x, the heads of its derived arcs
    for x in range(n):
        lx = labels[x]
        out_bits = sum({1 << a.head for a in D.out_arcs(x)})  # parallel arcs: a set
        row_pairs = 0
        heads: list[int] = []
        for y in range(n):
            ly = labels[y]
            mids = out_bits & in_bits[y]
            if not mids or lx == ly:  # lx == ly also when x == y
                continue
            into_y = into[y]
            pairs = 0
            need = m
            chosen: tuple[TwoHopEntry, ...] = ()
            while need and mids:
                low = mids & -mids
                mids ^= low
                u = low.bit_length() - 1
                cu = labels[u]
                a2s = into_y[u]
                for a1 in into[u][x]:
                    c1 = a1[2]
                    clash = c1 == cu or c1 == lx or c1 == ly or cu == lx or cu == ly
                    for a2 in a2s:
                        pairs += 1
                        c2 = a2[2]
                        if clash or c2 == c1 or c2 == cu or c2 == lx or c2 == ly:
                            continue
                        if chosen and (c1 in taken or cu in taken or c2 in taken):
                            continue
                        chosen += (new(TwoHopEntry, (a1, u, cu, a2)),)
                        need -= 1
                        if not need:
                            break
                        if len(chosen) == 1:
                            taken = {c1, cu, c2}
                        else:
                            taken.update((c1, cu, c2))
                    if not need:
                        break
            if not need:
                row_pairs += pairs
                bundles[x, y] = chosen
                heads.append(y)
                continue
            row_pairs += 2 * pairs  # the greedy pass, then the fallback's second pass
            if chosen:  # else there is no candidate at all
                candidates = [
                    TwoHopEntry(a1, a1.head, labels[a1.head], a2)
                    for a1 in D.out_arcs(x)
                    for a2 in into_y.get(a1.head, ())
                    if len({lx, ly, a1.label, labels[a1.head], a2.label}) == 5
                ]
                if len(candidates) <= 24:
                    chosen = _exhaustive_bundle(candidates, m, meter)
                    if chosen is not None:
                        bundles[x, y] = chosen
                        heads.append(y)
        tick(row_pairs)
        heads_of.append(heads)
    # The arcs are built after the pair loop, in one run of allocations: built
    # row by row inside it, they raised the toolbox benchmark's peak RSS by
    # about 0.9 MB.
    rows = tuple(
        tuple(map(new, repeat(Arc), zip(repeat(x), heads, repeat(None))))
        for x, heads in enumerate(heads_of)
    )
    derived = LabelledDigraph._from_out_lists(n, rows)
    return derived, TwoHopCertificate(m, bundles)


def _exhaustive_bundle(
    candidates: list[TwoHopEntry], m: int, meter: BudgetMeter
) -> tuple[TwoHopEntry, ...] | None:
    # greedy missed; candidate pool is small so decide exactly.  Two paths
    # are compatible when they share neither midpoint nor colour.
    for combo in itertools.combinations(candidates, m):
        meter.tick()
        if all(
            a.midpoint != b.midpoint
            and not set(a.colour_triple()) & set(b.colour_triple())
            for a, b in itertools.combinations(combo, 2)
        ):
            return combo
    return None


@dataclass(frozen=True)
class KdSetResult:
    vertices: frozenset[int]
    verdict: ConnectivityVerdict
    diameter_bound: int
    target_size: Fraction


def find_kd_connected_set(
    D: LabelledDigraph,
    k: int,
    eps,
    mode: str = "uncoloured",
    budget: SearchBudget | None = None,
) -> KdSetResult:
    """Propose a highly connected vertex set by peeling, then verify it.

    The peel repeatedly deletes vertices whose out-degree into the current
    set falls below min-out-degree(D) - eps|D|/4 and finally keeps the
    vertices with in-degree >= eps|D|/2 from the survivors.  The candidate
    is then checked by the exact connectivity oracle, ``is_kd_connected``, at
    the mode's diameter bound; correctness rests on the verifier, never the
    heuristic.  Degenerate inputs fall back to a singleton with a vacuous
    verdict; an unknown mode or k < 1 raises ``ValueError`` before that.
    """
    if mode not in ("uncoloured",) + MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    eps = as_fraction(eps)
    if not (0 < eps <= 1):
        raise PreconditionViolated("eps must be in (0, 1]")
    scale = CONNECTED_SET_DIAMETER if mode == "uncoloured" else RAINBOW_CONNECTED_SET_DIAMETER
    d = math.ceil(scale / eps**2)
    n = D.vertex_count
    if n == 0:
        raise PreconditionViolated("empty digraph")
    delta = D.min_out_degree()
    target = Fraction(delta) - eps * n

    survivors = set(range(n))
    threshold = Fraction(delta) - eps * n / 4
    while True:
        doomed = {
            v
            for v in survivors
            if Fraction(len(D.out_neighbours(v) & survivors)) < threshold
        }
        if not doomed:
            break
        survivors -= doomed
    keep = {
        v
        for v in survivors
        if Fraction(len(D.in_neighbours(v) & survivors)) >= eps * n / 2
    }

    if len(keep) <= 1:
        fallback = min(keep) if keep else (min(survivors) if survivors else 0)
        return KdSetResult(
            frozenset({fallback}),
            ConnectivityVerdict(True, "vacuous", 0),
            d,
            target,
        )
    verdict = is_kd_connected(D, keep, k, d, mode=mode, budget=budget)
    if not verdict.connected:
        S, x, y = verdict.witness
        raise NoVerifiedSetFound(
            f"peeled set of size {len(keep)} failed verification: "
            f"removal set {sorted(S, key=_label_key)} cuts {x} -> {y}"
        )
    return KdSetResult(frozenset(keep), verdict, d, target)


def rainbow_path_through(
    D: LabelledDigraph,
    A: Iterable[int],
    anchors: Sequence[int],
    S: Iterable,
    d: int,
    budget: SearchBudget | None = None,
) -> tuple[Arc, ...]:
    """Rainbow path visiting the anchors in order, avoiding the colours S.

    Built by greedy segment concatenation: each leg is the first shortest
    rainbow path of length <= d that avoids S, every colour already on the
    accumulated path and the colours of the anchors still to come.  Every
    vertex on the path has its colour in that set, so no leg revisits one.
    Legs that cannot be completed name themselves in the raised error.  An
    anchor outside D raises the kernel's ``ValueError``.
    """
    if D.vertex_labels is None:
        raise PreconditionViolated("anchored paths need a totally coloured digraph")
    aset = frozenset(A)
    S = frozenset(S)
    anchors = list(anchors)
    if not anchors:
        raise PreconditionViolated("need at least one anchor")
    _check_vertices(D, anchors)
    for a in anchors:
        if a not in aset:
            raise PreconditionViolated(f"anchor {a} outside the connected set")
        if D.vertex_labels[a] in S:
            raise PreconditionViolated(f"anchor {a} carries a forbidden colour")
    labels = [D.vertex_labels[a] for a in anchors]
    if len(set(labels)) != len(labels):
        raise PreconditionViolated("anchors must have pairwise distinct colours")

    meter = BudgetMeter(budget)
    used: set = set(S)
    used.add(labels[0])
    out: list[Arc] = []
    for i, (a, b) in enumerate(zip(anchors, anchors[1:])):
        forbidden = used.union(labels[i + 2 :])
        paths = iter_shortest_first(
            D, a, target=b, max_len=d, mode="total", forbidden=forbidden, meter=meter
        )
        leg = None if labels[i + 1] in forbidden else next(paths, None)
        if leg is None:
            raise SegmentNotFound(f"no rainbow leg {i} from {a} to {b} within {d}")
        for arc in leg:
            used.add(arc.label)
            used.add(D.vertex_labels[arc.head])
        out.extend(leg)
    if not is_rainbow_arc_path(D, tuple(out)):
        raise PathNotRainbow("rainbow_path_through built a path that is not rainbow")
    return tuple(out)
