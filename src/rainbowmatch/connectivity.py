"""Connectivity toolbox for coloured digraphs.

Rainbow distances, low-expansion balls, close high-minimum-degree subgraphs,
the derived two-hop digraph (an arc wherever enough internally disjoint
rainbow length-2 paths exist, certified per arc), extraction of highly
connected vertex sets, and rainbow paths through prescribed anchors.

Distances follow the total-colouring convention by default (vertex and edge
colours all pairwise distinct along a path); an edge-colour-only mode is
available where callers need it.  All radius parameters derived from a real
epsilon are ceiling-rounded, explicitly, to avoid off-by-one drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .budget import BudgetMeter, SearchBudget
from .digraph import (
    Arc,
    LabelledDigraph,
    check_proper_labelling,
    is_rainbow_arc_path,
    iter_rainbow_paths,
)
from .errors import (
    CertificateExhausted,
    NoVerifiedSetFound,
    PathNotInDigraph,
    PreconditionViolated,
    SegmentNotFound,
)
from .oracle import ConnectivityVerdict, is_kd_connected

INFINITE = math.inf


def _as_fraction(eps) -> Fraction:
    # floats go through their shortest decimal form: 0.3 means 3/10 here
    if isinstance(eps, float):
        return Fraction(str(eps))
    return Fraction(eps)


def _ceil(frac: Fraction) -> int:
    return -((-frac.numerator) // frac.denominator)


def _scope(mode: str) -> str:
    if mode == "total":
        return "all"
    if mode == "edge":
        return "none"
    raise ValueError(f"unknown colour mode {mode!r}")


def rainbow_distance(
    D: LabelledDigraph,
    u: int,
    v: int,
    cap: int,
    mode: str = "total",
    budget: SearchBudget | None = None,
) -> int | float:
    """Length of the shortest rainbow u -> v path, or infinity beyond cap."""
    path = _first_shortest_path(
        D, u, v, cap, vertex_scope=_scope(mode), meter=BudgetMeter(budget)
    )
    return INFINITE if path is None else len(path)


def _first_shortest_path(
    D: LabelledDigraph,
    u: int,
    v: int,
    cap: int,
    *,
    vertex_scope: str,
    forbidden: frozenset = frozenset(),
    forbidden_vertices: frozenset = frozenset(),
    meter: BudgetMeter,
) -> tuple[Arc, ...] | None:
    """The first shortest rainbow u -> v path in depth-first order, by
    iterative deepening up to length cap; None when there is none."""
    for max_len in range(cap + 1):
        path = next(
            iter_rainbow_paths(
                D,
                u,
                target=v,
                max_len=max_len,
                vertex_scope=vertex_scope,
                forbidden=forbidden,
                forbidden_vertices=forbidden_vertices,
                meter=meter,
            ),
            None,
        )
        if path is not None:
            return path
    return None


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
    for path in iter_rainbow_paths(
        D, v, max_len=cap, vertex_scope=_scope(mode), meter=meter
    ):
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
    eps = _as_fraction(eps)
    if not (0 < eps <= 1):
        raise PreconditionViolated("eps must be in (0, 1]")
    meter = BudgetMeter(budget)
    slack = eps * D.vertex_count
    for t0 in range(_ceil(1 / eps) + 1):
        dist = _layers(D, v, t0 + 1, mode, meter)
        ball = frozenset(x for x, d in dist.items() if d <= t0)
        if len(dist) <= len(ball) + slack:
            return t0, ball
    raise AssertionError("no low-expansion radius found; impossible by counting")


def close_high_degree_subgraph(
    D: LabelledDigraph,
    v: int,
    eps,
    budget: SearchBudget | None = None,
) -> frozenset[int]:
    """Vertex set near v whose induced minimum out-degree is nearly the
    minimum out-degree over the rainbow ball of radius ceil(1/eps).

    Requires a properly totally coloured digraph with pairwise distinct
    vertex colours on at least 2/eps^2 vertices.
    """
    eps = _as_fraction(eps)
    if not (0 < eps <= 1):
        raise PreconditionViolated("eps must be in (0, 1]")
    if D.vertex_count < _ceil(2 / eps**2):
        raise PreconditionViolated(
            f"|D| = {D.vertex_count} below threshold {_ceil(2 / eps ** 2)}"
        )
    proper = check_proper_labelling(D)
    if not proper:
        raise PreconditionViolated(f"colouring not proper: {proper.reason}")
    _, ball = low_expansion_ball(D, v, eps, mode="total", budget=budget)
    return ball


@dataclass(frozen=True)
class TwoHopEntry:
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
    """
    if m < 1:
        raise ValueError("bundle size m must be >= 1")
    if D.vertex_labels is None:
        raise PreconditionViolated("two-hop derivation needs vertex colours")
    meter = BudgetMeter(budget)
    arcs: list[tuple[int, int, None]] = []
    bundles: dict[tuple[int, int], tuple[TwoHopEntry, ...]] = {}
    for x in range(D.vertex_count):
        for y in range(D.vertex_count):
            if x == y:
                continue
            if D.vertex_labels[x] == D.vertex_labels[y]:
                continue
            chosen = _greedy_bundle(_two_hop_candidates(D, x, y, meter), m)
            if chosen is None:
                candidates = list(_two_hop_candidates(D, x, y, meter))
                if len(candidates) <= 24:
                    chosen = _exhaustive_bundle(candidates, m, meter)
            if chosen is not None:
                arcs.append((x, y, None))
                bundles[(x, y)] = tuple(chosen)
    derived = LabelledDigraph(D.vertex_count, arcs)
    return derived, TwoHopCertificate(m, bundles)


def _two_hop_candidates(D: LabelledDigraph, x: int, y: int, meter: BudgetMeter):
    endpoint_labels = {D.vertex_labels[x], D.vertex_labels[y]}
    for a1 in D.out_arcs(x):
        u = a1.head
        if u == y:
            continue
        for a2 in D.arcs_between(u, y):
            meter.tick()
            triple = {a1.label, D.vertex_labels[u], a2.label}
            if len(triple) == 3 and not (triple & endpoint_labels):
                yield TwoHopEntry(a1, u, D.vertex_labels[u], a2)


def _compatible(a: TwoHopEntry, b: TwoHopEntry) -> bool:
    return a.midpoint != b.midpoint and not (
        set(a.colour_triple()) & set(b.colour_triple())
    )


def _greedy_bundle(candidates, m: int) -> list[TwoHopEntry] | None:
    chosen: list[TwoHopEntry] = []
    for cand in candidates:
        if all(_compatible(cand, c) for c in chosen):
            chosen.append(cand)
            if len(chosen) == m:
                return chosen
    return None


def _exhaustive_bundle(
    candidates: list[TwoHopEntry], m: int, meter: BudgetMeter
) -> list[TwoHopEntry] | None:
    # greedy missed; candidate pool is small so decide exactly
    import itertools

    for combo in itertools.combinations(candidates, m):
        meter.tick()
        if all(
            _compatible(a, b) for a, b in itertools.combinations(combo, 2)
        ):
            return list(combo)
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
    seed: int = 0,
) -> KdSetResult:
    """Propose a highly connected vertex set by peeling, then verify it.

    The peel repeatedly deletes vertices whose out-degree into the current
    set falls below min-out-degree(D) - eps|D|/4 and finally keeps the
    vertices with in-degree >= eps|D|/2 from the survivors.  The candidate
    is then checked by the exhaustive/sampled connectivity oracle at the
    mode's diameter bound; correctness rests on the verifier, never the
    heuristic.  Degenerate inputs fall back to a singleton with a vacuous
    verdict.
    """
    eps = _as_fraction(eps)
    if not (0 < eps <= 1):
        raise PreconditionViolated("eps must be in (0, 1]")
    d = _ceil(40 / eps**2) if mode == "uncoloured" else _ceil(1280 / eps**2)
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
    verdict = is_kd_connected(D, keep, k, d, mode=mode, budget=budget, seed=seed)
    if not verdict.connected:
        raise NoVerifiedSetFound(
            f"peeled set of size {len(keep)} failed verification: {verdict.witness}"
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

    Built by greedy segment concatenation: each leg is the shortest rainbow
    path of length <= d that avoids S plus every colour already on the
    accumulated path, and keeps clear of the anchors still to come.  Legs
    that cannot be completed name themselves in the raised error.
    """
    if D.vertex_labels is None:
        raise PreconditionViolated("anchored paths need a totally coloured digraph")
    aset = frozenset(A)
    S = frozenset(S)
    anchors = list(anchors)
    if not anchors:
        raise PreconditionViolated("need at least one anchor")
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
    used.add(D.vertex_labels[anchors[0]])
    visited: set[int] = {anchors[0]}
    out: list[Arc] = []
    for i, (a, b) in enumerate(zip(anchors, anchors[1:])):
        blocked = (visited - {a}).union(anchors[i + 2 :])
        leg = _shortest_leg(D, a, b, d, frozenset(used), frozenset(blocked), meter)
        if leg is None:
            raise SegmentNotFound(f"no rainbow leg {i} from {a} to {b} within {d}")
        for arc in leg:
            used.add(arc.label)
            used.add(D.vertex_labels[arc.head])
            visited.add(arc.head)
        out.extend(leg)
    assert is_rainbow_arc_path(D, tuple(out), edge_rainbow=True, vertex_scope="all")
    return tuple(out)


def _shortest_leg(
    D: LabelledDigraph,
    a: int,
    b: int,
    d: int,
    used: frozenset,
    blocked: frozenset[int],
    meter: BudgetMeter,
) -> tuple[Arc, ...] | None:
    """The first shortest leg in depth-first order, avoiding every colour in
    used except a's own; None when b's colour is among them."""
    forbidden = used - {D.vertex_labels[a]}
    if D.vertex_labels[b] in forbidden:
        return None
    return _first_shortest_path(
        D,
        a,
        b,
        d,
        vertex_scope="all",
        forbidden=forbidden,
        forbidden_vertices=blocked,
        meter=meter,
    )


def lift_path_through_two_hops(
    D: LabelledDigraph,
    certificate: TwoHopCertificate,
    path_vertices: Sequence[int],
    S: Iterable,
) -> tuple[Arc, ...]:
    """Expand a derived-digraph path into a rainbow path of D, twice as long.

    For every derived arc a midpoint entry is chosen whose colour triple is
    disjoint from the triples already chosen, from S, and from the colours
    of the path's vertices.  Runs out of entries -> CertificateExhausted
    (the bundle size was too small for this request).
    """
    S = frozenset(S)
    verts = list(path_vertices)
    if len(verts) < 2:
        return ()
    path_labels = {D.vertex_labels[v] for v in verts}
    if any(D.vertex_labels[v] in S for v in verts[1:-1]):
        raise PreconditionViolated("an internal path vertex carries a forbidden colour")
    used: set = set()
    out: list[Arc] = []
    for a, b in zip(verts, verts[1:]):
        entries = certificate.bundles.get((a, b))
        if entries is None:
            raise PathNotInDigraph(f"derived arc {a} -> {b} has no certificate")
        pick = None
        for entry in entries:
            triple = set(entry.colour_triple())
            if triple & used or triple & S or triple & path_labels:
                continue
            pick = entry
            break
        if pick is None:
            raise CertificateExhausted(
                f"no admissible midpoint left for derived arc {a} -> {b}"
            )
        used |= set(pick.colour_triple())
        out.extend((pick.first, pick.second))
    assert is_rainbow_arc_path(D, tuple(out), edge_rainbow=True, vertex_scope="all")
    return tuple(out)
