"""Directed graphs with vertex/edge labels and rainbow path search.

One structure serves several roles: the switch digraph on colours (totally
labelled), the colour digraph used by the golden-ratio solver (edge labels
only), derived two-hop digraphs (unlabelled), and edge-coloured digraphs in
general.  "Label" and "colour" are interchangeable here.

``iter_rainbow_paths`` is the one rainbow path search; the switching engine,
the connectivity toolbox, the oracles and the Menger lab all consume it.
Rainbow conventions differ per use and are driven by two knobs:

* ``edge_rainbow`` -- edge labels along a path must be pairwise distinct;
* ``vertex_scope`` -- which vertex labels join the distinctness set:
  ``"none"`` (ignored), ``"internal"`` (endpoints exempt), ``"all"``.

A single ``forbidden`` label set constrains whatever the knobs put in play:
edge labels when ``edge_rainbow`` is set, and the labels of *internal*
vertices when ``vertex_scope`` is not ``"none"``.  Endpoints are exempt,
matching the convention used throughout.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, NamedTuple

from .budget import BudgetMeter
from .core import Verdict


class Arc(NamedTuple):
    tail: int
    head: int
    label: Hashable


def _label_key(label) -> tuple:
    # stable ordering across the mixed label types we use (ints, strings, tuples)
    if isinstance(label, int):
        return (0, label)
    if isinstance(label, str):
        return (1, label)
    return (2, repr(label))


class LabelledDigraph:
    """Immutable digraph on vertices 0..n-1 with optional labels.

    Parallel arcs (same endpoints, different labels) are allowed; self-loops
    are not.  ``vertex_labels`` is either None (unlabelled vertices) or a
    tuple of length n.
    """

    __slots__ = ("vertex_count", "arcs", "vertex_labels", "_out", "_in", "_by_pair")

    def __init__(
        self,
        vertex_count: int,
        arcs: Iterable[tuple[int, int, Hashable]],
        vertex_labels: tuple | None = None,
    ):
        self.vertex_count = vertex_count
        self.arcs = tuple(Arc(*a) for a in arcs)
        if vertex_labels is not None and len(vertex_labels) != vertex_count:
            raise ValueError("vertex_labels length must equal vertex_count")
        self.vertex_labels = vertex_labels
        out: list[list[Arc]] = [[] for _ in range(vertex_count)]
        inc: list[list[Arc]] = [[] for _ in range(vertex_count)]
        for a in self.arcs:
            if not (0 <= a.tail < vertex_count and 0 <= a.head < vertex_count):
                raise ValueError(f"arc {a} endpoint out of range")
            if a.tail == a.head:
                raise ValueError(f"self-loop {a} not allowed")
            out[a.tail].append(a)
            inc[a.head].append(a)
        # sorted adjacency gives lexicographic path enumeration for free
        self._out = tuple(
            tuple(sorted(lst, key=lambda a: (a.head, _label_key(a.label))))
            for lst in out
        )
        self._in = tuple(tuple(lst) for lst in inc)
        by_pair: dict[tuple[int, int], list[Arc]] = {}
        for lst in self._out:
            for a in lst:
                by_pair.setdefault((a.tail, a.head), []).append(a)
        self._by_pair = {k: tuple(v) for k, v in by_pair.items()}

    def out_arcs(self, v: int) -> tuple[Arc, ...]:
        return self._out[v]

    def arcs_between(self, u: int, v: int) -> tuple[Arc, ...]:
        return self._by_pair.get((u, v), ())

    def in_arcs(self, v: int) -> tuple[Arc, ...]:
        return self._in[v]

    def out_neighbours(self, v: int) -> frozenset[int]:
        return frozenset(a.head for a in self._out[v])

    def in_neighbours(self, v: int) -> frozenset[int]:
        return frozenset(a.tail for a in self._in[v])

    def out_degree(self, v: int) -> int:
        return len(self.out_neighbours(v))

    def min_out_degree(self) -> int:
        if self.vertex_count == 0:
            return 0
        return min(self.out_degree(v) for v in range(self.vertex_count))

    def edge_labels(self) -> frozenset:
        return frozenset(a.label for a in self.arcs)

    def __repr__(self) -> str:
        return f"LabelledDigraph(|V|={self.vertex_count}, |A|={len(self.arcs)})"


def iter_rainbow_paths(
    D: LabelledDigraph,
    start: int,
    *,
    target: int | None = None,
    max_len: int,
    edge_rainbow: bool = True,
    vertex_scope: str = "none",
    forbidden: frozenset = frozenset(),
    forbidden_vertices: frozenset = frozenset(),
    meter: BudgetMeter | None = None,
) -> Iterator[tuple[Arc, ...]]:
    """Enumerate rainbow paths from ``start`` as arc tuples, DFS preorder.

    Exploration visits out-arcs in (head, label) order, so paths appear in
    lexicographic order by vertex sequence with label as tiebreak; a path is
    always yielded before its extensions.  With a target, only paths ending
    there are yielded (the empty path when start == target), and the target
    is never passed through.  Vertices are never revisited, nor are those in
    ``forbidden_vertices``.

    ``forbidden`` is one set of colours a path must avoid: arc labels when
    ``edge_rainbow`` is set, and the labels of internal vertices when
    ``vertex_scope`` is not ``"none"``.  The endpoints are exempt; without a
    target every vertex after the start counts as internal.

    The search is iterative: a stack holds one out-arc iterator per path
    vertex, so a path of length L costs no chain of L generator frames per
    yield.  The meter ticks once per out-arc examined.
    """
    if vertex_scope not in ("none", "internal", "all"):
        raise ValueError(f"unknown vertex_scope {vertex_scope!r}")
    if vertex_scope != "none" and D.vertex_labels is None:
        raise ValueError("vertex_scope needs a vertex-labelled digraph")
    if start in forbidden_vertices:
        return
    if target is None or start == target:
        yield ()
    if start == target or max_len <= 0:
        return

    out_arcs = D._out
    labels = D.vertex_labels if vertex_scope != "none" else None
    scope_all = vertex_scope == "all"
    tick = meter.tick if meter is not None else None
    used: set = {labels[start]} if scope_all else set()
    blocked = set(forbidden_vertices)  # plus the vertices on the path
    blocked.add(start)
    path: list[Arc] = []
    added: list[tuple] = []  # per path arc: the labels it put into used
    stack = [iter(out_arcs[start])]
    while stack:
        for arc in stack[-1]:
            if tick is not None:
                tick()
            w = arc.head
            if w in blocked:
                continue
            label = arc.label
            if edge_rainbow:
                if label in used or label in forbidden:
                    continue
                new: tuple = (label,)
            else:
                new = ()
            if labels is not None and (scope_all or w != target):
                wl = labels[w]
                if wl in used or wl in new or (w != target and wl in forbidden):
                    continue
                new += (wl,)
            path.append(arc)
            if target is None or w == target:
                yield tuple(path)
            if w != target and len(path) < max_len:
                blocked.add(w)
                used.update(new)
                added.append(new)
                stack.append(iter(out_arcs[w]))
                break
            path.pop()
        else:
            stack.pop()
            if path:
                blocked.discard(path.pop().head)
                used.difference_update(added.pop())


def check_proper_labelling(D: LabelledDigraph) -> Verdict:
    """Proper total labelling check plus pairwise-distinct vertex labels.

    Conditions: out-arcs at a vertex carry distinct labels, in-arcs at a
    vertex carry distinct labels, every vertex label differs from the labels
    of its incident arcs, and vertex labels are pairwise distinct.
    """
    if D.vertex_labels is None:
        return Verdict(False, "digraph has no vertex labels")
    seen: dict = {}
    for v in range(D.vertex_count):
        lbl = D.vertex_labels[v]
        if lbl in seen:
            return Verdict(False, f"vertices {seen[lbl]} and {v} share label {lbl!r}")
        seen[lbl] = v
    for v in range(D.vertex_count):
        out_seen: dict = {}
        for a in D.out_arcs(v):
            if a.label in out_seen:
                return Verdict(
                    False, f"two out-arcs at {v} share label {a.label!r}"
                )
            out_seen[a.label] = a
        in_seen: dict = {}
        for a in D.in_arcs(v):
            if a.label in in_seen:
                return Verdict(False, f"two in-arcs at {v} share label {a.label!r}")
            in_seen[a.label] = a
        vl = D.vertex_labels[v]
        for a in D.out_arcs(v) + D.in_arcs(v):
            if a.label == vl:
                return Verdict(
                    False, f"vertex {v} shares label {vl!r} with incident arc"
                )
    return Verdict(True, None)


def is_out_proper(D: LabelledDigraph) -> bool:
    """Out-arcs at every vertex carry pairwise distinct labels."""
    for v in range(D.vertex_count):
        labels = [a.label for a in D.out_arcs(v)]
        if len(labels) != len(set(labels)):
            return False
    return True


def is_rainbow_arc_path(
    D: LabelledDigraph,
    path: tuple[Arc, ...],
    *,
    edge_rainbow: bool = True,
    vertex_scope: str = "none",
) -> bool:
    """Validate an explicit arc sequence as a rainbow path of D."""
    verts: list[int] = []
    for i, a in enumerate(path):
        if a not in D.arcs_between(a.tail, a.head):
            return False
        if i == 0:
            verts.append(a.tail)
        elif a.tail != verts[-1]:
            return False
        verts.append(a.head)
    if len(set(verts)) != len(verts):
        return False
    labels: list = []
    if edge_rainbow:
        labels.extend(a.label for a in path)
    if vertex_scope == "all":
        labels.extend(D.vertex_labels[v] for v in verts)
    elif vertex_scope == "internal":
        labels.extend(D.vertex_labels[v] for v in verts[1:-1])
    return len(set(labels)) == len(labels)
