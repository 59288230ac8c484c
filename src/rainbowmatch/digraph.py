"""Directed graphs with vertex/edge labels and rainbow path search.

One structure serves several roles: the switch digraph on colours (totally
labelled), the colour digraph of the golden-ratio bound check (edge labels
only), derived two-hop digraphs (unlabelled), and edge-coloured digraphs in
general.  "Label" and "colour" are interchangeable here.

A digraph keeps one sorted out-arc list per vertex and builds its per-head
index on first use: most digraphs built here never read it.  The switch
digraph goes further and builds each out-list the first time a walk reads
it, since most of its walks end within a few arcs of the missing colour.

``iter_rainbow_paths`` is the one rainbow path search; the switching engine,
the connectivity toolbox, the oracles and the Menger lab all consume it.
``iter_shortest_first`` deepens it one length at a time, for the searches
that want the first shortest path; a failed engine probe reads it to the
end.  The rainbow rule is one of three ``MODES``, named after the labels
that must be pairwise distinct along a path: ``"edge"`` (arc labels),
``"vertex"`` (vertex labels, endpoints included) or ``"total"`` (arc and
vertex labels together).

The mode and a single ``forbidden`` label set are the kernel's only rules.
The set constrains the labels the mode puts in play: arc labels in
``edge`` and ``total`` mode, and the labels of *internal* vertices in
``vertex`` and ``total`` mode.  Endpoints are exempt, matching the
convention used throughout.  Every walk runs on a ``BudgetMeter``: with
none given, one on the default ``SearchBudget``.
"""

from __future__ import annotations

from itertools import chain, groupby, repeat
from operator import itemgetter
from typing import Hashable, Iterable, Iterator, NamedTuple

from .budget import BudgetMeter
from .core import Verdict

MODES = ("edge", "vertex", "total")


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


def _arc_key(a: Arc) -> tuple:
    return (a.head, _label_key(a.label))


# Label type sets on which the labels order among themselves as _label_key
# orders them, so out-arcs sort by the C-level key (head, label).
_PLAIN_LABEL_TYPES = ({int, bool}, {str}, {type(None)})
_HEAD = itemgetter(1)
_HEAD_LABEL = itemgetter(1, 2)
_LABEL = itemgetter(2)


class _LazyOutLists:
    """Out-lists built on first read: ``out[v]`` is ``build_row(v)``, kept
    as built.  Iterating it builds every row.  ``build_row`` must return
    the same tuple of ``Arc``s for a vertex whenever it is called, so two
    threads that race on one row build equal rows."""

    __slots__ = ("_rows", "_build_row")

    def __init__(self, vertex_count: int, build_row) -> None:
        self._rows: list[tuple[Arc, ...] | None] = [None] * vertex_count
        self._build_row = build_row

    def __getitem__(self, v: int) -> tuple[Arc, ...]:
        row = self._rows[v]
        if row is None:
            v = range(len(self._rows))[v]  # a negative v names the row it indexes
            row = self._rows[v] = self._build_row(v)
        return row

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple[Arc, ...]]:
        return map(self.__getitem__, range(len(self._rows)))


class LabelledDigraph:
    """Immutable digraph on vertices 0..n-1 with optional labels.

    Parallel arcs (same endpoints, different labels) are allowed; self-loops
    are not.  ``vertex_labels`` is either None (unlabelled vertices) or a
    tuple of length n.  The in-side is one index, built on the first call
    that reads it: for each head v, tail u -> the arcs u -> v in out-arc
    order.

    There are two ways in and one assembly.  The constructor takes arcs in
    any order, checks them, groups them by tail and sorts each group by
    (head, label); ``arcs`` keeps the order given.  ``_from_out_lists``
    takes out-lists a producer has already built in that order and checks
    nothing; ``arcs`` is then the out-lists read tail by tail, assembled on
    its first read.  Only the two-hop and switch digraphs use it, and the
    switch digraph hands over lazy out-lists, whose rows are built when a
    walk or a reader first reads them.  Every public reader answers as the
    constructor's digraph would, whichever rows are built so far.

    The digraph stays immutable in value.  Two threads that race on a first
    read build the same index, the same ``arcs`` and equal rows.
    """

    __slots__ = ("vertex_count", "vertex_labels", "_arcs", "_out", "_into")

    def __init__(
        self,
        vertex_count: int,
        arcs: Iterable[tuple[int, int, Hashable]],
        vertex_labels: tuple | None = None,
    ):
        # tuple.__new__(Arc, a) builds each arc with no Python-level call; an
        # arc of the wrong size is rebuilt by Arc(*a), which raises its error.
        arcs = tuple(map(tuple.__new__, repeat(Arc), arcs))
        if not set(map(len, arcs)) <= {3}:
            arcs = tuple(Arc(*a) for a in arcs)
        if vertex_labels is not None and len(vertex_labels) != vertex_count:
            raise ValueError("vertex_labels length must equal vertex_count")
        out: list[list[Arc]] = [[] for _ in range(vertex_count)]
        for a in arcs:
            if not (0 <= a.tail < vertex_count and 0 <= a.head < vertex_count):
                raise ValueError(f"arc {a} endpoint out of range")
            if a.tail == a.head:
                raise ValueError(f"self-loop {a} not allowed")
            out[a.tail].append(a)
        # sorted adjacency gives lexicographic path enumeration for free
        kinds = set(map(type, map(_LABEL, arcs)))
        plain = any(kinds <= types for types in _PLAIN_LABEL_TYPES)
        key = _HEAD_LABEL if plain else _arc_key
        sorted_out = tuple(tuple(sorted(lst, key=key)) for lst in out)
        self._assemble(vertex_count, sorted_out, arcs, vertex_labels)

    @classmethod
    def _from_out_lists(
        cls,
        vertex_count: int,
        out: tuple[tuple[Arc, ...], ...] | _LazyOutLists,
        vertex_labels: tuple | None = None,
    ) -> LabelledDigraph:
        """The digraph whose out-arcs at v are ``out[v]``, taken as given.

        ``out`` is a tuple of built rows or a ``_LazyOutLists``.  The caller
        vouches for what the constructor would check: one row per vertex,
        each a tuple of ``Arc``s leaving v in (head, label) order, with no
        self-loop and no endpoint out of range, and labels of length
        ``vertex_count`` when given.
        """
        D = cls.__new__(cls)
        D._assemble(vertex_count, out, None, vertex_labels)
        return D

    def _assemble(self, vertex_count, out, arcs, vertex_labels) -> None:
        self.vertex_count = vertex_count
        self.vertex_labels = vertex_labels
        self._arcs: tuple[Arc, ...] | None = arcs
        self._out = out
        self._into: tuple[dict[int, tuple[Arc, ...]], ...] | None = None

    @property
    def arcs(self) -> tuple[Arc, ...]:
        """Every arc: in the order given to the constructor, or else the
        out-lists read tail by tail, assembled on first read."""
        if self._arcs is None:
            self._arcs = tuple(chain.from_iterable(self._out))
        return self._arcs

    def out_arcs(self, v: int) -> tuple[Arc, ...]:
        return self._out[v]

    def arcs_into(self, v: int) -> dict[int, tuple[Arc, ...]]:
        """Tail u -> the arcs u -> v in out-arc order, tails ascending.
        The dict is the digraph's own index: read it, never change it."""
        if self._into is None:
            into: list[dict[int, tuple[Arc, ...]]] = [{} for _ in range(self.vertex_count)]
            for u, lst in enumerate(self._out):
                for head, arcs in groupby(lst, _HEAD):  # out-arcs sort by head
                    into[head][u] = tuple(arcs)
            self._into = tuple(into)
        return self._into[v]

    def arcs_between(self, u: int, v: int) -> tuple[Arc, ...]:
        return self.arcs_into(v).get(u, ())

    def out_neighbours(self, v: int) -> frozenset[int]:
        return frozenset(a.head for a in self._out[v])

    def in_neighbours(self, v: int) -> frozenset[int]:
        return frozenset(self.arcs_into(v))

    def out_degree(self, v: int) -> int:
        return len(self.out_neighbours(v))

    def min_out_degree(self) -> int:
        if self.vertex_count == 0:
            return 0
        return min(self.out_degree(v) for v in range(self.vertex_count))

    def __repr__(self) -> str:
        return f"LabelledDigraph(|V|={self.vertex_count}, |A|={len(self.arcs)})"


def _check_vertices(D: LabelledDigraph, vertices: Iterable[int]) -> None:
    """``ValueError`` naming the first of ``vertices`` outside D.  Callers
    check before they read a label: a label at -1 is vertex n-1's."""
    for v in vertices:
        if not 0 <= v < D.vertex_count:
            raise ValueError(f"vertex {v} is not among the digraph's {D.vertex_count} vertices")


def mode_labels(D: LabelledDigraph, mode: str) -> tuple[bool, list | None]:
    """Whether arc labels count under ``mode``, and the vertex labels that do
    (None in ``"edge"`` mode).  ``ValueError`` for a mode not in ``MODES``,
    or for a mode other than ``"edge"`` on a digraph without vertex labels."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode != "edge" and D.vertex_labels is None:
        raise ValueError(f"mode {mode!r} needs a vertex-labelled digraph")
    return mode != "vertex", None if mode == "edge" else D.vertex_labels


def iter_rainbow_paths(
    D: LabelledDigraph,
    start: int,
    *,
    target: int | None = None,
    max_len: int,
    mode: str = "edge",
    forbidden: frozenset = frozenset(),
    meter: BudgetMeter | None = None,
) -> Iterator[tuple[Arc, ...]]:
    """Enumerate rainbow paths from ``start`` as arc tuples, DFS preorder.

    Exploration visits out-arcs in (head, label) order, so paths appear in
    lexicographic order by vertex sequence with label as tiebreak; a path is
    always yielded before its extensions.  With a target, only paths ending
    there are yielded (the empty path when start == target), and the target
    is never passed through.  Vertices are never revisited.

    ``forbidden`` is one set of colours a path must avoid: arc labels unless
    ``mode`` is ``"vertex"``, and the labels of internal vertices unless it
    is ``"edge"``.  The endpoints are exempt; without a target every vertex
    after the start counts as internal.

    The search is iterative: a stack holds one out-arc iterator per path
    vertex, so a path of length L costs no chain of L generator frames per
    yield.  The meter ticks once per out-arc examined; with none given the
    walk makes one on the default ``SearchBudget``.  ``ValueError`` is
    raised on the first ``next`` by a start or target outside the digraph, or
    by a mode that ``mode_labels`` rejects.
    """
    _check_vertices(D, (start,) if target is None else (start, target))
    edge_rainbow, labels = mode_labels(D, mode)
    if target is None or start == target:
        yield ()
    if start == target or max_len <= 0:
        return

    out_arcs = D._out
    tick = (meter or BudgetMeter(None)).tick
    used: set = {labels[start]} if labels is not None else set()
    blocked = {start}  # the vertices on the path
    path: list[Arc] = []
    added: list[tuple] = []  # per path arc: the labels it put into used
    stack = [iter(out_arcs[start])]
    while stack:
        for arc in stack[-1]:
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
            if labels is not None:
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


def iter_shortest_first(
    D: LabelledDigraph,
    start: int,
    *,
    max_len: int,
    meter: BudgetMeter | None = None,
    **rules,
) -> Iterator[tuple[Arc, ...]]:
    """The paths of :func:`iter_rainbow_paths` shortest first, by iterative
    deepening: for each length L up to ``max_len``, one walk capped at L
    yields its paths of exactly L arcs, in DFS preorder.  Every walk passes
    the shorter prefixes again, so the first hit comes cheap and the whole
    stream dear.  ``rules`` are the kernel's: target, mode and ``forbidden``.
    One meter, the default one when none is given, counts every depth.

    A stream without a target ends at the first length that yields no path:
    such a walk yields every prefix of each path, so no longer path exists.
    A stream with a target deepens up to ``max_len``.
    """
    meter = meter or BudgetMeter(None)
    for depth in range(max_len + 1):
        found = False
        for path in iter_rainbow_paths(D, start, max_len=depth, meter=meter, **rules):
            if len(path) == depth:
                found = True
                yield path
        if not found and rules.get("target") is None:
            return


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
    in_repeat: dict = {}  # head -> the first label its in-arcs repeat, in D.arcs order
    in_seen: set = set()
    for a in D.arcs:
        if (a.head, a.label) in in_seen:
            in_repeat.setdefault(a.head, a.label)
        in_seen.add((a.head, a.label))
    for v in range(D.vertex_count):
        out_seen: dict = {}
        for a in D.out_arcs(v):
            if a.label in out_seen:
                return Verdict(
                    False, f"two out-arcs at {v} share label {a.label!r}"
                )
            out_seen[a.label] = a
        if v in in_repeat:
            return Verdict(False, f"two in-arcs at {v} share label {in_repeat[v]!r}")
        vl = D.vertex_labels[v]
        for a in chain(D.out_arcs(v), *D.arcs_into(v).values()):
            if a.label == vl:
                return Verdict(
                    False, f"vertex {v} shares label {vl!r} with incident arc"
                )
    return Verdict(True, None)


def is_rainbow_arc_path(D: LabelledDigraph, path: tuple[Arc, ...]) -> bool:
    """Validate an explicit arc sequence as a totally rainbow path of D: a
    path of D whose arc labels and vertex labels, endpoints included, are
    pairwise distinct together.  D must be vertex-labelled."""
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
    labels = [a.label for a in path]
    labels.extend(D.vertex_labels[v] for v in verts)
    return len(set(labels)) == len(labels)
