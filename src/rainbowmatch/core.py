"""Graph and matching data model, validation, matching context, greedy solver.

The universe every solver operates on is a bipartite multigraph whose colour
classes are matchings.  Vertices and colours are dense 0-based integer ids
(original labels, when any, live in side tables owned by the I/O layer).
Graphs and contexts are immutable after construction and safe to share
across concurrent workers; everything in this module is a pure function of
its inputs.  A graph's ``x_index`` (per colour, X-vertex -> edge) and a
context's maps (vertex or colour -> matching edge) are their owners' own
indexes: read them, never change them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    ContextInvalid,
    DuplicateEdgeAcrossColours,
    DuplicateEndpointInColourClass,
    IdOutOfRange,
)


class Edge(NamedTuple):
    x: int
    y: int
    c: int


class Verdict(NamedTuple):
    ok: bool
    reason: str | None

    def __bool__(self) -> bool:
        return self.ok


class ColouredBipartiteMultigraph:
    """Bipartite multigraph whose colour classes are matchings.

    Parallel edges of different colours are stored explicitly; nothing is
    deduplicated.  When ``edge_disjoint`` is set, construction additionally
    rejects any (x, y) pair carrying two colours.  ``x_index[c]`` maps each
    X-vertex to its colour-c edge, in edge order; ``colour_classes`` are its
    values.  The dicts are the graph's own index: read them, never change them.
    """

    __slots__ = (
        "left_size",
        "right_size",
        "colour_count",
        "edges",
        "edge_disjoint",
        "colour_classes",
        "x_index",
    )

    def __init__(
        self,
        left_size: int,
        right_size: int,
        colour_count: int,
        edges: Iterable[tuple[int, int, int]],
        edge_disjoint: bool = False,
    ):
        if left_size < 0 or right_size < 0 or colour_count < 0:
            raise IdOutOfRange("sizes must be non-negative")
        self.left_size = left_size
        self.right_size = right_size
        self.colour_count = colour_count
        self.edge_disjoint = edge_disjoint
        edges = tuple(edges)
        if not set(map(type, edges)) <= {Edge}:
            edges = tuple(e if type(e) is Edge else Edge(*e) for e in edges)
        self.edges = edges

        x_index: list[dict[int, Edge]] = [{} for _ in range(colour_count)]
        y_seen: list[set[int]] = [set() for _ in range(colour_count)]
        pairs: dict[tuple[int, int], int] = {}

        for e in self.edges:
            x, y, c = e
            if not (0 <= x < left_size):
                raise IdOutOfRange(f"X-vertex {x} outside [0, {left_size})")
            if not (0 <= y < right_size):
                raise IdOutOfRange(f"Y-vertex {y} outside [0, {right_size})")
            if not (0 <= c < colour_count):
                raise IdOutOfRange(f"colour {c} outside [0, {colour_count})")
            at_x = x_index[c]
            ys = y_seen[c]
            if x in at_x:
                raise DuplicateEndpointInColourClass(
                    f"colour {c} has two edges at X-vertex {x}"
                )
            if y in ys:
                raise DuplicateEndpointInColourClass(
                    f"colour {c} has two edges at Y-vertex {y}"
                )
            at_x[x] = e
            ys.add(y)
            if edge_disjoint:
                prev = pairs.get((x, y))
                if prev is not None:
                    raise DuplicateEdgeAcrossColours(
                        f"pair ({x}, {y}) carries colours {prev} and {c}"
                    )
                pairs[(x, y)] = c

        self.x_index = tuple(x_index)
        self.colour_classes = tuple(tuple(at_x.values()) for at_x in x_index)

    def has_edge(self, e: Edge) -> bool:
        """Whether ``e`` is an edge; any tuple not of three ids is not."""
        if len(e) != 3:
            return False
        c = e[2]
        return 0 <= c < self.colour_count and self.x_index[c].get(e[0]) == e

    def __eq__(self, other) -> bool:
        if not isinstance(other, ColouredBipartiteMultigraph):
            return NotImplemented
        return (
            self.left_size == other.left_size
            and self.right_size == other.right_size
            and self.colour_count == other.colour_count
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.left_size, self.right_size, self.colour_count, self.edges))

    def __repr__(self) -> str:
        return (
            f"ColouredBipartiteMultigraph(L={self.left_size}, R={self.right_size}, "
            f"C={self.colour_count}, |E|={len(self.edges)})"
        )


@dataclass(frozen=True)
class RainbowMatching:
    """A matching whose edges all have distinct colours."""

    edges: tuple[Edge, ...] = ()

    @property
    def size(self) -> int:
        return len(self.edges)

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges)

    def colours(self) -> frozenset[int]:
        return frozenset(e.c for e in self.edges)

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)


def verify_rainbow_matching(
    graph: ColouredBipartiteMultigraph, matching: RainbowMatching | Sequence[Edge]
) -> Verdict:
    """Check all rainbow-matching invariants against the host graph.

    Returns a verdict with the first violation found; never raises.
    """
    edges = tuple(matching)
    xs: set[int] = set()
    ys: set[int] = set()
    cs: set[int] = set()
    for e in edges:
        if not graph.has_edge(e):
            return Verdict(False, f"edge {tuple(e)} not in host graph")
        x, y, c = e
        if x in xs:
            return Verdict(False, f"shared X-endpoint {x}")
        if y in ys:
            return Verdict(False, f"shared Y-endpoint {y}")
        if c in cs:
            return Verdict(False, f"repeated colour {c}")
        xs.add(x)
        ys.add(y)
        cs.add(c)
    return Verdict(True, None)


def greedy_rainbow_matching(graph: ColouredBipartiteMultigraph) -> RainbowMatching:
    """Greedy baseline: one disjoint edge per colour class when possible.

    Colours are processed in ascending id order; within a class the first
    disjoint edge in input order wins, so output is deterministic.  When
    every class has at least twice as many edges as there are colours, the
    result covers every colour.
    """
    used_x: set[int] = set()
    used_y: set[int] = set()
    chosen: list[Edge] = []
    for c in range(graph.colour_count):
        for e in graph.colour_classes[c]:
            if e.x not in used_x and e.y not in used_y:
                chosen.append(e)
                used_x.add(e.x)
                used_y.add(e.y)
                break
    return RainbowMatching(tuple(chosen))


class MatchingContext:
    """The maps that tie a rainbow matching to its host graph.

    ``edge_of_x``, ``edge_of_y`` and ``edge_of_colour`` map each covered
    X-vertex, covered Y-vertex and matched colour to its matching edge;
    uncovered vertices and missing colours are not keys.  ``x0`` and ``y0``
    list the uncovered vertices.  A context holds no missing colour of its
    own: a probe is a context plus the missing colour its walks start from.
    """

    __slots__ = (
        "graph",
        "matching",
        "edge_of_x",
        "edge_of_y",
        "edge_of_colour",
        "x0",
        "y0",
    )

    def __init__(
        self,
        graph: ColouredBipartiteMultigraph,
        matching: RainbowMatching,
    ):
        ok = verify_rainbow_matching(graph, matching)
        if not ok:
            raise ContextInvalid(f"matching invalid for context: {ok.reason}")
        self.graph = graph
        self.matching = matching
        self.edge_of_x = {e.x: e for e in matching}
        self.edge_of_y = {e.y: e for e in matching}
        self.edge_of_colour = {e.c: e for e in matching}
        self.x0 = frozenset(range(graph.left_size)).difference(self.edge_of_x)
        self.y0 = frozenset(range(graph.right_size)).difference(self.edge_of_y)


# --- text formats: edge lists ("L R C", then "x y c" lines) and matchings ---

# The bulk path reads a canonical text: every line three runs of ASCII digits
# joined by single spaces, and "\n" after every line but perhaps the last.
# Less its digits such a text is "  \n" per line (the last "\n" optional);
# as that would also pass an empty id, "1  2", the text must split into three
# tokens per line.  int() reads each distinct token once; a dict gives repeats.
# An id too long for int() sends the text to the line loop, which names the
# first such id in file order.
_DELETE_DIGITS = str.maketrans("", "", "0123456789")


def _plain_rows(text: str) -> list[Edge] | None:
    """The rows of a canonical text, or None for any other text (which the
    caller reads line by line)."""
    residue = text.translate(_DELETE_DIGITS)
    lines = (len(residue) + 1) // 3
    if residue != ("  \n" * lines)[: len(residue)]:
        return None
    tokens = text.split()
    if len(tokens) != 3 * lines:
        return None
    distinct = set(tokens)
    try:
        value = dict(zip(distinct, map(int, distinct)))
    except ValueError:
        return None
    it = map(value.__getitem__, tokens)
    # tuple.__new__(Edge, t) builds each row with no Python-level call
    return list(map(tuple.__new__, repeat(Edge), zip(it, it, it)))


def _content_lines(text: str) -> list[str]:
    """The lines of a text less ``#`` comments and outer whitespace, if not blank."""
    return [ln for ln in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if ln]


def read_edge_list(text: str, edge_disjoint: bool = False) -> ColouredBipartiteMultigraph:
    rows = _plain_rows(text)
    if rows is None:
        rows = []
        for i, ln in enumerate(_content_lines(text)):
            parts = ln.split()
            if len(parts) != 3:
                shape = "edge line must be 'x y c'" if i else "header must be 'L R C'"
                raise ValueError(f"{shape}, got {ln!r}")
            rows.append(Edge(*map(int, parts)))  # int() names a bad value
    if not rows:
        raise ValueError("empty edge-list input")
    left, right, colours = rows[0]
    return ColouredBipartiteMultigraph(
        left, right, colours, islice(rows, 1, None), edge_disjoint=edge_disjoint
    )


def read_matching(text: str) -> RainbowMatching:
    rows = []
    for ln in _content_lines(text):
        try:
            rows.append(Edge(*map(int, ln.split())))
        except (TypeError, ValueError):
            raise ValueError(f"matching line must be 'x y c', got {ln!r}") from None
    return RainbowMatching(tuple(rows))


def write_edge_list(graph: ColouredBipartiteMultigraph) -> str:
    out = [f"{graph.left_size} {graph.right_size} {graph.colour_count}"]
    out.extend(f"{e.x} {e.y} {e.c}" for e in graph.edges)
    return "\n".join(out) + "\n"
