"""Latin squares and rectangles, and their coloured-graph encodings.

A Latin rectangle is an m x n grid over n symbols with no repeat in any row
or column.  Two encodings into coloured bipartite graphs are provided: the
square encoding (rows x columns, colours = symbols) under which transversals
correspond to perfect rainbow matchings, and the rectangle encoding
(columns x symbols, colours = rows) under which rectangle transversals
correspond to rainbow matchings of size m.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ColouredBipartiteMultigraph, RainbowMatching
from .errors import (
    ColumnRepeat,
    MatchingGraphMismatch,
    NotSquare,
    RaggedRows,
    RowRepeat,
    TooManySymbols,
)


@dataclass(frozen=True)
class LatinRectangle:
    """m x n symbol grid; symbols are dense ids, original tokens retained."""

    rows: int
    cols: int
    grid: tuple[tuple[int, ...], ...]
    symbols: tuple[str, ...]

    def token(self, symbol_id: int) -> str:
        return self.symbols[symbol_id]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols


def parse_latin(text: str) -> LatinRectangle:
    """Parse a whitespace-separated grid of arbitrary distinct tokens.

    Tokens map to ids 0..n-1 in first-appearance order.  Validates row and
    column uniqueness and the symbol budget (at most one symbol per column
    count).
    """
    rows = [ln.split() for ln in text.splitlines() if ln.split()]
    if not rows:
        raise RaggedRows("no grid rows found")
    n = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != n:
            raise RaggedRows(f"row {i} has {len(row)} entries, expected {n}")
    ids: dict[str, int] = {}
    grid: list[tuple[int, ...]] = []
    for row in rows:
        out = []
        for tok in row:
            if tok not in ids:
                if len(ids) == n:
                    raise TooManySymbols(
                        f"more than {n} distinct symbols (first extra: {tok!r})"
                    )
                ids[tok] = len(ids)
            out.append(ids[tok])
        grid.append(tuple(out))

    m = len(grid)
    for i in range(m):
        seen: dict[int, int] = {}
        for j, s in enumerate(grid[i]):
            if s in seen:
                raise RowRepeat(
                    f"symbol {tuple(ids)[s]!r} repeats in row {i} "
                    f"(columns {seen[s]} and {j})"
                )
            seen[s] = j
    for j in range(n):
        seen = {}
        for i in range(m):
            s = grid[i][j]
            if s in seen:
                raise ColumnRepeat(
                    f"symbol {tuple(ids)[s]!r} repeats in column {j} "
                    f"(rows {seen[s]} and {i})"
                )
            seen[s] = i

    symbols = tuple(sorted(ids, key=ids.get))
    return LatinRectangle(m, n, tuple(grid), symbols)


def square_to_graph(rect: LatinRectangle) -> ColouredBipartiteMultigraph:
    """Order-n square -> properly coloured complete bipartite graph.

    X-vertices are rows, Y-vertices are columns, the edge (i, j) gets the
    cell's symbol as its colour.  Each colour class is a perfect matching
    and the classes are pairwise edge-disjoint.
    """
    if not rect.is_square:
        raise NotSquare(f"{rect.rows}x{rect.cols} rectangle is not a square")
    n = rect.rows
    edges = [(i, j, rect.grid[i][j]) for i in range(n) for j in range(n)]
    return ColouredBipartiteMultigraph(n, n, n, edges, edge_disjoint=True)


def rectangle_to_graph(rect: LatinRectangle) -> ColouredBipartiteMultigraph:
    """m x n rectangle -> m colour classes (rows) of size n.

    X-vertices are columns, Y-vertices are symbols; row k contributes a
    colour-k edge (column, symbol) for each of its cells.
    """
    edges = [
        (j, rect.grid[k][j], k) for k in range(rect.rows) for j in range(rect.cols)
    ]
    return ColouredBipartiteMultigraph(
        rect.cols, rect.cols, rect.rows, edges, edge_disjoint=True
    )


def extract_transversal(
    rect: LatinRectangle, matching: RainbowMatching
) -> tuple[tuple[int, int, int], ...]:
    """Map a rainbow matching on the square encoding back to grid cells.

    Returns (row, column, symbol) triples sorted by row; the distinctness of
    rows, columns and symbols is inherited from the matching invariants.
    """
    if not rect.is_square:
        raise NotSquare("transversal extraction needs a square")
    n = rect.rows
    seen_r: set[int] = set()
    seen_c: set[int] = set()
    seen_s: set[int] = set()
    cells = []
    for e in matching:
        if not (0 <= e.x < n and 0 <= e.y < n):
            raise MatchingGraphMismatch(f"edge {tuple(e)} outside the grid")
        if rect.grid[e.x][e.y] != e.c:
            raise MatchingGraphMismatch(
                f"edge {tuple(e)} disagrees with cell symbol {rect.grid[e.x][e.y]}"
            )
        if e.x in seen_r or e.y in seen_c or e.c in seen_s:
            raise MatchingGraphMismatch("matching is not rainbow on the grid")
        seen_r.add(e.x)
        seen_c.add(e.y)
        seen_s.add(e.c)
        cells.append((e.x, e.y, e.c))
    return tuple(sorted(cells))
