"""Seeded corpus generation for the benchmark, independent of ``rainbowmatch``.

Every instance is a pure function of the workload name and the seed: the
generator draws from ``random.Random`` seeded with a string, which is stable
across platforms and Python versions, and it never calls into the package
under test.  A change to ``rainbowmatch.gen`` therefore cannot change a
corpus.
"""

from __future__ import annotations

import random


def rng_for(workload: str, seed: int, part: str = "") -> random.Random:
    return random.Random(f"{workload}/{seed}/{part}")


def cyclic_isotope(order: int, rng: random.Random) -> list[list[int]]:
    """Random isotope of the cyclic square of the given order.

    Rows, columns and symbols are permuted independently; cell (i, j) of the
    result holds syms[(rows[i] + cols[j]) % order].
    """
    rows = list(range(order))
    cols = list(range(order))
    syms = list(range(order))
    rng.shuffle(rows)
    rng.shuffle(cols)
    rng.shuffle(syms)
    return [[syms[(rows[i] + cols[j]) % order] for j in range(order)] for i in range(order)]


def tight_system(n: int, order: int, rng: random.Random) -> list[tuple[int, int, int]]:
    """n edge-disjoint colour classes of size n+1 with a planted transversal.

    Takes n rows, in random order, of a random isotope of the cyclic square
    of odd ``order`` (at least n+1).  X-vertices are columns, Y-vertices are
    symbols and the colour is the row.  Each class is its row's cell on the
    planted transversal plus n other cells of the row chosen at random.  In
    the base square the diagonal cells (r, r) carry the distinct symbols
    2r mod order because the order is odd, and the isotope keeps them a
    transversal, so the optimum is n.  The classes are edge-disjoint because
    a Latin square puts each (column, symbol) pair in one row.  Returns the
    edges as (x, y, c) triples in a shuffled order.
    """
    if order % 2 == 0 or order < n + 1:
        raise ValueError("order must be odd and at least n+1")
    col_p = list(range(order))
    sym_p = list(range(order))
    rng.shuffle(col_p)
    rng.shuffle(sym_p)
    edges = []
    for colour, r in enumerate(rng.sample(range(order), n)):
        others = [j for j in range(order) if j != r]
        # base cell (r, j) holds symbol (r + j) % order
        edges.extend((col_p[j], sym_p[(r + j) % order], colour) for j in [r, *rng.sample(others, n)])
    rng.shuffle(edges)
    return edges


def edge_list_text(left: int, right: int, colours: int, edges) -> str:
    lines = [f"{left} {right} {colours}"]
    lines.extend(f"{x} {y} {c}" for x, y, c in edges)
    return "\n".join(lines) + "\n"


def latin_text(grid) -> str:
    return "\n".join(" ".join(str(s) for s in row) for row in grid) + "\n"


def proper_digraph(vertices: int, out_degree: int, rng: random.Random):
    """Random properly totally coloured digraph with rainbow vertex colours.

    Vertex v has colour v.  Each vertex sends arcs to ``out_degree`` distinct
    random heads; arc colours come from the palette vertices.. and are drawn
    uniformly among those still unused at both the tail (out-arcs) and the
    head (in-arcs).  The palette has out_degree + max in-degree colours, so a
    free colour always exists.  Returns the arcs as (tail, head, colour).
    """
    heads = []
    indeg = [0] * vertices
    for v in range(vertices):
        hs = rng.sample([w for w in range(vertices) if w != v], out_degree)
        heads.append(hs)
        for w in hs:
            indeg[w] += 1
    palette = list(range(vertices, vertices + out_degree + max(indeg)))
    used_out = [set() for _ in range(vertices)]
    used_in = [set() for _ in range(vertices)]
    arcs = []
    for v in range(vertices):
        for w in heads[v]:
            free = [c for c in palette if c not in used_out[v] and c not in used_in[w]]
            c = rng.choice(free)
            used_out[v].add(c)
            used_in[w].add(c)
            arcs.append((v, w, c))
    return arcs
