"""Output checks made apart from the program under test.

Every check recomputes what it needs from the inputs the benchmark wrote
itself, or tests a property the method must have; none compares against a
stored output and none calls into ``rainbowmatch``.  A check returns None
when the output passes and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

# The fractional Menger program is solved in exact arithmetic up to this many
# paths and in floating point beyond, with this tolerance.
EXACT_PATH_LIMIT = 64
LP_TOLERANCE = 1e-9


def read_edges(path: str) -> list[tuple[int, int, int]]:
    """The (x, y, c) lines of an edge-list file the benchmark wrote."""
    with open(path) as fh:
        lines = fh.read().splitlines()[1:]
    return [tuple(int(t) for t in line.split()) for line in lines]


def matching_problem(edges, matching, expect_size: int) -> str | None:
    """Edges present in the input, X, Y and colours each distinct, size fixed."""
    edge_set = set(edges)
    xs, ys, cs = set(), set(), set()
    for x, y, c in matching:
        if (x, y, c) not in edge_set:
            return f"edge {(x, y, c)} not in the input"
        if x in xs or y in ys or c in cs:
            return f"edge {(x, y, c)} repeats an X-vertex, Y-vertex or colour"
        xs.add(x)
        ys.add(y)
        cs.add(c)
    if len(matching) != expect_size:
        return f"size {len(matching)}, expected {expect_size}"
    return None


def check_solve(path: str, n: int, rc: int, out: str) -> str | None:
    """`solve --algorithm switching`: a verified rainbow matching of size n."""
    if rc != 0:
        return f"exit code {rc}, expected 0"
    payload = json.loads(out)
    matching = [(e["x"], e["y"], e["c"]) for e in payload["matching"]]
    if payload["size"] != len(matching) or payload["target"] != n:
        return "reported size or target disagrees with the matching"
    if payload["verified"] is not True:
        return "program did not verify its own matching"
    return matching_problem(read_edges(path), matching, n)


def check_oracle_max(path: str, n: int, rc: int, out: str) -> str | None:
    """`oracle-max` on a planted system: size n, proved optimal."""
    if rc != 0:
        return f"exit code {rc}, expected 0"
    payload = json.loads(out)
    if payload["optimal"] is not True:
        return "search did not finish inside the budget"
    matching = [(e["x"], e["y"], e["c"]) for e in payload["matching"]]
    if payload["size"] != len(matching):
        return "reported size disagrees with the matching"
    return matching_problem(read_edges(path), matching, n)


def check_transversal(grid, rc: int, out: str) -> str | None:
    """`transversal` on an even-order cyclic isotope: exit 1 and size n-1.

    Cyclic groups of even order have no complete mapping and isotopy keeps
    this, so no full transversal exists; a partial one of size n-1 always
    does.  Symbol ids are the tokens' first-appearance order in the grid.
    """
    n = len(grid)
    if rc != 1:
        return f"exit code {rc}, expected 1 (no transversal)"
    payload = json.loads(out)
    ids: dict[int, int] = {}
    for row in grid:
        for tok in row:
            ids.setdefault(tok, len(ids))
    rows, cols, syms = set(), set(), set()
    for r, c, s in payload["cells"]:
        if not (0 <= r < n and 0 <= c < n) or ids[grid[r][c]] != s:
            return f"cell {(r, c, s)} disagrees with the grid"
        if r in rows or c in cols or s in syms:
            return f"cell {(r, c, s)} repeats a row, column or symbol"
        rows.add(r)
        cols.add(c)
        syms.add(s)
    if payload["size"] != len(payload["cells"]) or payload["target"] != n:
        return "reported size or target disagrees with the cells"
    if len(payload["cells"]) != n - 1:
        return f"size {len(payload['cells'])}, expected {n - 1}"
    return None


def rainbow_distances(vertices: int, arcs, v: int, cap: int) -> dict[int, int]:
    """Shortest totally rainbow path length from v to each vertex, up to cap.

    A path is totally rainbow when the colours of all its vertices (vertex v
    has colour v) and all its arcs are pairwise distinct.  Plain depth-first
    search over simple paths with the set of colours used so far.
    """
    out_arcs: list[list[tuple[int, int]]] = [[] for _ in range(vertices)]
    for tail, head, colour in arcs:
        out_arcs[tail].append((head, colour))
    best = {v: 0}
    used = {v}
    on_path = {v}

    def walk(u: int, depth: int) -> None:
        if depth == cap:
            return
        for w, colour in out_arcs[u]:
            if w in on_path or colour in used or w in used or colour == w:
                continue
            if best.get(w, cap + 1) > depth + 1:
                best[w] = depth + 1
            used.add(colour)
            used.add(w)
            on_path.add(w)
            walk(w, depth + 1)
            on_path.discard(w)
            used.discard(w)
            used.discard(colour)

    walk(v, 0)
    return best


def check_ball(vertices: int, arcs, v: int, eps: Fraction, result) -> str | None:
    """Low-expansion ball: t0 <= ceil(1/eps), minimal, and the growth
    inequality |B(t0+1)| <= |B(t0)| + eps*|D| on recomputed distances."""
    t0, ball = result
    if t0 > math.ceil(1 / eps):
        return f"t0 = {t0} exceeds ceil(1/eps)"
    dist = rainbow_distances(vertices, arcs, v, t0 + 1)
    sizes = [sum(1 for d in dist.values() if d <= t) for t in range(t0 + 2)]
    if set(ball) != {x for x, d in dist.items() if d <= t0}:
        return "ball differs from the recomputed radius-t0 ball"
    if Fraction(sizes[t0 + 1]) > sizes[t0] + eps * vertices:
        return "growth inequality fails at t0"
    for t in range(t0):
        if Fraction(sizes[t + 1]) <= sizes[t] + eps * vertices:
            return f"radius {t} < t0 already satisfies the inequality"
    return None


def check_two_hop(vertices: int, arcs, m: int, eps: Fraction, result) -> str | None:
    """Re-validate every certificate bundle and the degree law.

    A bundle for derived arc x -> y holds m entries (first arc, midpoint,
    second arc) whose arcs exist, run x -> midpoint -> y, have distinct
    midpoints, and whose union with x and y is totally rainbow.  The degree
    law: derived min out-degree >= base min out-degree - eps*|D|.
    """
    derived, cert = result
    arc_set = set(arcs)
    derived_arcs = {(a.tail, a.head) for a in derived.arcs}
    if derived_arcs != set(cert.bundles) or len(derived_arcs) != len(derived.arcs):
        return "derived arcs and certified bundles differ"
    for (x, y), entries in cert.bundles.items():
        if len(entries) != m:
            return f"bundle {(x, y)} has {len(entries)} entries, expected {m}"
        colours = [x, y]
        mids = set()
        for e in entries:
            first = (e.first.tail, e.first.head, e.first.label)
            second = (e.second.tail, e.second.head, e.second.label)
            if first not in arc_set or second not in arc_set:
                return f"bundle {(x, y)} uses an arc not in the digraph"
            if first[0] != x or first[1] != e.midpoint or second[0] != e.midpoint or second[1] != y:
                return f"bundle {(x, y)} entry does not run x -> midpoint -> y"
            if e.midpoint_colour != e.midpoint or e.midpoint in mids:
                return f"bundle {(x, y)} midpoint colour wrong or repeated"
            mids.add(e.midpoint)
            colours += [e.midpoint, first[2], second[2]]
        if len(set(colours)) != len(colours):
            return f"bundle {(x, y)} is not rainbow"
    base_out = [set() for _ in range(vertices)]
    for tail, head, _ in arcs:
        base_out[tail].add(head)
    derived_out = [set() for _ in range(vertices)]
    for x, y in derived_arcs:
        derived_out[x].add(y)
    base_min = min(len(s) for s in base_out)
    derived_min = min(len(s) for s in derived_out)
    if Fraction(derived_min) < base_min - eps * vertices:
        return f"degree law fails: {derived_min} < {base_min} - eps*|D|"
    return None


def check_through_path(arcs, anchors, d: int, path) -> str | None:
    """Anchored rainbow path: arcs exist, anchors in order, totally rainbow,
    every leg of length <= d."""
    arc_set = set(arcs)
    if not path:
        return "empty path"
    verts = [path[0].tail]
    for a in path:
        if (a.tail, a.head, a.label) not in arc_set:
            return f"arc {tuple(a)} not in the digraph"
        if a.tail != verts[-1]:
            return "arcs do not form a walk"
        verts.append(a.head)
    colours = verts + [a.label for a in path]
    if len(set(colours)) != len(colours):
        return "vertex and arc colours are not pairwise distinct"
    positions = []
    for anchor in anchors:
        if anchor not in verts:
            return f"anchor {anchor} not visited"
        positions.append(verts.index(anchor))
    if positions[0] != 0 or positions[-1] != len(verts) - 1:
        return "path does not run from the first anchor to the last"
    legs = [b - a for a, b in zip(positions, positions[1:])]
    if any(leg <= 0 or leg > d for leg in legs):
        return f"leg lengths {legs} not all in 1..{d}"
    return None


def menger_path_count(k: int, m: int) -> int:
    """Rainbow source-sink paths of the (k, m) multipath: j of the m hops
    take distinct shared colours, the rest their own colour."""
    return sum(math.comb(m, j) * math.perm(k, j) for j in range(k + 1))


def check_menger(k: int, m: int, rc: int, out: str) -> str | None:
    """Properties I and II, the closed-form path count, and LP value (m+k)/m."""
    if rc != 0:
        return f"exit code {rc}, expected 0"
    payload = json.loads(out)
    if payload["property_I"] is not True or payload["property_II"] is not True:
        return "property I or II reported false"
    paths = menger_path_count(k, m)
    if payload["path_count"] != paths:
        return f"path_count {payload['path_count']}, expected {paths}"
    lp = payload["lp"]
    value = Fraction(m + k, m)
    if paths <= EXACT_PATH_LIMIT:
        if lp["exact"] is not True:
            return "LP should be exact"
        if Fraction(lp["primal_value"]) != value or Fraction(lp["dual_value"]) != value:
            return f"LP value {lp['primal_value']}, expected {value}"
    else:
        for key in ("primal_value", "dual_value"):
            if abs(float(lp[key]) - float(value)) > LP_TOLERANCE:
                return f"LP {key} {lp[key]} not within tolerance of {value}"
    return None
