"""Cross-check of the exact oracle's optimum against an integer program.

The program is built from the edge list alone and solved by SciPy's MILP
solver: one binary variable per edge, at most one chosen edge per X vertex,
per Y vertex and per colour; required edges are fixed to 1 and edges at
forbidden X vertices or of forbidden colours to 0.  SciPy is a test-only
dependency; without it the module is skipped.
"""

import pytest

from rainbowmatch.gen import generate_instance
from rainbowmatch.oracle import exact_max_rainbow_matching

np = pytest.importorskip("numpy")
optimize = pytest.importorskip("scipy.optimize")


def _milp_max(graph, required=(), forbidden_x=(), forbidden_colours=()) -> int:
    edges = graph.edges
    rows = []
    for key, count in ((lambda e: e.x, graph.left_size), (lambda e: e.y, graph.right_size),
                       (lambda e: e.c, graph.colour_count)):
        for v in range(count):
            rows.append([1.0 if key(e) == v else 0.0 for e in edges])
    lower = [1.0 if e in set(required) else 0.0 for e in edges]
    upper = [0.0 if e.x in set(forbidden_x) or e.c in set(forbidden_colours) else 1.0 for e in edges]
    result = optimize.milp(
        c=-np.ones(len(edges)),
        constraints=optimize.LinearConstraint(np.array(rows), -np.inf, 1.0),
        integrality=np.ones(len(edges)),
        bounds=optimize.Bounds(lower, upper),
    )
    assert result.success, result.message
    return round(-result.fun)


def _cases():
    for i in range(12):
        n = 3 + i % 5
        yield f"random-{i}", generate_instance(
            "random", n, max(n - 1 - i % 3, 1), False, seed=700 + i, left_size=n, right_size=n + i % 2
        ), {}
    for n in (3, 4, 5, 6):
        yield f"latin-{n}", generate_instance("latin", n, seed=n), {}
    for i in range(14):
        n = 4 + i % 3
        g = generate_instance("random", n, n, True, seed=800 + i, left_size=n + 1, right_size=n + 1)
        e = g.colour_classes[i % n][0]
        constraints = [
            {"required": [e]},
            {"forbidden_x": [x for x in range(n + 1) if x != e.x][: 1 + i % 2]},
            {"forbidden_colours": [(i + 1) % n]},
            {"required": [e], "forbidden_x": [(e.x + 1) % (n + 1)], "forbidden_colours": [(e.c + 1) % n]},
        ][i % 4]
        yield f"constrained-{i}", g, constraints


@pytest.mark.parametrize(
    "graph,constraints", [pytest.param(g, kw, id=name) for name, g, kw in _cases()]
)
def test_oracle_size_matches_milp(graph, constraints):
    result = exact_max_rainbow_matching(graph, **constraints)
    assert result.optimal
    assert result.size == _milp_max(graph, **constraints)
