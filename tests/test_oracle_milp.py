"""Cross-check of the exact oracle's optimum against an integer program.

The program is built from the edge list alone and solved by SciPy's MILP
solver: one binary variable per edge, at most one chosen edge per X vertex,
per Y vertex and per colour.  SciPy is a test-only dependency; without it
the module is skipped.
"""

import pytest

from rainbowmatch.gen import generate_instance
from rainbowmatch.oracle import exact_max_rainbow_matching

np = pytest.importorskip("numpy")
optimize = pytest.importorskip("scipy.optimize")


def _milp_max(graph) -> int:
    edges = graph.edges
    rows = []
    for key, count in ((lambda e: e.x, graph.left_size), (lambda e: e.y, graph.right_size),
                       (lambda e: e.c, graph.colour_count)):
        for v in range(count):
            rows.append([1.0 if key(e) == v else 0.0 for e in edges])
    result = optimize.milp(
        c=-np.ones(len(edges)),
        constraints=optimize.LinearConstraint(np.array(rows), -np.inf, 1.0),
        integrality=np.ones(len(edges)),
        bounds=optimize.Bounds(0.0, 1.0),
    )
    assert result.success, result.message
    return round(-result.fun)


def _cases():
    for i in range(12):
        n = 3 + i % 5
        yield f"random-{i}", generate_instance(
            "random", n, max(n - 1 - i % 3, 1), False, seed=700 + i, left_size=n, right_size=n + i % 2
        )
    for n in (3, 4, 5, 6):
        yield f"latin-{n}", generate_instance("latin", n, seed=n)


@pytest.mark.parametrize("graph", [pytest.param(g, id=name) for name, g in _cases()])
def test_oracle_size_matches_milp(graph):
    result = exact_max_rainbow_matching(graph)
    assert result.optimal
    assert result.size == _milp_max(graph)
