"""Behaviour snapshot of the exact oracle.

The digest below pins which maximum the oracle returns, not only its size.
It was first recorded before the branch and bound moved to a live-edge
bitset with forward checking, and re-recorded, from the oracle as it was,
when the constrained library calls left the corpus with the options they
tested.  It covers ``oracle-max`` (matching and
``optimal`` flag; the node count is left out, since a sharper bound is
meant to change it), ``transversal`` cells over seeded isotopes of the
cyclic squares of orders 5-8 (orders 6 and 8 have no transversal, so the
search exhausts its tree), and planted systems with 20-40 colours.
"""

import hashlib
import json
import random

from rainbowmatch.cli import run
from rainbowmatch.core import write_edge_list
from rainbowmatch.gen import generate_instance

SNAPSHOT_SHA256 = "08024d6a11cd6e919cc64f2a388da5867a98af82d3b5e59ccdc5289936f045df"


def _square_text(order: int, seed: int) -> str:
    """A random isotope of the cyclic square of the given order."""
    rng = random.Random(f"oracle-snapshot/square/{order}/{seed}")
    rows, cols, syms = list(range(order)), list(range(order)), list(range(order))
    rng.shuffle(rows)
    rng.shuffle(cols)
    rng.shuffle(syms)
    grid = [[syms[(rows[i] + cols[j]) % order] for j in range(order)] for i in range(order)]
    return "\n".join(" ".join(map(str, row)) for row in grid) + "\n"


def _planted_text(n: int, seed: int) -> str:
    """n edge-disjoint classes of size n+1 on N=n+3 vertices, optimum n.

    For even n, N is odd, and each class is a row of a random isotope of
    the cyclic square of order N: its cell on the diagonal transversal plus
    n other cells of the row.
    """
    order = n + 3
    rng = random.Random(f"oracle-snapshot/planted/{n}/{seed}")
    cols, syms = list(range(order)), list(range(order))
    rng.shuffle(cols)
    rng.shuffle(syms)
    edges = []
    for colour, r in enumerate(rng.sample(range(order), n)):
        others = [j for j in range(order) if j != r]
        edges.extend((cols[j], syms[(r + j) % order], colour) for j in [r, *rng.sample(others, n)])
    rng.shuffle(edges)
    lines = [f"{order} {order} {n}"] + [f"{x} {y} {c}" for x, y, c in edges]
    return "\n".join(lines) + "\n"


def _cli_cases():
    for order in (5, 6, 7, 8):
        for seed in range(3):
            yield f"square-{order}-{seed}", "transversal", _square_text(order, seed)
    for order in (5, 6, 7):
        yield f"square-{order}-max", "oracle-max", write_edge_list(
            generate_instance("latin", order, seed=order)
        )
    for i, n in enumerate((20, 24, 28, 32, 36, 40)):
        yield f"planted-{n}", "oracle-max", _planted_text(n, i)
    for i in range(8):
        n = 4 + i % 4
        g = generate_instance("random", n + 1, n - 1, False, seed=300 + i, left_size=n, right_size=n)
        yield f"deficient-{i}", "oracle-max", write_edge_list(g)


def test_oracle_output_matches_snapshot(tmp_path, capsys):
    digest = hashlib.sha256()
    for name, command, text in _cli_cases():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        rc = run([command, str(path)])
        out = capsys.readouterr().out
        payload = json.loads(out)
        payload.pop("nodes", None)
        payload["instance"] = f"{name}.txt"
        digest.update(f"{name} exit {rc}\n{json.dumps(payload, sort_keys=True)}\n".encode())
    assert digest.hexdigest() == SNAPSHOT_SHA256
