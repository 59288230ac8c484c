"""Behaviour snapshot of ``solve --algorithm switching --trace``.

The digest below was recorded before the engine was rewritten to work on
the host graph; it pins the CLI JSON, byte for byte, over a seeded set of
instances.  The tight systems (n rows of a cyclic square of order n+1)
reach the rotation search, and the full even-order squares, which have no
transversal, exhaust it.  A change to the engine that alters any matching,
augmentation record or rotation count changes the digest.
"""

import hashlib
import random

from rainbowmatch.cli import run
from rainbowmatch.core import write_edge_list
from rainbowmatch.gen import generate_instance

SNAPSHOT_SHA256 = "477d3353c139acc338437d86ee5d2705bdc4eee0afbf46832101cf76f865655f"

# (order, seed) of tight systems; most of them reach the rotation search
TIGHT = [(7, 0), (9, 0), (9, 9), (10, 1), (11, 0), (12, 4), (13, 6), (15, 8), (17, 0), (17, 6), (17, 7)]


def _tight_text(order: int, seed: int) -> str:
    """order-1 whole rows of a random isotope of the cyclic square."""
    rng = random.Random(f"engine-snapshot/{order}/{seed}")
    rows, cols, syms = list(range(order)), list(range(order)), list(range(order))
    rng.shuffle(rows)
    rng.shuffle(cols)
    rng.shuffle(syms)
    edges = [
        (cols[j], syms[(rows[i] + cols[j]) % order], i)
        for i in range(order - 1)
        for j in range(order)
    ]
    rng.shuffle(edges)
    lines = [f"{order} {order} {order - 1}"] + [f"{x} {y} {c}" for x, y, c in edges]
    return "\n".join(lines) + "\n"


def _instances():
    for order, seed in TIGHT:
        yield f"tight-{order}-{seed}", _tight_text(order, seed), []
    for n in (4, 6, 8):
        yield f"latin-{n}", write_edge_list(generate_instance("latin", n, seed=n)), []
    for i in range(12):
        n = 3 + i % 6
        g = generate_instance(
            "random", n, n - 1 + i % 3, False, seed=100 + i, left_size=n + 1, right_size=n + 1
        )
        yield f"random-{i}", write_edge_list(g), []
    yield "tight-11-0-cap2", _tight_text(11, 0), ["--depth-cap", "2"]
    yield "tight-13-6-cap1", _tight_text(13, 6), ["--depth-cap", "1"]


def test_switching_cli_output_matches_snapshot(tmp_path, capsys):
    digest = hashlib.sha256()
    for name, text, extra in _instances():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        rc = run(["solve", "--algorithm", "switching", "--trace", *extra, str(path)])
        out = capsys.readouterr().out.replace(str(path), f"{name}.txt")
        digest.update(f"{name} exit {rc}\n{out}".encode())
    assert digest.hexdigest() == SNAPSHOT_SHA256
