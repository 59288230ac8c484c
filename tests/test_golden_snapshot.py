"""Behaviour snapshot of ``solve --algorithm golden --trace``.

Golden runs the switching engine at every level and falls back to the exact
oracle, so this digest pins both through the golden recursion: exit code,
stdout and stderr over seeded tight systems (n rows of a cyclic square of
order n+1), random systems with classes of size ceil(PHI * n), and
isotopes of the cyclic square.  The odd orders have a transversal; the even
ones have none, so the engine stalls one short and the level tries the split
assembly before the oracle proves the maximum.  The digest was recorded
before the engine's rotation search came to walk each state once.
"""

import hashlib
import math

from rainbowmatch.cli import run
from rainbowmatch.core import write_edge_list
from rainbowmatch.gen import generate_instance
from rainbowmatch.golden import PHI

from helpers import tight_text

SNAPSHOT_SHA256 = "74f24e422dc78106213605bdbd837d16160e29d7c5e4d907c8f69600ceeeb722"

TIGHT = [(7, 0), (9, 0), (9, 9), (10, 1), (11, 0), (12, 4), (13, 6), (15, 8), (17, 7)]


def _instances():
    for order, seed in TIGHT:
        yield f"tight-{order}-{seed}", tight_text(order, seed)
    for i in range(16):
        n = 3 + i % 12
        cs = math.ceil(PHI * n)
        g = generate_instance("random", n, cs, False, seed=300 + i, left_size=cs, right_size=cs)
        yield f"phi-{i}", write_edge_list(g)
    for n in (4, 5, 6, 7, 8, 9):
        for seed in (n, n + 1):
            yield f"latin-{n}-{seed}", write_edge_list(generate_instance("latin", n, seed=seed))


def test_golden_cli_output_matches_snapshot(tmp_path, capsys):
    digest = hashlib.sha256()
    for name, text in _instances():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        rc = run(["solve", "--algorithm", "golden", "--trace", str(path)])
        out, err = capsys.readouterr()
        out = out.replace(str(path), f"{name}.txt")
        digest.update(f"{name} exit {rc}\n{out}{err}".encode())
    assert digest.hexdigest() == SNAPSHOT_SHA256
