"""Behaviour snapshot of ``solve --algorithm golden --trace``.

Golden runs the switching engine and, when it stops short, the exact
oracle, so this digest pins both through the golden solver: exit code,
stdout and stderr over seeded tight systems (n rows of a cyclic square of
order n+1), random systems with classes of size ceil(PHI * n), and
isotopes of the cyclic square.  The odd orders have a transversal; the even
ones have none, so the engine stalls one short and the oracle proves the
maximum.  The digest was first recorded before the engine's rotation search
came to walk each state once.

Re-recorded when the trace levels lost their ``m0``/``m1`` keys, the leg
sizes of the split assembly, which golden no longer runs.  Proof that
nothing else moved: the previous code's stream over these 37 instances
hashes to the earlier digest ``74f24e42…``.  Deleting ``"m0"`` and ``"m1"``
from each trace level of that stream, and re-dumping each payload with the
CLI's own ``json.dumps(..., sort_keys=True, separators=(",", ":"))``, gives
a stream that hashes to the digest below.  Every one of those keys read 0,
and no instance here has n <= 2, where the level's method was renamed.
"""

import hashlib
import math

from rainbowmatch.cli import run
from rainbowmatch.core import write_edge_list
from rainbowmatch.gen import generate_instance
from rainbowmatch.golden import PHI

from helpers import tight_text

SNAPSHOT_SHA256 = "ffdd4d131224eebae4bf23eac6f1a49b45c0f2c544f86981df13678b28568e1f"

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
