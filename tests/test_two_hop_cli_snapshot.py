"""Behaviour snapshot of ``connectivity --op twohop``.

One digest covers the exit code, stdout and stderr of the two-hop derivation
on seeded proper digraphs of 8-30 vertices at several out-degrees, for bundle
sizes m = 1-4 over two seeds each, plus the benchmark's shape (100 vertices,
out-degree 40, m = 1) and two runs that exhaust their node limit.
"""

import hashlib

from rainbowmatch.cli import run

SNAPSHOT_SHA256 = "c84f282ca6934da4e7566961616fb9951a6e21a28ad36e181769071c50f1d63f"

SHAPES = ((8, 3), (8, 6), (12, 4), (16, 7), (20, 5), (20, 12), (25, 10), (30, 6), (30, 15))

BUDGET_RUNS = (
    # both exit 3 with "node limit exceeded"
    ["connectivity", "--op", "twohop", "--vertices", "30", "--out-degree", "10",
     "--m", "2", "--node-limit", "500"],
    ["connectivity", "--op", "twohop", "--vertices", "100", "--out-degree", "40",
     "--m", "1", "--seed", "1", "--node-limit", "5000"],
)


def _argvs():
    for vertices, out_degree in SHAPES:
        for m in (1, 2, 3, 4):
            for seed in (m, m + 10):
                yield ["connectivity", "--op", "twohop", "--vertices", str(vertices),
                       "--out-degree", str(out_degree), "--m", str(m), "--seed", str(seed)]
    yield ["connectivity", "--op", "twohop", "--vertices", "100", "--out-degree", "40",
           "--m", "1", "--seed", "1"]
    yield from BUDGET_RUNS


def test_two_hop_cli_matches_snapshot(capsys):
    digest = hashlib.sha256()
    for argv in _argvs():
        code = run(argv)
        out, err = capsys.readouterr()
        digest.update(f"{' '.join(argv)}\n{code}\n{out}\n{err}\n".encode())
    assert digest.hexdigest() == SNAPSHOT_SHA256
