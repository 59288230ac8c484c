"""Behaviour snapshot of ``solve --algorithm switching --trace``.

The digest below was recorded before the engine was rewritten to work on
the host graph; it pins the CLI JSON, byte for byte, over a seeded set of
instances.  The tight systems (n rows of a cyclic square of order n+1)
reach the rotation search, and the full even-order squares, which have no
transversal, exhaust it.  A change to the engine that alters any matching,
augmentation record or rotation count changes the digest.

A second digest pins the same tight systems under ``--node-limit N`` at
several N, stdout, stderr and exit code: the small limits exit 3, so it
records where each run's meters stop it.  It was re-recorded when the
rotation search came to walk each state once on its one meter: three runs
that exited 3 now finish (tight-10-1 at N=70, tight-12-4 at N=90 and
tight-17-0 at N=130), and no other run changed.

It was re-recorded again when each solve came to run on one meter, where
pass 1 had made one per ``augment`` probe and the rotation search another.
A meter shared by more work can only stop a run sooner, and it cannot
change what a finished run prints.  37 of the 110 runs that exited 0 now
exit 3 with empty stdout and ``budget exhausted: node limit exceeded (N)``
on stderr: tight-9-0 at N=70-130, tight-9-9 and tight-10-1 at N=70-150,
tight-11-0 and tight-12-4 at N=90-200, tight-13-6 at N=110-200, tight-15-8
and tight-17-0 at N=130-200, and tight-17-6 at N=150-300.  No run went the
other way, and the other 73 kept their exit code, stdout and stderr byte
for byte.

It was re-recorded a third time when a shortest-first stream without a
target came to end at its first empty length, and the rotation search came
to take its moves from failed ``augment`` probes.  A finished run prints
what it did before, so only exit codes can move.  25 of the 110 runs that
exited 3 now exit 0 with the stdout of the unlimited run: tight-9-0 at
N=70-130, tight-9-9 at N=130-150, tight-10-1 at N=150, tight-11-0 at N=200,
tight-12-4 at N=110-200, tight-15-8 at N=130-200, tight-17-0 at
N=150-200, tight-17-6 at N=200-300 and tight-17-7 at N=110-500.  No run
went the other way, and the other 85 kept their exit code, stdout and
stderr byte for byte.

A third digest pins the engine's traffic on the 16 pinned systems of the
benchmark's ``engine-tight`` workload (n = 24 on order 25, built by
``bench/corpus.py``, which this suite reads and never changes): each
solve's matching, augmentation record, rotation count and stop.  It was
recorded before the engine's Y side became the transposed host graph;
13 of the 16 solves build that Y side.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from rainbowmatch.cli import run
from rainbowmatch.core import read_edge_list, write_edge_list
from rainbowmatch.gen import generate_instance
from rainbowmatch.switching import solve_switching_engine

from helpers import tight_text

SNAPSHOT_SHA256 = "477d3353c139acc338437d86ee5d2705bdc4eee0afbf46832101cf76f865655f"

# (order, seed) of tight systems; most of them reach the rotation search
TIGHT = [(7, 0), (9, 0), (9, 9), (10, 1), (11, 0), (12, 4), (13, 6), (15, 8), (17, 0), (17, 6), (17, 7)]

NODE_LIMIT_SHA256 = "d4b8de87e4b80c3194df428b2e8251de7618ad7d4c98224dae843c214d06bd5b"
NODE_LIMITS = (50, 70, 90, 110, 130, 150, 200, 300, 500, 700)

PINNED_TIGHT_SHA256 = "bc87042e58c9d9eda775283a15129945f096d358ef3d6b25bb67be96e6270dd6"
BENCH_CORPUS = Path(__file__).resolve().parents[1] / "bench" / "corpus.py"


def _instances():
    for order, seed in TIGHT:
        yield f"tight-{order}-{seed}", tight_text(order, seed), []
    for n in (4, 6, 8):
        yield f"latin-{n}", write_edge_list(generate_instance("latin", n, seed=n)), []
    for i in range(12):
        n = 3 + i % 6
        g = generate_instance(
            "random", n, n - 1 + i % 3, False, seed=100 + i, left_size=n + 1, right_size=n + 1
        )
        yield f"random-{i}", write_edge_list(g), []
    yield "tight-11-0-cap2", tight_text(11, 0), ["--depth-cap", "2"]
    yield "tight-13-6-cap1", tight_text(13, 6), ["--depth-cap", "1"]


def test_switching_cli_output_matches_snapshot(tmp_path, capsys):
    digest = hashlib.sha256()
    for name, text, extra in _instances():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        rc = run(["solve", "--algorithm", "switching", "--trace", *extra, str(path)])
        out = capsys.readouterr().out.replace(str(path), f"{name}.txt")
        digest.update(f"{name} exit {rc}\n{out}".encode())
    assert digest.hexdigest() == SNAPSHOT_SHA256


def test_node_limited_switching_matches_snapshot(tmp_path, capsys):
    digest = hashlib.sha256()
    for order, seed in TIGHT:
        name = f"tight-{order}-{seed}"
        path = tmp_path / f"{name}.txt"
        path.write_text(tight_text(order, seed))
        for limit in NODE_LIMITS:
            argv = ["solve", "--algorithm", "switching", "--trace", "--node-limit", str(limit)]
            rc = run([*argv, str(path)])
            out, err = capsys.readouterr()
            out = out.replace(str(path), f"{name}.txt")
            digest.update(f"{name} N={limit} exit {rc}\n{out}{err}".encode())
    assert digest.hexdigest() == NODE_LIMIT_SHA256


@pytest.mark.skipif(not BENCH_CORPUS.exists(), reason="no bench/ directory")
def test_engine_traffic_on_the_pinned_tight_systems_matches_snapshot():
    spec = importlib.util.spec_from_file_location("bench_corpus", BENCH_CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    digest = hashlib.sha256()
    n, order = 24, 25  # bench/workloads.py: ENGINE_PINNED
    for i in range(16):
        edges = corpus.tight_system(n, order, corpus.rng_for("engine-tight", 0, f"pinned-{i}"))
        graph = read_edge_list(corpus.edge_list_text(order, order, n, edges))
        matching, trace = solve_switching_engine(graph)
        record = [tuple(e) for e in matching], trace.augmentations, trace.rotations, trace.stop
        digest.update(f"pinned-{i} {' '.join(map(str, record))}\n".encode())
    assert digest.hexdigest() == PINNED_TIGHT_SHA256
