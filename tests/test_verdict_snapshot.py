"""Behaviour snapshot of the connectivity verdicts.

The digest below was recorded before the removal-set sweeps of
``is_kd_connected`` and ``is_rainbow_k_edge_connected`` were merged into
one loop.  It pins, over seeded digraphs, every verdict's ``connected``
flag, mode (exhaustive or sampled), ``checked`` count and witness set:

* ``is_kd_connected`` in all four modes, ``uncoloured`` included, for three
  sets A, k in {1, 2, 3} and d in {1, 2, 4}, each with the default budget
  (exhaustive) and with ``node_limit=3`` (sampled);
* ``is_rainbow_k_edge_connected`` with the default pairs and given pairs,
  exhaustive and sampled.

The digraphs are sparse enough that many removal sets fail, so sampled
verdicts stop at a witness that depends on the order of the random draws.
"""

import hashlib
import random

from rainbowmatch.budget import SearchBudget
from rainbowmatch.digraph import LabelledDigraph
from rainbowmatch.gen import generate_proper_digraph
from rainbowmatch.oracle import is_kd_connected, is_rainbow_k_edge_connected

SNAPSHOT_SHA256 = "425ea14d315ffdb11beff6ad1caf3f4e5aff003c41c570dcede61a9df6239042"


def palette_digraph(n: int, out_degree: int, palette: int, seed: int) -> LabelledDigraph:
    """Random digraph whose arcs and vertices share one palette of colours."""
    rng = random.Random(f"verdict-snapshot/{n}/{out_degree}/{palette}/{seed}")
    arcs = set()
    for v in range(n):
        for _ in range(out_degree):
            w = rng.randrange(n - 1)
            arcs.add((v, w if w < v else w + 1, rng.randrange(palette)))
    labels = tuple(rng.randrange(palette) for _ in range(n))
    return LabelledDigraph(n, sorted(arcs), vertex_labels=labels)


def _digraphs():
    yield "sparse-0", palette_digraph(6, 2, 5, 0)
    yield "sparse-1", palette_digraph(7, 2, 6, 1)
    yield "medium-0", palette_digraph(7, 3, 8, 0)
    yield "medium-1", palette_digraph(8, 3, 7, 1)
    yield "dense", palette_digraph(6, 4, 9, 2)
    yield "proper", generate_proper_digraph(7, 3, seed=3)


def _set(s) -> str:
    return "{" + ",".join(sorted(map(repr, s))) + "}"


def _verdict(v) -> str:
    witness = v.witness
    if witness is not None:
        witness = (_set(witness[0]),) + tuple(witness[1:])
    return f"{v.connected} {v.mode} {v.checked} {witness}"


def _lines():
    small = SearchBudget(node_limit=3)
    for name, D in _digraphs():
        n = D.vertex_count
        for A in (range(n), [0, n // 2, n - 1], [1, n - 2]):
            for k in (1, 2, 3):
                for d in (1, 2, 4):
                    for mode in ("uncoloured", "edge", "vertex", "total"):
                        full = is_kd_connected(D, A, k, d, mode=mode)
                        sampled = is_kd_connected(
                            D, A, k, d, mode=mode, budget=small, samples=5, seed=10 * k + d
                        )
                        yield f"{name} kd {list(A)} {k} {d} {mode} {_verdict(full)} / {_verdict(sampled)}"
        for k in (1, 2, 3):
            for pairs in (None, [(0, n - 1), (n - 1, 0), (1, n // 2)]):
                full = is_rainbow_k_edge_connected(D, k, pairs=pairs)
                sampled = is_rainbow_k_edge_connected(
                    D, k, pairs=pairs, budget=small, samples=5, seed=k
                )
                yield f"{name} rkec {k} {pairs} {_verdict(full)} / {_verdict(sampled)}"


def test_connectivity_verdicts_match_snapshot():
    digest = hashlib.sha256()
    for line in _lines():
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == SNAPSHOT_SHA256
