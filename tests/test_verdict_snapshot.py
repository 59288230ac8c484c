"""Behaviour snapshot of the connectivity verdicts.

It pins, over seeded digraphs, every verdict's ``connected`` flag, mode
(exhaustive or vacuous), ``checked`` count and witness (S, x, y):

* ``is_kd_connected`` in all four modes, ``uncoloured`` included, for three
  sets A, k in {1, 2, 3} and d in {1, 2, 4};
* ``is_rainbow_k_edge_connected`` with the default pairs and given pairs.

The digest was first recorded on a sweep over every removal set, with a
sampled verdict at ``node_limit=3`` after each exhaustive one.  It was
re-recorded when one bounded search tree per pair replaced the sweep and
the sampled verdicts were deleted.  Proof, over the 684 lines of both
streams, compared outside the suite: with the sampled half taken out of
each old line, every line keeps its ``connected`` flag and its mode, so
``checked`` now counts tree nodes, not removal sets.  563 lines moved:
335 name another witness, often a smaller set, and 228 only another
``checked``.  Each of the 612 witnesses in the new stream was re-verified
with ``helpers.reference_path_avoids``: |S| <= k-1, x and y lie outside S
in ``uncoloured`` mode, and no path for (x, y) survives S.
"""

import hashlib
import random

from rainbowmatch.digraph import LabelledDigraph
from rainbowmatch.gen import generate_proper_digraph
from rainbowmatch.oracle import is_kd_connected, is_rainbow_k_edge_connected

SNAPSHOT_SHA256 = "186b7f439aac34ee9b98711f2ae680c0a9abe95061653c29ed0d26ba8bae72cb"


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
    for name, D in _digraphs():
        n = D.vertex_count
        for A in (range(n), [0, n // 2, n - 1], [1, n - 2]):
            for k in (1, 2, 3):
                for d in (1, 2, 4):
                    for mode in ("uncoloured", "edge", "vertex", "total"):
                        verdict = is_kd_connected(D, A, k, d, mode=mode)
                        yield f"{name} kd {list(A)} {k} {d} {mode} {_verdict(verdict)}"
        for k in (1, 2, 3):
            for pairs in (None, [(0, n - 1), (n - 1, 0), (1, n // 2)]):
                verdict = is_rainbow_k_edge_connected(D, k, pairs=pairs)
                yield f"{name} rkec {k} {pairs} {_verdict(verdict)}"


def test_connectivity_verdicts_match_snapshot():
    digest = hashlib.sha256()
    for line in _lines():
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == SNAPSHOT_SHA256
