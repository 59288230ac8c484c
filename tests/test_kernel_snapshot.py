"""Behaviour snapshot of the rainbow-path kernel and its consumers.

The stream below was first recorded before ``iter_rainbow_paths`` was
rewritten as an explicit-stack search with a single forbidden-colour set.
Its digest was re-recorded, on the code it then pinned, without the lines of
the ``"internal"`` vertex scope and of ``enumerate_rainbow_paths``' ``total``
mode, when both were deleted.  It was re-recorded again when the kernel's two
knobs (``edge_rainbow`` and ``vertex_scope``) became one ``mode``: the old
stream, less its 384 plain-path kernel lines (``False none``) and with the
pairs ``True none``, ``True all`` and ``False all`` renamed ``edge``,
``total`` and ``vertex``, equals the new one line by line, 2,504 lines.
It was re-recorded once more when the kernel lost its ``forbidden_vertices``
rule and ``rainbow_path_through`` came to forbid the colours of the anchors
still to come: the old stream, less its 528 kernel lines with a non-empty
blocked set and with the ``{}`` field taken out of the other kernel lines,
equals the new one line by line, 1,976 lines, except 8 ``through`` lines
(``palette-0 [7, 6, 2, 5]``, ``palette-sparse-1 [5, 0, 2, 4]``,
``palette-1 [6, 4, 3]`` and ``palette-dense [4, 3, 5, 2]``, each at d = 2
and d = 4).  Each of the 8 was a ``SegmentNotFound`` at leg 1 and is one at
leg 0: the old leg 0 had spent a later anchor's colour.
It was re-recorded again when one bounded search tree per pair replaced the
connectivity predicates' sweep over every removal set, and their sampled
verdicts were deleted.  Proof, over the 1,976 lines of both streams,
compared outside the suite: the 1,676 lines that are not verdicts are
equal; of the 300 verdict lines, with the sampled half taken out of each
old line, every line keeps its ``connected`` flag and its mode.  265 moved:
134 name another witness and 131 only another ``checked``, which now
counts tree nodes.  Each of the 208 witnesses in the new stream was
re-verified with ``helpers.reference_path_avoids``.
It pins, over seeded digraphs:

* ``iter_rainbow_paths`` -- the path sequence and ``meter.nodes`` in every
  mode the digraph admits, in the order edge, total, vertex;
* u -> v paths with forbidden colours (the ``enumerate`` lines);
* ``is_kd_connected`` (edge/vertex/total) and ``is_rainbow_k_edge_connected``;
* ``rainbow_ball_layers``, ``low_expansion_ball``, ``rainbow_distance`` and
  ``rainbow_path_through``.

Some digraphs draw arc and vertex colours from one palette, so an arc may
carry the colour of a vertex; that is where a forbidden set applied to the
wrong labels would change ``vertex`` mode.  Budget exhaustion is not pinned:
how much work a search spends before it stops is not part of the contract.
"""

import hashlib
import random
from fractions import Fraction

from rainbowmatch.budget import BudgetMeter
from rainbowmatch.connectivity import (
    low_expansion_ball,
    rainbow_ball_layers,
    rainbow_distance,
    rainbow_path_through,
)
from rainbowmatch.digraph import LabelledDigraph, iter_rainbow_paths
from rainbowmatch.errors import PreconditionViolated, SegmentNotFound
from rainbowmatch.gen import generate_proper_digraph
from rainbowmatch.menger import build_counterexample
from rainbowmatch.oracle import is_kd_connected, is_rainbow_k_edge_connected

SNAPSHOT_SHA256 = "e9190f42a4e265a1599d271e5aad71521842e6005cc7884ad63e4573b53b8de7"


def palette_digraph(n: int, out_degree: int, palette: int, seed: int) -> LabelledDigraph:
    """Random digraph whose arcs and vertices share one palette of colours.

    Parallel arcs with different colours occur; vertex colours may repeat.
    """
    rng = random.Random(f"kernel-snapshot/{n}/{out_degree}/{palette}/{seed}")
    arcs = set()
    for v in range(n):
        for _ in range(out_degree):
            w = rng.randrange(n - 1)
            arcs.add((v, w if w < v else w + 1, rng.randrange(palette)))
    labels = tuple(rng.randrange(palette) for _ in range(n))
    return LabelledDigraph(n, sorted(arcs), vertex_labels=labels)


def _digraphs():
    for seed in range(2):
        yield f"palette-sparse-{seed}", palette_digraph(8, 3, 9, seed)
        yield f"palette-{seed}", palette_digraph(8, 5, 14, seed)
        yield f"proper-{seed}", generate_proper_digraph(10, 5, seed=seed)
    yield "palette-dense", palette_digraph(7, 5, 8, 11)


def _path(p) -> str:
    return " ".join(f"{a.tail}>{a.head}:{a.label!r}" for a in p)


def _set(s) -> str:
    return "{" + ",".join(sorted(map(repr, s))) + "}"


def _verdict(v) -> str:
    witness = v.witness
    if witness is not None:
        witness = (_set(witness[0]),) + tuple(witness[1:])
    return f"{v.connected} {v.mode} {v.checked} {witness}"


def _kernel_lines(name, D):
    n = D.vertex_count
    modes = ("edge",) if D.vertex_labels is None else ("edge", "total", "vertex")
    for start in (0, n // 2):
        for target in (None, start, n - 1, 1):
            for mode in modes:
                for max_len in (0, 2, 4):
                    meter = BudgetMeter(None)
                    paths = iter_rainbow_paths(
                        D, start, target=target, max_len=max_len, mode=mode, meter=meter
                    )
                    first = next(paths, None)
                    first_nodes = meter.nodes
                    rest = list(paths)
                    yield (
                        f"{name} kernel {start} {target} {mode} {max_len} "
                        f"first {first_nodes} all {meter.nodes} | "
                        + (" ; ".join(_path(p) for p in [first] + rest) if first is not None else "-")
                    )


def _enumerate_lines(name, D, palette):
    rng = random.Random(f"kernel-snapshot/enumerate/{name}")
    n = D.vertex_count
    for _ in range(6):
        u, v = rng.sample(range(n), 2)
        forbidden = frozenset(rng.sample(palette, 2))
        paths = iter_rainbow_paths(D, u, target=v, max_len=4, forbidden=forbidden)
        yield f"{name} enumerate {u} {v} {_set(forbidden)} edge | " + " ; ".join(map(_path, paths))


def _connectivity_lines(name, D):
    n = D.vertex_count
    for k in (1, 2, 3):
        for mode in ("edge", "vertex", "total"):
            for d in (2, 3):
                for A in (range(n), [0, 1, n - 1]):
                    verdict = is_kd_connected(D, A, k, d, mode=mode)
                    yield f"{name} kd {k} {mode} {d} {list(A)} {_verdict(verdict)}"
        pairs = [(0, n - 1), (1, 2), (n - 1, 0)]
        for chosen in (None, pairs):
            verdict = is_rainbow_k_edge_connected(D, k, pairs=chosen)
            yield f"{name} rkec {k} {chosen} {_verdict(verdict)}"


def _toolbox_lines(name, D):
    n = D.vertex_count
    for mode in ("total", "edge"):
        for v in (0, n - 1):
            for cap in (0, 1, 2, 3, 5):
                layers = rainbow_ball_layers(D, v, cap, mode=mode)
                yield f"{name} layers {mode} {v} {cap} {sorted(layers.items())}"
            for eps in (1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), 0.3):
                t0, ball = low_expansion_ball(D, v, eps, mode=mode)
                yield f"{name} ball {mode} {v} {eps} {t0} {sorted(ball)}"
        for u in range(n):
            for w in (0, n // 2, n - 1):
                for cap in (2, 5):
                    yield f"{name} dist {mode} {u} {w} {cap} {rainbow_distance(D, u, w, cap, mode=mode)}"
    rng = random.Random(f"kernel-snapshot/through/{name}")
    colours = sorted(set(D.vertex_labels) | {a.label for a in D.arcs})
    for _ in range(8):
        anchors = rng.sample(range(n), rng.choice((2, 3, 4)))
        S = frozenset(rng.sample(colours, 2)) - {D.vertex_labels[a] for a in anchors}
        for d in (2, 4):
            try:
                out = _path(rainbow_path_through(D, range(n), anchors, S, d))
            except (PreconditionViolated, SegmentNotFound) as exc:
                out = f"{type(exc).__name__}: {exc}"
            yield f"{name} through {anchors} {_set(S)} {d} {out}"


def _lines():
    for name, D in _digraphs():
        palette = sorted(set(D.vertex_labels) | {a.label for a in D.arcs})
        yield from _kernel_lines(name, D)
        yield from _enumerate_lines(name, D, palette)
        yield from _connectivity_lines(name, D)
        yield from _toolbox_lines(name, D)
    M = build_counterexample(2, 6)
    yield from _kernel_lines("menger-2-6", M)
    yield from _enumerate_lines("menger-2-6", M, sorted({a.label for a in M.arcs}))
    for k in (1, 2, 3):
        verdict = is_rainbow_k_edge_connected(M, k, pairs=[(0, 6), (6, 0), (1, 5)])
        yield f"menger-2-6 rkec {k} {_verdict(verdict)}"
        for mode in ("edge",):
            yield f"menger-2-6 kd {k} {mode} {_verdict(is_kd_connected(M, [0, 3, 6], k, 6, mode=mode))}"


def test_kernel_outputs_match_snapshot():
    digest = hashlib.sha256()
    for line in _lines():
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == SNAPSHOT_SHA256
