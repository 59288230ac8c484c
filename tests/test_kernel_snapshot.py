"""Behaviour snapshot of the rainbow-path kernel and its consumers.

The digest below was recorded before ``iter_rainbow_paths`` was rewritten
as an explicit-stack search with a single forbidden-colour set.  It pins,
over seeded digraphs:

* ``iter_rainbow_paths`` -- the path sequence and ``meter.nodes`` for every
  combination of the knobs it keeps;
* ``enumerate_rainbow_paths`` in both modes with forbidden colours;
* ``is_kd_connected`` (edge/vertex/total) and ``is_rainbow_k_edge_connected``,
  exhaustive and sampled;
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

from rainbowmatch.budget import BudgetMeter, SearchBudget
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
from rainbowmatch.oracle import (
    enumerate_rainbow_paths,
    is_kd_connected,
    is_rainbow_k_edge_connected,
)

SNAPSHOT_SHA256 = "ceb0f1760404e1748df12f63fc64bf272afefa0393903ca2089a7492aa44bcbc"


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
    scopes = ("none",) if D.vertex_labels is None else ("none", "internal", "all")
    for start in (0, n // 2):
        for target in (None, start, n - 1, 1):
            for edge_rainbow in (True, False):
                for scope in scopes:
                    for max_len in (0, 2, 4):
                        for blocked in (frozenset(), frozenset({2, n - 2})):
                            meter = BudgetMeter(None)
                            paths = iter_rainbow_paths(
                                D,
                                start,
                                target=target,
                                max_len=max_len,
                                edge_rainbow=edge_rainbow,
                                vertex_scope=scope,
                                forbidden_vertices=blocked,
                                meter=meter,
                            )
                            first = next(paths, None)
                            first_nodes = meter.nodes
                            rest = list(paths)
                            yield (
                                f"{name} kernel {start} {target} {edge_rainbow} {scope} "
                                f"{max_len} {_set(blocked)} first {first_nodes} "
                                f"all {meter.nodes} | "
                                + (" ; ".join(_path(p) for p in [first] + rest) if first is not None else "-")
                            )


def _enumerate_lines(name, D, palette):
    rng = random.Random(f"kernel-snapshot/enumerate/{name}")
    n = D.vertex_count
    modes = ("edge",) if D.vertex_labels is None else ("edge", "total")
    for _ in range(6):
        u, v = rng.sample(range(n), 2)
        forbidden = frozenset(rng.sample(palette, 2))
        for mode in modes:
            paths = enumerate_rainbow_paths(D, u, v, 4, forbidden_colours=forbidden, mode=mode)
            yield f"{name} enumerate {u} {v} {_set(forbidden)} {mode} | " + " ; ".join(map(_path, paths))


def _connectivity_lines(name, D):
    n = D.vertex_count
    small = SearchBudget(node_limit=3)
    for k in (1, 2, 3):
        for mode in ("edge", "vertex", "total"):
            for d in (2, 3):
                for A in (range(n), [0, 1, n - 1]):
                    full = is_kd_connected(D, A, k, d, mode=mode)
                    sampled = is_kd_connected(D, A, k, d, mode=mode, budget=small, samples=4, seed=k)
                    yield f"{name} kd {k} {mode} {d} {list(A)} {_verdict(full)} / {_verdict(sampled)}"
        pairs = [(0, n - 1), (1, 2), (n - 1, 0)]
        for chosen in (None, pairs):
            full = is_rainbow_k_edge_connected(D, k, pairs=chosen)
            sampled = is_rainbow_k_edge_connected(D, k, pairs=chosen, budget=small, samples=4, seed=k)
            yield f"{name} rkec {k} {chosen} {_verdict(full)} / {_verdict(sampled)}"


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
    yield from _enumerate_lines("menger-2-6", M, sorted(M.edge_labels()))
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
