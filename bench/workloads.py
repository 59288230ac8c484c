"""The four benchmark workloads: corpus make-up and the operations on it.

A workload's ``build`` generates its corpus from the seed with the
benchmark's own generator, writes the input files into a work directory and
returns the operations.  An operation is one in-process call of the
program's public entry: ``rainbowmatch.cli.run(argv)`` with its output
captured, or a public ``rainbowmatch.connectivity`` function on a digraph
the benchmark generated.  Each operation carries its own independent check.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import checks
import corpus


@dataclass
class Op:
    name: str  # instance id, unique in the workload
    cls: str  # operation class, for each class's share of a pass
    call: Callable[[], object]  # the timed call; returns the raw output
    render: Callable[[object], str]  # canonical text of an output
    check: Callable[[object], str | None]  # None when the output passes


def cli_call(cli, argv: list[str]):
    """Run the CLI in process; the module attribute is looked up per call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


def render_cli(result) -> str:
    rc, out, err = result
    return f"exit {rc}\n{out}{err}"


def _cli_op(name, cls, mods, argv, check) -> Op:
    """A CLI operation; ``check(rc, stdout)`` judges its output."""
    cli = mods.cli
    return Op(name, cls, lambda: cli_call(cli, argv), render_cli, lambda result: check(*result[:2]))


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


# --- engine-tight -------------------------------------------------------------
# (n, order) per instance.  On order n+3 greedy plus direct augmentation
# finish, at a steady cost per instance, and these systems are drawn from the
# seed.  On order n+1 every class is a whole row of a Latin rectangle, the
# tightest case: the engine needs 0-35 rotation states and one system takes
# 3-800 ms, so 16 of them drawn afresh per seed moved a pass by up to 30%.
# These 16 are pinned: the same for every seed.
ENGINE_SEEDED = [(n, n + 3) for n in (24, 28, 32, 36, 40, 44, 48)] * 20
ENGINE_PINNED = [(24, 25)] * 16
ENGINE_SHORT = [(24, 25), (32, 35), (48, 51)]


def build_engine_tight(seed: int, workdir: str, mods, short: bool) -> list[Op]:
    if short:
        systems = [(n, order, corpus.rng_for("engine-tight", seed, str(i)))
                   for i, (n, order) in enumerate(ENGINE_SHORT)]
    else:
        systems = [(n, order, corpus.rng_for("engine-tight", 0, f"pinned-{i}"))
                   for i, (n, order) in enumerate(ENGINE_PINNED)]
        systems += [(n, order, corpus.rng_for("engine-tight", seed, str(i)))
                    for i, (n, order) in enumerate(ENGINE_SEEDED)]
    ops = []
    for i, (n, order, rng) in enumerate(systems):
        edges = corpus.tight_system(n, order, rng)
        path = _write(workdir, f"tight-{i}.txt", corpus.edge_list_text(order, order, n, edges))
        argv = ["solve", "--algorithm", "switching", "--trace", path]
        ops.append(_cli_op(f"tight-{i}-n{n}-N{order}", f"solve n{n} N{order}", mods, argv,
                           partial(checks.check_solve, path, n)))
    return ops


# --- oracle-prove -------------------------------------------------------------
PROVE_ORDERS = [8] * 12 + [10] * 8
PROVE_SHORT = [8, 8, 10]


def build_oracle_prove(seed: int, workdir: str, mods, short: bool) -> list[Op]:
    ops = []
    for i, order in enumerate(PROVE_SHORT if short else PROVE_ORDERS):
        grid = corpus.cyclic_isotope(order, corpus.rng_for("oracle-prove", seed, str(i)))
        path = _write(workdir, f"square-{i}.txt", corpus.latin_text(grid))
        ops.append(_cli_op(f"square-{i}-o{order}", f"transversal o{order}", mods, ["transversal", path],
                           partial(checks.check_transversal, grid)))
    return ops


# --- oracle-find --------------------------------------------------------------
# The static-order branch and bound has a power-law tail in its node count on
# this family, and the tail grows steeply with n: in 600 instances per size,
# the largest took 14k nodes at n=40, 379k at n=42, 245k at n=44 and over 3M
# at n=56.  At n=40 the sum over a pass does not hang on one rare instance.
FIND_SIZES = [(40, 43)] * 240
FIND_SHORT = [(40, 43)] * 2


def build_oracle_find(seed: int, workdir: str, mods, short: bool) -> list[Op]:
    ops = []
    for i, (n, order) in enumerate(FIND_SHORT if short else FIND_SIZES):
        edges = corpus.tight_system(n, order, corpus.rng_for("oracle-find", seed, str(i)))
        path = _write(workdir, f"find-{i}.txt", corpus.edge_list_text(order, order, n, edges))
        ops.append(_cli_op(f"find-{i}-n{n}-N{order}", f"oracle-max n{n} N{order}", mods, ["oracle-max", path],
                           partial(checks.check_oracle_max, path, n)))
    return ops


# --- toolbox ------------------------------------------------------------------
BALL_DIGRAPHS = 16  # each with eps 1/2 and 1/4
TWOHOP_DIGRAPHS = 2
THROUGH_DIGRAPHS = 12
MENGER_PAIRS = [(2, 6), (2, 10), (3, 8), (3, 9)]  # 43, 111, 529, 748 paths
TWOHOP_EPS = Fraction(3, 10)  # acceptance criterion 5's degree law


def _render_ball(result) -> str:
    t0, ball = result
    return f"{t0} {sorted(ball)}"


def _render_two_hop(result) -> str:
    derived, cert = result
    return repr((derived.arcs, sorted(cert.bundles.items())))


def _render_path(path) -> str:
    return repr(tuple(tuple(a) for a in path))


def build_toolbox(seed: int, workdir: str, mods, short: bool) -> list[Op]:
    # Calls look the function up in the module when they run, so that a
    # traced run sees them.
    conn = mods.connectivity
    ops = []

    def digraph(part: str, vertices: int, degree: int):
        arcs = corpus.proper_digraph(vertices, degree, corpus.rng_for("toolbox", seed, part))
        return arcs, mods.digraph.LabelledDigraph(vertices, arcs, vertex_labels=tuple(range(vertices)))

    for i in range(2 if short else BALL_DIGRAPHS):
        # the shapes are the same for every seed, so only the arcs vary
        vertices, degree = 30 + (10 * i) // (BALL_DIGRAPHS - 1), 4 + i % 4
        v = corpus.rng_for("toolbox", seed, f"ball-vertex-{i}").randrange(vertices)
        arcs, D = digraph(f"ball-{i}", vertices, degree)
        for eps in (Fraction(1, 2), Fraction(1, 4)):
            ops.append(Op(
                f"ball-{i}-V{vertices}-d{degree}-eps{eps}", f"ball eps {eps}",
                lambda D=D, v=v, eps=eps: conn.low_expansion_ball(D, v, eps),
                _render_ball, partial(checks.check_ball, vertices, arcs, v, eps),
            ))

    for i in range(1 if short else TWOHOP_DIGRAPHS):
        arcs, D = digraph(f"twohop-{i}", 100, 40)
        ops.append(Op(
            f"twohop-{i}", "two-hop",
            lambda D=D: conn.build_two_hop_digraph(D, 1),
            _render_two_hop, partial(checks.check_two_hop, 100, arcs, 1, TWOHOP_EPS),
        ))

    for i in range(1 if short else THROUGH_DIGRAPHS):
        # One leg per call: with more anchors an earlier leg can pass through
        # a later anchor, and rainbow_path_through then fails on some seeds.
        anchors = corpus.rng_for("toolbox", seed, f"through-anchors-{i}").sample(range(60), 2)
        arcs, D = digraph(f"through-{i}", 60, 12)
        ops.append(Op(
            f"through-{i}", "through-path",
            lambda D=D, anchors=anchors: conn.rainbow_path_through(D, range(60), anchors, frozenset(), 4),
            _render_path, partial(checks.check_through_path, arcs, anchors, 4),
        ))

    for k, m in MENGER_PAIRS[:1] if short else MENGER_PAIRS:
        argv = ["menger", "--k", str(k), "--m", str(m), "--lp"]
        ops.append(_cli_op(f"menger-k{k}-m{m}", "menger", mods, argv, partial(checks.check_menger, k, m)))
    return ops


WORKLOADS = {
    "engine-tight": build_engine_tight,
    "oracle-prove": build_oracle_prove,
    "oracle-find": build_oracle_find,
    "toolbox": build_toolbox,
}
