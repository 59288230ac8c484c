"""Command-line surface.

Subcommands: solve, transversal, verify, oracle-max, connectivity, menger,
bounds, gen.  Exit codes: 0 success, 1 solver shortfall (a valid but
sub-target matching; mathematically meaningful, not an error), 2 input
error, 3 budget exhaustion.  JSON output is canonical (sorted keys), so
identical configurations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import connectivity as conn_mod
from . import gen as gen_mod
from . import golden as golden_mod
from . import menger as menger_mod
from . import oracle as oracle_mod
from . import switching as switching_mod
from .budget import SearchBudget
from .core import (
    RainbowMatching,
    greedy_rainbow_matching,
    read_edge_list,
    read_matching,
    verify_rainbow_matching,
    write_edge_list,
)
from .errors import BudgetExceeded, NoVerifiedSetFound, RainbowError
from .latin import extract_transversal, parse_latin, square_to_graph

EXIT_OK = 0
EXIT_SHORTFALL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        # allow_nan=False: a non-finite number raises rather than print as
        # NaN or Infinity, which strict JSON parsers reject
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
        sys.stdout.write(text + "\n")
    else:
        for key in sorted(payload):
            sys.stdout.write(f"{key}: {payload[key]}\n")


def _matching_payload(matching: RainbowMatching) -> list[dict]:
    return [{"c": e.c, "x": e.x, "y": e.y} for e in matching]


def _budget(args) -> SearchBudget:
    return SearchBudget(node_limit=args.node_limit, time_limit=args.time_limit)


def _stopped(why: str) -> int:
    """Say on stderr what stopped before its answer was proved; exit 3."""
    sys.stderr.write(f"budget exhausted: {why}\n")
    return EXIT_BUDGET


def _unproved(result: oracle_mod.OracleResult) -> str:
    return f"oracle stopped ({result.stop}) after {result.nodes} nodes without proving the maximum"


def _cmd_solve(args) -> int:
    """``solve`` with each algorithm, and ``oracle-max``, which is
    ``--algorithm oracle`` reporting the oracle's node count too."""
    if args.depth_cap is not None and args.depth_cap < 0:
        raise ValueError(f"--depth-cap must be non-negative, got {args.depth_cap}")
    if args.depth_cap is not None and args.algorithm != "switching":
        raise ValueError("--depth-cap applies only to --algorithm switching")
    budget = _budget(args)
    graph = read_edge_list(_read(args.file))
    target = graph.colour_count
    engine = oracle = trace_payload = None
    if args.algorithm == "greedy":
        matching = greedy_rainbow_matching(graph)
    elif args.algorithm == "switching":
        matching, engine = switching_mod.solve_switching_engine(
            graph, depth_cap=args.depth_cap, budget=budget
        )
        trace_payload = {
            "augmentations": engine.augmentations,
            "rotations": engine.rotations,
        }
    elif args.algorithm == "golden":
        matching, oracle = golden_mod.golden_solve(graph, budget=budget)
        method = "engine" if oracle is None else "oracle"
        trace_payload = {"levels": [{"n": target, "method": method}]}
    elif args.algorithm in ("oracle", "oracle-max"):
        oracle = oracle_mod.exact_max_rainbow_matching(graph, budget=budget)
        matching = oracle.matching
    else:
        raise ValueError(f"unknown algorithm {args.algorithm!r}")
    payload = {
        "instance": args.file,
        "algorithm": args.algorithm,
        "size": matching.size,
        "target": target,
        "matching": _matching_payload(matching),
        "verified": bool(verify_rainbow_matching(graph, matching)),
    }
    if args.algorithm in ("oracle", "oracle-max"):
        payload["optimal"] = oracle.optimal
    if args.algorithm == "oracle-max":
        payload["nodes"] = oracle.nodes
    if args.trace and trace_payload is not None:
        payload["trace"] = trace_payload
    _emit(payload, args.format)
    if oracle is not None and not oracle.optimal:
        return _stopped(_unproved(oracle))
    if engine is not None and engine.stop == "rotation_limit":
        return _stopped("the engine's rotation search hit its state limit")
    return EXIT_OK if matching.size == target else EXIT_SHORTFALL


def _cmd_transversal(args) -> int:
    rect = parse_latin(_read(args.file))
    graph = square_to_graph(rect)
    result = oracle_mod.exact_max_rainbow_matching(graph, budget=_budget(args))
    if not result.optimal:
        return _stopped(_unproved(result))
    cells = extract_transversal(rect, result.matching)
    if args.format == "json":
        payload = {
            "instance": args.file,
            "size": len(cells),
            "target": rect.rows,
            "cells": [list(cell) for cell in cells],
        }
        _emit(payload, "json")
    else:
        for row, col, sym in cells:
            sys.stdout.write(f"({row},{col},{rect.token(sym)})\n")
        sys.stdout.write(f"size: {len(cells)}\n")
    return EXIT_OK if len(cells) == rect.rows else EXIT_SHORTFALL


def _cmd_verify(args) -> int:
    graph = read_edge_list(_read(args.graph))
    matching = read_matching(_read(args.matching))
    verdict = verify_rainbow_matching(graph, matching)
    _emit(
        {"valid": verdict.ok, "reason": verdict.reason, "size": matching.size},
        args.format,
    )
    return EXIT_OK if verdict.ok else EXIT_SHORTFALL


def _cmd_connectivity(args) -> int:
    eps = _fraction_option("--epsilon", args.epsilon)
    D = gen_mod.generate_proper_digraph(args.vertices, args.out_degree, args.seed)
    if args.op == "ball":
        t0, ball = conn_mod.low_expansion_ball(D, args.vertex, eps, budget=_budget(args))
        payload = {"op": "ball", "t0": t0, "ball": sorted(ball)}
    elif args.op == "twohop":
        derived, cert = conn_mod.build_two_hop_digraph(D, args.m, budget=_budget(args))
        payload = {
            "op": "twohop",
            "arcs": [[a.tail, a.head] for a in derived.arcs],
            "certified": cert.validate(D),
            "min_out_degree": derived.min_out_degree(),
            "base_min_out_degree": D.min_out_degree(),
        }
    elif args.op == "kdset":
        try:
            result = conn_mod.find_kd_connected_set(
                D, args.k, eps, mode=args.mode, budget=_budget(args)
            )
        except NoVerifiedSetFound as exc:
            _emit({"op": "kdset", "connected": False, "reason": str(exc)}, args.format)
            return EXIT_SHORTFALL
        payload = {
            "op": "kdset",
            "vertices": sorted(result.vertices),
            "verdict": result.verdict.mode,
            "connected": result.verdict.connected,
            "diameter_bound": result.diameter_bound,
            "target_size": str(result.target_size),
        }
    elif args.op == "through-path":
        try:
            anchors = [int(t) for t in args.anchors.split(",")]
        except ValueError:
            raise ValueError(
                f"--anchors needs comma-separated vertex ids, got {args.anchors!r}"
            ) from None
        path = conn_mod.rainbow_path_through(
            D,
            range(D.vertex_count),
            anchors,
            frozenset(),
            args.d,
            budget=_budget(args),
        )
        payload = {
            "op": "through-path",
            "path": [[a.tail, a.head, a.label] for a in path],
        }
    else:
        raise ValueError(f"unknown connectivity op {args.op!r}")
    _emit(payload, args.format)
    return EXIT_OK


def _cmd_menger(args) -> int:
    D = menger_mod.build_counterexample(args.k, args.m)
    if args.simple:
        D = menger_mod.subdivide_to_simple(D)  # source/sink ids survive
    u, v = 0, args.m
    budget = _budget(args)
    property_I = menger_mod.verify_property_I(D, u, v, args.k, budget=budget)
    paths = menger_mod.rainbow_st_paths(D, u, v, budget=budget)
    payload = {
        "k": args.k,
        "m": args.m,
        "property_I": property_I,
        "property_II": menger_mod.verify_property_II(paths),
        "path_count": len(paths),
    }
    if args.lp:
        lp = menger_mod.fractional_menger(paths)
        payload["lp"] = {
            "primal_value": str(lp.primal_value),
            "dual_value": str(lp.dual_value),
            "exact": lp.exact,
            "gap": lp.duality_gap,
        }
    _emit(payload, args.format)
    return EXIT_OK


def _fraction_option(option: str, text: str) -> Fraction:
    """The exact value of a rational option such as 1/2 or 0.25; a value
    that names no finite rational raises ValueError naming the option."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(
            f"{option} must be a finite rational such as 1/2 or 0.25, got {text!r}"
        ) from None


def _cmd_bounds(args) -> int:
    eps = _fraction_option("--epsilon", args.epsilon)
    reports = bounds_mod.threshold_table(
        eps,
        m=args.m,
        k=args.k,
        k1=None if args.k1 is None else _fraction_option("--k1", args.k1),
    )
    payload = {
        "epsilon": str(eps),
        "thresholds": [
            {
                "name": r.name,
                "value": None if r.value is None else str(r.value),
                "log10": r.log10,
                "exact": r.exact,
                "feasible_at_desk_scale": r.feasible_at_desk_scale,
            }
            for r in reports
        ],
    }
    _emit(payload, args.format)
    return EXIT_OK


def _cmd_gen(args) -> int:
    graph = gen_mod.generate_instance(
        kind=args.kind,
        n=args.n,
        class_size=args.class_size,
        edge_disjoint=args.edge_disjoint,
        seed=args.seed,
        left_size=args.left,
        right_size=args.right,
    )
    text = write_edge_list(graph)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared."""
    parser = argparse.ArgumentParser(
        prog="rainbowmatch",
        description="Rainbow matchings, Latin square transversals, and the "
        "switching/connectivity toolbox around them.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def formatted(p):
        p.add_argument("--format", choices=("text", "json"), default="json")

    def budgeted(p):
        formatted(p)
        p.add_argument("--node-limit", type=int, default=SearchBudget.node_limit)
        p.add_argument("--time-limit", type=float, default=SearchBudget.time_limit)

    p = sub.add_parser("solve", help="solve an edge-list instance")
    p.add_argument("file")
    p.add_argument(
        "--algorithm",
        choices=("greedy", "switching", "golden", "oracle"),
        default="switching",
    )
    p.add_argument("--depth-cap", type=int, default=None, dest="depth_cap")
    p.add_argument("--trace", action="store_true")
    budgeted(p)

    p = sub.add_parser("transversal", help="maximum partial transversal of a Latin grid")
    p.add_argument("file")
    budgeted(p)

    p = sub.add_parser("verify", help="verify a matching file against a graph")
    p.add_argument("graph")
    p.add_argument("matching")
    formatted(p)

    p = sub.add_parser("oracle-max", help="exact maximum rainbow matching")
    p.add_argument("file")
    p.set_defaults(algorithm="oracle-max", depth_cap=None, trace=False)
    budgeted(p)

    p = sub.add_parser("connectivity", help="connectivity toolbox on a seeded digraph")
    p.add_argument("--op", choices=("ball", "twohop", "kdset", "through-path"), required=True)
    p.add_argument("--vertices", type=int, default=40)
    p.add_argument("--out-degree", type=int, default=6, dest="out_degree")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vertex", type=int, default=0)
    p.add_argument("--epsilon", default="1/2")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--mode", default="uncoloured")
    p.add_argument("--anchors", default="0,1")
    budgeted(p)

    p = sub.add_parser("menger", help="counterexample family and fractional duality")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--lp", action="store_true")
    p.add_argument("--simple", action="store_true")
    budgeted(p)

    p = sub.add_parser("bounds", help="threshold formula table")
    p.add_argument("--epsilon", required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--k1", default=None)
    formatted(p)

    p = sub.add_parser("gen", help="emit a seeded instance as an edge list")
    p.add_argument("--kind", choices=("random", "latin"), default="random")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--class-size", type=int, default=0, dest="class_size")
    p.add_argument("--left", type=int, default=None)
    p.add_argument("--right", type=int, default=None)
    p.add_argument("--edge-disjoint", action="store_true", dest="edge_disjoint")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)

    return parser


_HANDLERS = {
    "solve": _cmd_solve,
    "transversal": _cmd_transversal,
    "verify": _cmd_verify,
    "oracle-max": _cmd_solve,
    "connectivity": _cmd_connectivity,
    "menger": _cmd_menger,
    "bounds": _cmd_bounds,
    "gen": _cmd_gen,
}


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.subcommand](args)
    except BudgetExceeded as exc:
        return _stopped(str(exc))
    except (RainbowError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
