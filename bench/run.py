#!/usr/bin/env python3
"""Whole-corpus benchmark of rainbowmatch: the switching engine, the exact
oracle and the connectivity toolbox.

Run from the repository root:

    python3 bench/run.py --workload engine-tight --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seed 1            # all four workloads, one after another
    python3 bench/run.py --short             # every check on a few instances

A run generates its corpus from the seed, imports the package from ``src``,
runs one untimed warm-up operation and then whole passes over the corpus
until the next pass would end after ``--seconds``.  It checks every output,
prints each metric by name with its unit, and prints one JSON object as its
last line.  ``--trace 1`` instruments the package from outside and reports
the per-layer metrics instead of the end-to-end ones.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"  # corpora while a run lasts, and the span files

sys.path.insert(0, str(HERE))
import tracer as tracer_mod  # noqa: E402
from reference import REF_NOMINAL_S, Reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
SETUP_REF_RUNS = 15  # reference runs before and after each set-up repetition
PASS_REF_RUNS = 120  # reference runs per pass, spread evenly over its operations
MIN_PASSES = 3
MODULES = ("budget", "core", "latin", "digraph", "switching", "oracle", "connectivity", "menger", "cli")
EXIT_INPUT, EXIT_BUDGET = 2, 3  # the CLI's error exit codes


def import_program() -> SimpleNamespace:
    """Import the package afresh, so each set-up repetition pays for it."""
    for name in [m for m in sys.modules if m == "rainbowmatch" or m.startswith("rainbowmatch.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"rainbowmatch.{m}") for m in MODULES})


def speed(ref_times: list[float]) -> float:
    """How much slower than the reference speed the machine ran."""
    return statistics.median(ref_times) / REF_NOMINAL_S


def set_up(workload: str, seed: int, workdir: str, short: bool, ref: Reference):
    """Import, generate and write the corpus, run the warm-up operation.

    Repeated SETUP_REPEATS times; returns the last repetition's modules and
    operations and the median set-up time, each repetition's time scaled to
    the reference speed measured just before and after it.
    """
    times = []
    for _ in range(1 if short else SETUP_REPEATS):
        refs = [ref.run() for _ in range(SETUP_REF_RUNS)]
        start = perf_counter()
        mods = import_program()
        ops = WORKLOADS[workload](seed, workdir, mods, short)
        try:
            ops[0].call()
        except Exception:  # the timed passes report it
            pass
        elapsed = perf_counter() - start
        refs += [ref.run() for _ in range(SETUP_REF_RUNS)]
        times.append(elapsed / speed(refs))
    return mods, ops, statistics.median(times)


def call(op):
    """One timed operation; returns (seconds, output, error)."""
    start = perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # the run goes on; the operation counts as failed
        return perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    if isinstance(out, tuple) and len(out) == 3 and out[0] in (EXIT_INPUT, EXIT_BUDGET):
        return elapsed, None, f"exit code {out[0]}: {out[2].strip() or '(no message)'}"
    return elapsed, out, None


@dataclass
class Passes:
    """What the timed passes of one run measured and found."""

    times: list[list[float]] = field(default_factory=list)  # per pass, per operation
    speeds: list[float] = field(default_factory=list)  # per pass, see speed()
    traces: list[tuple] = field(default_factory=list)  # per pass: counts, self and inclusive times
    failures: list[tuple[int, str, str]] = field(default_factory=list)  # pass, operation, reason
    digests: list[str | None] = field(default_factory=list)  # per operation, of its output
    counts: list[dict | None] = field(default_factory=list)  # per operation, traced counters
    correct: bool = True  # every output that did not fail passed its check


def run_passes(ops, seconds: float, short: bool, ref: Reference, tracer=None) -> Passes:
    """Whole passes until the next one would end after ``seconds``.

    The reference task runs after every operation, outside its timing.  An
    output is checked on the first pass; later passes must repeat it byte for
    byte and, when traced, repeat its counters exactly.
    """
    run = Passes(digests=[None] * len(ops), counts=[None] * len(ops))
    refs_per_op = -(-PASS_REF_RUNS // len(ops))
    check_errors: list[str | None] = [None] * len(ops)
    start = perf_counter()
    walls = []
    while True:
        pass_start = perf_counter()
        if tracer is not None:
            tracer.recording = not run.times
        pass_times, pass_refs, pass_counts = [], [], {}
        for i, op in enumerate(ops):
            elapsed, out, error = call(op)
            pass_times.append(elapsed)
            counts = tracer.end_op() if tracer is not None else None
            pass_refs += [ref.run() for _ in range(refs_per_op)]
            if error is None:
                digest = hashlib.sha256(op.render(out).encode()).hexdigest()
                if run.digests[i] is None:
                    run.digests[i] = digest
                    check_errors[i] = op.check(out)
                if digest != run.digests[i]:
                    error = "output differs from the first pass"
                else:
                    error = check_errors[i]
                if counts is not None:
                    if run.counts[i] is None:
                        run.counts[i] = counts
                    elif counts != run.counts[i]:
                        error = f"counters differ from the first pass: {counts} vs {run.counts[i]}"
                if error is not None:
                    run.correct = False
            if error is not None:
                run.failures.append((len(run.times), op.name, error))
            if counts is not None:
                for key, value in counts.items():
                    pass_counts[key] = pass_counts.get(key, 0) + value
        run.times.append(pass_times)
        run.speeds.append(speed(pass_refs))
        if tracer is not None:
            run.traces.append((pass_counts, *tracer.take_times()))
        walls.append(perf_counter() - pass_start)
        if short:
            break
        if len(run.times) >= MIN_PASSES and perf_counter() - start + statistics.median(walls) > seconds:
            break
    return run


def ops_per_s(run: Passes) -> float:
    """Median over passes of operations per second of operation time, at
    the reference speed."""
    return statistics.median(len(p) / sum(p) * f for p, f in zip(run.times, run.speeds))


def digest_of(parts) -> str:
    return hashlib.sha256("\n".join(p or "-" for p in parts).encode()).hexdigest()


def per_layer(run: Passes) -> dict[str, tuple[float, str]]:
    """Per-pass layer metrics: counts from the first pass (every pass repeats
    them exactly or its operations failed), times as medians over passes at
    the reference speed."""
    counts = run.traces[0][0]

    def count(key):
        return counts.get(key, 0)

    def med(fn):
        return statistics.median(fn(self_s, incl_s) / f for (_, self_s, incl_s), f in zip(run.traces, run.speeds))

    def ratio(num, den):
        return num / den if den else 0.0

    oracle_s = med(lambda s, i: i.get("oracle.exact_max_rainbow_matching", 0.0))
    return {
        "core.graphs_built": (count("core.graphs_built"), "count"),
        "core.edges_indexed": (count("core.edges_indexed"), "count"),
        "core.build_s": (med(lambda s, i: s.get("core.ColouredBipartiteMultigraph", 0.0)), "s"),
        "core.parse_s": (med(lambda s, i: s.get("core.read_edge_list", 0.0) + s.get("latin.parse_latin", 0.0)), "s"),
        "core.verify_s": (med(lambda s, i: s.get("core.verify_rainbow_matching", 0.0)), "s"),
        "switching.augment_calls": (count("switching.augment_calls"), "count"),
        "switching.augment_hit_ratio": (ratio(count("switching.augment_hits"), count("switching.augment_calls")), "ratio"),
        "switching.augment_s": (med(lambda s, i: s.get("switching.augment", 0.0)), "s"),
        "switching.rotation_states": (count("switching.rotation_states"), "count"),
        "switching.digraphs_built": (count("switching.digraphs_built"), "count"),
        "switching.engine_s": (med(lambda s, i: s.get("switching.solve_switching_engine", 0.0)), "s"),
        "digraph.paths_yielded": (count("digraph.paths_yielded"), "count"),
        "digraph.kernel_s": (med(lambda s, i: i.get("digraph.iter_rainbow_paths", 0.0)), "s"),
        "digraph.digraphs_built": (count("digraph.digraphs_built"), "count"),
        "digraph.arcs_indexed": (count("digraph.arcs_indexed"), "count"),
        "budget.nodes": (count("budget.nodes"), "count"),
        "oracle.calls": (count("oracle.calls"), "count"),
        "oracle.nodes": (count("oracle.nodes"), "count"),
        "oracle.search_s": (oracle_s, "s"),
        "oracle.nodes_per_s": (ratio(count("oracle.nodes"), oracle_s), "1/s"),
        "connectivity.ball_s": (med(lambda s, i: i.get("connectivity.low_expansion_ball", 0.0)), "s"),
        "connectivity.ball_used_ratio": (
            ratio(count("connectivity.ball_vertices"), count("connectivity.layer_vertices")), "ratio"),
        "connectivity.twohop_s": (med(lambda s, i: i.get("connectivity.build_two_hop_digraph", 0.0)), "s"),
        "connectivity.twohop_arcs": (count("connectivity.twohop_arcs"), "count"),
        "connectivity.through_path_s": (med(lambda s, i: i.get("connectivity.rainbow_path_through", 0.0)), "s"),
        "menger.paths": (count("menger.paths"), "count"),
        "menger.enumerate_s": (med(lambda s, i: i.get("menger.rainbow_st_paths", 0.0)), "s"),
        "menger.lp_s": (med(lambda s, i: s.get("menger.fractional_menger", 0.0)), "s"),
        "menger.properties_s": (med(lambda s, i: i.get("menger.verify_property_I", 0.0)
                                    + i.get("menger.verify_property_II", 0.0)), "s"),
        "cli.self_s": (med(lambda s, i: s.get("cli.run", 0.0)), "s"),
        "trace.ops_per_s": (ops_per_s(run), "1/s"),
    }


def class_report(ops, times) -> list[str]:
    """Each operation class: count, median time per operation, share of a pass."""
    per_op = [statistics.median(p[i] for p in times) for i in range(len(ops))]
    total = sum(per_op)
    classes: dict[str, list[float]] = {}
    for op, t in zip(ops, per_op):
        classes.setdefault(op.cls, []).append(t)
    return [
        f"  {cls:<24} {len(ts):>4} ops  median {statistics.median(ts) * 1e3:8.2f} ms  "
        f"share {sum(ts) / total:6.1%}"
        for cls, ts in classes.items()
    ]


def run_workload(args) -> int:
    if not (SRC / "rainbowmatch" / "__init__.py").is_file():
        sys.stderr.write(f"error: no rainbowmatch package under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ref = Reference()
    try:
        mods, ops, setup_s = set_up(args.workload, args.seed, str(workdir), args.short, ref)
        tracer = None
        if args.trace:
            tracer = tracer_mod.Tracer()
            tracer.install(mods)
        try:
            run = run_passes(ops, args.seconds, args.short, ref, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p) for p in run.times)
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations per pass, "
          f"{len(run.times)} passes, {sum(map(sum, run.times)):.2f} s of operation time")
    print(f"attempted {attempted} failed {len(run.failures)}")
    for pass_no, name, error in run.failures[:10]:
        print(f"  failed: pass {pass_no} {name}: {error}")
    print("per pass, unscaled ops_per_s @ machine speed: "
          + " ".join(f"{len(p) / sum(p):.2f}@{f:.3f}" for p, f in zip(run.times, run.speeds)))
    print(f"digest {args.workload} seed {args.seed}: {digest_of(run.digests)}")
    for line in class_report(ops, run.times):
        print(line)

    if args.trace:
        metrics = per_layer(run)
        print(f"counters digest {args.workload} seed {args.seed}: "
              f"{digest_of(json.dumps(c, sort_keys=True) for c in run.counts)}")
        spans_path = OUT / f"spans-{args.workload}-s{args.seed}.jsonl"
        written = tracer.write_spans(str(spans_path))
        print(f"spans of the first pass: {written} written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = {
            "ops_per_s": (ops_per_s(run), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.short:
            argv.append("--short")
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="one pass over a few instances per workload, every check")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
