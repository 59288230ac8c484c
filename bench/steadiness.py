#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how steady each metric is.

    python3 bench/steadiness.py --seeds 1-10 [--workloads engine-tight,toolbox]
        [--seconds 20] [--out .bench_out/steady-a.json]

Runs ``bench/run.py`` once per workload and seed, one run at a time, then
prints for every end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread (Q3 - Q1) as a
share of the median, and the bound from BENCHMARK.json.  ``--compare`` takes
an earlier ``--out`` file and adds how far each median moved since then, in
the metric's worse direction, as a share of the earlier median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(t) for t in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=None)
    parser.add_argument("--compare", default=None)
    args = parser.parse_args()

    results: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            results.setdefault(workload, []).append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']} {values}",
                  flush=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(results, indent=1))
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}

    print(f"\n{'workload':<14} {'metric':<12} {'median':>10} {'Q1':>10} {'Q3':>10} "
          f"{'spread':>7} {'bound':>6}" + (f" {'moved':>7}" if earlier else ""))
    for workload, runs in results.items():
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            line = (f"{workload:<14} {name:<12} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} "
                    f"{(q3 - q1) / med:>7.1%} {metric['bound']:>6.0%}")
            if workload in earlier:
                before = statistics.median(r["metrics"][name]["value"] for r in earlier[workload])
                worse = (before - med) if metric["better"] == "higher" else (med - before)
                line += f" {worse / before:>7.1%}"
            print(line)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload:<14} failed share {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
