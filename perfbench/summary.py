#!/usr/bin/env python3
"""Run every workload untraced and traced and print all metrics by name.

    python3 perfbench/summary.py --seed 1 --seconds 10

Each run is its own process (``run.py``), one after another.  Prints the
named end-to-end metrics with units and sample counts, the contract
metrics, the tracing overhead, and the per-layer metrics a workload
reaches.  Exits non-zero when a run fails or is incorrect, or when the
traced and untraced runs of a workload count different work.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        raise SystemExit(f"{workload} trace={trace} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def fmt(v) -> str:
    return "-" if v is None else f"{v:.6g}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args()

    bad = False
    for w in WORKLOADS:
        rep0, res0 = run(w, args.seed, args.seconds, 0)
        rep1, res1 = run(w, args.seed, args.seconds, 1)
        print(f"== {w}  seed {args.seed}  cycles {rep0['cycles']} (traced {rep1['cycles']})  "
              f"commit {rep0['provenance']['commit'][:12]}")
        for trace, rep, res in ((0, rep0, res0), (1, rep1, res1)):
            if not res["correct"] or res["failed"]:
                print(f"  trace={trace}: INCORRECT {rep['problems']}")
                bad = True
        if rep0["cycle_counts"] != rep1["cycle_counts"]:
            print(f"  exact counts differ between the runs: {rep0['cycle_counts']} "
                  f"vs {rep1['cycle_counts']}")
            bad = True
        for name, m in rep0["named_metrics"].items():
            base = f"  ({m['base']})" if "base" in m else ""
            print(f"  {name:24s} {fmt(m['value']):>12s} {m['unit']:9s} n={m['samples']}{base}")
        for name, m in res0["metrics"].items():
            print(f"  [e2e] {name:18s} {fmt(m['value']):>12s} {m['unit']}")
        op = res0["metrics"]["op_ms_p50"]["value"]
        traced = res1["metrics"]["trace.op_ms_p50"]["value"]
        print(f"  tracing overhead         {fmt(traced - op):>12s} ms        "
              f"({100 * (traced - op) / op:+.1f}% of op_ms_p50)")
        for name, m in res1["metrics"].items():
            if m["value"]:
                print(f"  [layer] {name:40s} {fmt(m['value']):>12s} {m['unit']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
