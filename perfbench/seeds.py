#!/usr/bin/env python3
"""Run one workload on several seeds; print each metric's median and spread.

    python3 perfbench/seeds.py --workload p1_hyper --seeds 1-10 --seconds 30 [--trace 1]

The spread is (Q3 - Q1) / median, with Q1 and Q3 from
`statistics.quantiles(values, n=4)`; an end-to-end metric is steady when
its spread stays below its bound in BENCHMARK.json.  Runs are sequential
child processes of run.py; the values go to
`.perfbench_work/seeds-<workload>-trace<t>.json`.
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


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    values: dict = {}
    units: dict = {}
    failed = 0
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, cwd=ROOT)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += proc.returncode != 0 or not last["correct"]
        for name, m in last["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: attempted {last['attempted']}, failed {last['failed']}", flush=True)

    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                         "spread": spread, "values": vals}
        print(f"  {name:<42} median {med:.6g} {units[name]}  spread {spread:.4f}")
    out = ROOT / ".perfbench_work" / f"seeds-{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps({"seeds": args.seeds, "seconds": args.seconds,
                               "metrics": summary}, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
