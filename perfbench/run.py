#!/usr/bin/env python3
"""Seeded benchmark for the cohom engine.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the root of a checkout; the engine is imported from `src/`.
Each workload is a closed loop with one client in this process and no
threads: the next op starts only when the previous one has been checked.
Inputs come from the seed only.  Op inputs are drawn between ops and are
not timed; every timing below covers ops only.

`--trace 0` measures the end-to-end metrics.  `--trace 1` wraps the
engine's public functions (see tracer.py) and reports per-layer metrics;
it runs for `--seconds` and at least the workload's count window, and
reports calls and counts over that window, so they repeat exactly for a
seed.  `--workload all` runs every workload untraced and traced and
prints one table with the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 only when every op passed its check.
Scratch files, results and span files go to `.perfbench_work/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
OP_GRACE_S = 120  # an op still running this long after the run's end is killed

# (name, unit, better); fail_frac is printed and carried by attempted/failed
END_TO_END = [
    ("op_s_p50", "s", "lower"),
    ("op_s_tail", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("cpu_s_per_op", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]


# metrics beyond each span's calls and self time
COUNTS = [
    ("linalg.rref.cells", "count/op", "lower"),
    ("linalg.rref.nnz", "count/op", "lower"),
    ("linalg.rref.density", "ratio", "lower"),
    ("linalg.rref.max_bits", "bits", "lower"),
    ("linalg.apply.cells", "count/op", "lower"),
    ("complexes.cohomology.distinct_ratio", "ratio", "higher"),
    ("grid.total.distinct_ratio", "ratio", "higher"),
    ("spectral.pages.built", "count/op", "lower"),
    ("forms.components", "count/op", "lower"),
    ("cli.import_s", "s", "lower"),
    ("trace.op_s_p50", "s", "lower"),
]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    out = []
    for name in tracing.SPANS:
        if name not in ("presets.build_p1", "cli.main"):  # set-up once; one call per op
            out.append((f"{name}.calls", "count/op", "lower"))
        out.append((f"{name}.self_s", "s" if name == "presets.build_p1" else "s/op", "lower"))
    return out + COUNTS


PER_LAYER = per_layer_metrics()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def draw(wl, seed: int, op: int, seen: set):
    """The op-th input of the seed's stream, skipping keys already used."""
    for attempt in range(1000):
        key, inp = wl.make_input(op, random.Random(f"{wl.name}:{seed}:{op}:{attempt}"))
        key = hash(key)  # keeps the inputs themselves out of the set
        if key not in seen:
            seen.add(key)
            return inp
    raise RuntimeError(f"{wl.name}: no unused input for op {op}")


def run_child(argv: list[str], stdout_path: Path, deadline: float):
    """Run one child; return (wall s, cpu s, max rss KiB, exit code, stdout, stderr).

    The wait blocks in wait4, which also gives this child's own rusage; an
    alarm at the deadline kills a child that is still running.
    """
    err_path = stdout_path.with_suffix(".err")
    with open(stdout_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, max(deadline - start, 0.001))
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, proc.returncode,
            stdout_path.read_text(), err_path.read_text())


class LayerTotals:
    """Per-layer sums: calls and counts over the count window, self time over all ops."""

    def __init__(self, window: int):
        self.window = window
        self.ops = 0
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.max_bits = 0
        self.spans: list = []

    def add(self, summary: dict) -> None:
        for name, t in summary["self_s"].items():
            self.self_s[name] += t
        if self.ops < self.window:
            for name, n in summary["calls"].items():
                self.calls[name] += n
            for name, n in summary["counts"].items():
                if name == "linalg.rref.max_bits":
                    self.max_bits = max(self.max_bits, n)
                else:
                    self.counts[name] += n
            self.spans.extend((self.ops, i, *s) for i, s in enumerate(summary["spans"]))
        self.ops += 1

    def metrics(self, setup: dict, import_s: float, traced_p50: float) -> dict:
        k = max(min(self.window, self.ops), 1)
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        values = {}
        for name in tracing.SPANS:
            values[f"{name}.calls"] = self.calls[name] / k
            values[f"{name}.self_s"] = self.self_s[name] / max(self.ops, 1)
        values.update({
            "presets.build_p1.self_s": setup["self_s"].get("presets.build_p1", 0.0),
            "linalg.rref.cells": c["linalg.rref.cells"] / k,
            "linalg.rref.nnz": c["linalg.rref.nnz"] / k,
            "linalg.rref.density": ratio(c["linalg.rref.nnz"], c["linalg.rref.cells"]),
            "linalg.rref.max_bits": self.max_bits,
            "linalg.apply.cells": c["linalg.apply.cells"] / k,
            "complexes.cohomology.distinct_ratio": ratio(c["complexes.cohomology.distinct"],
                                                         c["complexes.cohomology.inputs"]),
            "grid.total.distinct_ratio": ratio(c["grid.total.distinct"], c["grid.total.inputs"]),
            "spectral.pages.built": c["spectral.pages.built"] / k,
            "forms.components": c["forms.components"] / k,
            "cli.import_s": import_s,
            "trace.op_s_p50": traced_p50,
        })
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for op, i, name, start, end, parent in self.spans:
                fh.write(json.dumps({"op": op, "i": i, "name": name,
                                     "stage": tracing.STAGES.get(name), "start": start,
                                     "end": end, "parent": parent}) + "\n")


def tail(walls: list[float]):
    """Highest percentile with at least ten samples above it, at most p98: (value, percentile).

    From p99 up, small_batch's value falls among its few largest
    instances and spread 0.2-0.27 between seeds, more than any bound
    allows; p98 spreads like the median.
    """
    ordered = sorted(walls)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    k = min(n - 10, math.ceil(0.98 * n))  # samples at or below the reported value
    return ordered[k - 1], 100.0 * k / n


def setup_seconds(args) -> float:
    """Median wall time of fresh-process set-ups: imports, preparation, first input."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def import_seconds() -> float:
    code = "import time; t = time.perf_counter(); import cohom.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, timeout=120, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def run_workload(wl, args) -> dict:
    """Set up, run the closed loop for --seconds, check every answer."""
    setup_s = setup_seconds(args)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.begin()
    wl.prepare()
    setup_summary = tracer.end() if tracer else None
    layers = LayerTotals(wl.trace_window)
    min_ops = wl.trace_window if tracer else 1

    walls, cpus, rss = [], [], []
    failures: list[str] = []
    seen: set = set()
    out_path = WORK / f"{wl.name}.out"
    summary_path = WORK / f"{wl.name}.summary.json"
    op = 0
    end = time.perf_counter() + args.seconds
    while op < min_ops or time.perf_counter() < end:
        inp = draw(wl, args.seed, op, seen)
        errors: list[str] = []
        summary = None
        if wl.cli:
            if tracer:
                argv = [sys.executable, str(HERE / "traced_cli.py"), str(summary_path)]
            else:
                argv = [sys.executable, "-m", "cohom.cli"]
            wall, cpu, maxrss, code, stdout, stderr = run_child(
                argv + wl.argv(inp), out_path, end + OP_GRACE_S)
            rss.append(maxrss)
            if code != 0:
                errors.append(f"exit code {code}: {stderr.strip()[-300:]}")
            else:
                errors += checked(wl.check, inp, stdout)
            if tracer and code == 0:
                summary = json.loads(summary_path.read_text())
                if hasattr(wl, "pole_reduce"):
                    tracer.begin()
                    errors += checked(lambda i: wl.check_pole_reduce(i, wl.pole_reduce(i)), inp)
                    merge(summary, tracer.end())
        else:
            if tracer:
                tracer.begin()
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                result = wl.call(inp)
            except Exception as e:  # the engine raising is a failed op
                result, errors = None, [f"raised {e!r}"]
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if tracer:
                summary = tracer.end()
            if result is not None:
                errors += checked(wl.check, inp, result)
        walls.append(wall)
        cpus.append(cpu)
        if summary:
            layers.add(summary)
        if errors:
            failures.append(f"op {op}: " + "; ".join(errors))
        op += 1

    if not wl.cli:
        rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    tail_value, tail_pct = tail(walls)
    e2e = {
        "op_s_p50": statistics.median(walls),
        "op_s_tail": tail_value,
        "ops_per_s": len(walls) / sum(walls),
        "cpu_s_per_op": sum(cpus) / len(cpus),
        "peak_rss_mb": max(rss) / 1024,
        "setup_s": setup_s,
    }
    result = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "attempted": len(walls), "failed": len(failures),
        "fail_frac": len(failures) / len(walls), "tail_percentile": tail_pct,
        "end_to_end": e2e, "failures": failures[:20], "op_walls": walls,
    }
    if tracer:
        import_s = import_seconds() if wl.cli else 0.0
        result["per_layer"] = layers.metrics(setup_summary, import_s, e2e["op_s_p50"])
        result["count_window_ops"] = min(layers.window, layers.ops)
        span_path = WORK / f"spans-{wl.name}-{args.seed}.jsonl"
        layers.write_spans(span_path)
        result["span_file"] = str(span_path.relative_to(ROOT))
        tracer.uninstall()
    return result


def checked(check, *args) -> list[str]:
    """Errors from a check; an exception (engine or malformed answer) is one error."""
    try:
        return check(*args)
    except Exception as e:
        return [f"raised {e!r}"]


def merge(summary: dict, extra: dict) -> None:
    """Add an in-process step's trace to a child op's summary."""
    offset = len(summary["spans"])
    summary["spans"] += [(n, s, e, p + offset if p >= 0 else -1) for n, s, e, p in extra["spans"]]
    for key in ("calls", "self_s", "counts"):
        for name, v in extra[key].items():
            if name == "linalg.rref.max_bits":
                summary[key][name] = max(summary[key].get(name, 0), v)
            else:
                summary[key][name] = summary[key].get(name, 0) + v


def print_result(res: dict) -> None:
    print(f"workload {res['workload']} seed {res['seed']} trace {res['trace']}: "
          f"{res['attempted']} ops, {res['failed']} failed")
    units = {name: unit for name, unit, _ in END_TO_END}
    for name, value in res["end_to_end"].items():
        note = f"  (p{res['tail_percentile']:.0f} of {res['attempted']} ops)" \
            if name == "op_s_tail" else ""
        print(f"  {name:<14} {value:.6g} {units[name]}{note}")
    print(f"  {'fail_frac':<14} {res['fail_frac']:.6g} 1  ({res['failed']}/{res['attempted']})")
    for line in res["failures"]:
        print(f"  FAIL {line}")
    if "per_layer" in res:
        for name, m in res["per_layer"].items():
            print(f"  {name:<42} {m['value']:.6g} {m['unit']}")
        print(f"  spans of the first {res['count_window_ops']} ops: {res['span_file']}")


def run_all(args) -> int:
    """Every workload untraced and traced, in child runs; one table with overhead."""
    report, ok = {}, True
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
            ok = ok and proc.returncode == 0
            path = WORK / f"results-{name}-{args.seed}-trace{trace}.json"
            if not path.exists():
                print(proc.stdout + proc.stderr)
                return 2
            res = json.loads(path.read_text())
            report.setdefault(name, {})[f"trace{trace}"] = res
            print_result(res)
        untraced = report[name]["trace0"]["end_to_end"]["op_s_p50"]
        traced = report[name]["trace1"]["per_layer"]["trace.op_s_p50"]["value"]
        report[name]["trace_overhead"] = traced / untraced
        print(f"  tracing overhead on {name}: traced op_s_p50 {traced:.6g} s / "
              f"untraced {untraced:.6g} s = {traced / untraced:.3f}x")
    (WORK / f"report-{args.seed}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({"correct": ok, "workloads": list(report)}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes (self-test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "cohom" / "__init__.py").is_file():
        print(f"error: no engine at {SRC}/cohom; run from a cohom checkout", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    WORK.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)

    wl = WORKLOADS[args.workload](WORK, args.tiny)
    if args.setup_probe:
        start = time.perf_counter()
        wl.prepare()
        draw(wl, args.seed, 0, set())
        print(time.perf_counter() - start)
        return 0

    res = run_workload(wl, args)
    (WORK / f"results-{wl.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(res, indent=1))
    print_result(res)
    metrics = res["per_layer"] if args.trace else {
        name: {"value": res["end_to_end"][name], "unit": unit} for name, unit, _ in END_TO_END}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
