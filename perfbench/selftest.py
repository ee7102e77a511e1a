#!/usr/bin/env python3
"""Self-test of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/selftest.py

1. Every workload runs at its tiny size, untraced and traced, with all
   checks passing and every metric of BENCHMARK.json reported.
2. Each workload's checker, fed deliberately wrong answers through the
   real loop, counts every op as failed (fail_frac > 0).
3. Two traced runs of one seed, in separate processes, give identical
   calls and counts; grid.total.distinct_ratio is 1/3 on p1_hyper.
4. The expected p1 answers equal those of the unpermuted input.
5. Without the engine (only BENCHMARK.json and the benchmark files) the
   benchmark exits nonzero and prints no result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import run
from workloads import WORKLOADS, hyper_to_json

ROOT = run.ROOT
SEED = 7
COUNT_UNITS = ("count/op", "ratio", "bits")


def bench(*argv: str) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), *argv],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)
    return proc.returncode, proc.stdout


def tiny_run(name: str, trace: int, seed: int = SEED) -> dict:
    code, out = bench("--workload", name, "--seed", str(seed), "--seconds", "1",
                      "--trace", str(trace), "--tiny")
    last = json.loads(out.strip().splitlines()[-1])
    assert code == 0 and last["correct"] and last["failed"] == 0, (name, trace, out[-2000:])
    return last


def check_catalogue() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, ours in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        theirs = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        assert theirs == ours, f"BENCHMARK.json {key} differs from run.py"
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def check_tiny_runs() -> None:
    for name in WORKLOADS:
        last = tiny_run(name, 0)
        assert list(last["metrics"]) == [m for m, _, _ in run.END_TO_END]
        assert all(m["value"] > 0 for m in last["metrics"].values()), last
        first = tiny_run(name, 1)
        second = tiny_run(name, 1)
        counts = {m: v for m, v in first["metrics"].items()
                  if v["unit"] in COUNT_UNITS or m.endswith(".calls")}
        again = {m: second["metrics"][m] for m in counts}
        assert counts == again, f"{name}: traced counts differ between runs"
        assert list(first["metrics"]) == [m for m, _, _ in run.PER_LAYER]
        print(f"ok  {name}: tiny run passes; two traced runs give identical counts")
        if name == "p1_hyper":
            ratio = first["metrics"]["grid.total.distinct_ratio"]["value"]
            assert abs(ratio - 1 / 3) < 1e-12, ratio
            print("ok  p1_hyper: grid.total.distinct_ratio = 1/3")


def corrupt_p1(out: dict) -> None:
    out["total_dims"] = [1, 1, 1]
    out["first_pages"][0]["dims"][0]["dim"] += 1


def corrupt_derham(out: dict) -> None:
    out["reduce"]["log_coefficients"].append({"I": [9], "c": "1"})
    xi = out["reduce"]["witness"]
    out["reduce"]["witness"] = "z1^5" if xi == "0" else xi + " + z1^5"


def corrupt_small(inp, result):
    if inp["kind"] == "cover":
        return dataclasses.replace(result, dims=(result.dims[0] + 1,) + result.dims[1:])
    if inp["kind"] == "tensor":
        report, cert = result
        return dataclasses.replace(report, dims=(report.dims[0] + 1,) + report.dims[1:]), cert
    return dataclasses.replace(result, agree=False)


def check_wrong_answers() -> None:
    for name, cls in WORKLOADS.items():
        class Wrong(cls):
            if cls.cli:
                def check(self, inp, stdout):
                    out = json.loads(stdout)
                    (corrupt_p1 if name == "p1_hyper" else corrupt_derham)(out)
                    return super().check(inp, json.dumps(out))
            else:
                def check(self, inp, result):
                    return super().check(inp, corrupt_small(inp, result))

        args = argparse.Namespace(workload=name, seed=SEED, seconds=0.5, trace=0, tiny=True)
        res = run.run_workload(Wrong(run.WORK, True), args)
        assert res["attempted"] > 0 and res["fail_frac"] == 1.0, res
        print(f"ok  {name}: wrong answers give fail_frac {res['fail_frac']} "
              f"over {res['attempted']} ops; first: {res['failures'][0][:90]}")


def check_formalg() -> None:
    import formalg

    w = {((1, -2), (2,)): Fraction(3, 2), ((0, 1), ()): Fraction(-1)}
    assert formalg.d(formalg.d(w)) == {}
    assert formalg.parse_report_text("3/2 z1 z2^-2 dz2 - z2", 2) == w


def check_expected_p1() -> None:
    from cohom.presets import build_p1

    golden = json.loads((run.HERE / "expected_p1.json").read_text())
    for window, want in golden.items():
        path = run.WORK / f"p1_unpermuted_{window}.json"
        path.write_text(json.dumps(hyper_to_json(*build_p1(int(window)))))
        proc = subprocess.run([sys.executable, "-m", "cohom.cli", "hyper", str(path),
                               "--format", "json"], capture_output=True, text=True,
                              env=run.child_env(), cwd=ROOT, check=True)
        out = json.loads(proc.stdout)
        assert {k: out[k] for k in want} == want, f"expected_p1.json is stale for W={window}"
    print(f"ok  expected_p1.json matches the unpermuted input for W in {sorted(golden)}")


def check_without_engine() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "p1_hyper",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=bare, timeout=170)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print(f"ok  without the engine: exit {proc.returncode}, no result printed")


def main() -> int:
    sys.path.insert(1, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    check_catalogue()
    check_formalg()
    check_expected_p1()
    check_tiny_runs()
    check_wrong_answers()
    check_without_engine()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
