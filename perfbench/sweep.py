"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --workload cost_desk --workload protocol_sim \
        --seeds 1:10 --trace 0 [--trace 1] [--out perfbench/baseline/NAME.json]

Runs run.py once per (workload, trace, seed), one run at a time, with the
run length from BENCHMARK.json.  For every metric it prints the median,
the quartiles and the spread (interquartile distance over the median) and,
for end-to-end metrics, whether the spread is within a third of the
metric's bound ("steady") or within the bound at all.
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
    lo, _, hi = text.partition(":")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((HERE / "out" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"seed": seed, "result": result, "provenance": report["provenance"]}


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name, first in runs[0]["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                       else (values[0],) * 3)
        out[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0, "values": values}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", default="1:10")
    p.add_argument("--trace", type=int, action="append", choices=[0, 1])
    p.add_argument("--out")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seed_range(args.seeds)
    sweeps = []
    for trace in args.trace or [0]:
        for workload in args.workload:
            runs = [run_once(workload, s, spec["run_seconds"], trace)
                    for s in seeds]
            summary = summarise(runs)
            failed = sum(r["result"]["failed"] for r in runs)
            attempted = sum(r["result"]["attempted"] for r in runs)
            print(f"{workload} trace={trace} seeds={args.seeds}: "
                  f"{failed} of {attempted} items failed")
            for name, e in summary.items():
                if trace and not (name.startswith("trace.") or name.count(".") == 1):
                    continue
                flag = ""
                if name in bounds:
                    flag = ("steady" if e["spread"] < bounds[name] / 3
                            else "within bound" if e["spread"] <= bounds[name]
                            else "OUTSIDE BOUND")
                print(f"  {name:<22} median {e['median']:12.4f} {e['unit']:<6} "
                      f"q1 {e['q1']:12.4f} q3 {e['q3']:12.4f} "
                      f"spread {e['spread']:7.2%} {flag}")
            sweeps.append({"workload": workload, "trace": trace,
                           "seeds": seeds, "failed": failed,
                           "attempted": attempted, "metrics": summary,
                           "provenance": [r["provenance"] for r in runs]})
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"run_seconds": spec["run_seconds"], "sweeps": sweeps}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
