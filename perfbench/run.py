"""qsticker benchmark: one workload, one seed, a closed loop with one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics.  Set-up is sampled in
SETUP_RUNS fresh processes (the last one also runs the timed loop) and
reported as their median; the loop runs for S seconds and until MIN_ITEMS
items are done, so that ten samples lie beyond the 90th percentile.

--trace 1 measures the per-layer metrics: one untraced and then one
traced process run the loop for S/2 seconds each.  The per-layer numbers
come from the traced process; the ratio of their item rates is the
tracing overhead.  If the layer spans cover less than MIN_COVERAGE of the
item time, the run fails instead of reporting.

Every item's output is checked; a failed check or an exception is a failed
item.  The last line of standard output is the result as JSON; the full
report, with provenance, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import program

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_RUNS = 3
MIN_ITEMS = 100
TAIL = 0.9
MIN_BEYOND = 10
MIN_COVERAGE = 0.9
DEADLINE_S = 170.0  # the whole run, all processes included


def tail_percentile(values: list[float], p: float = TAIL,
                    min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank p-quantile, refused unless min_beyond samples exceed it."""
    n = len(values)
    rank = math.ceil(p * n)
    if n == 0 or n - rank < min_beyond:
        raise ValueError(f"{n} samples leave {n - rank} beyond the "
                         f"{p:.0%} point; need {min_beyond}")
    return sorted(values)[rank - 1]


class WorkerError(RuntimeError):
    pass


def spawn(args: argparse.Namespace, deadline: float, *extra: str):
    """Run one worker; return (set-up seconds, report or None for a probe).

    Set-up is timed from process start to the worker's READY line, less
    the input generation the worker reports.
    """
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest, _ = proc.communicate()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    if proc.returncode != 0 or not ready.startswith("READY "):
        raise WorkerError(f"worker {' '.join(extra)} exited with "
                          f"{proc.returncode}")
    setup_s -= float(ready.split()[1])
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def items_per_s(report) -> float:
    return len(report["latencies"]) / sum(report["latencies"])


def end_to_end(args, deadline):
    setups = [spawn(args, deadline, "--probe")[0] for _ in range(SETUP_RUNS - 1)]
    setup_s, report = spawn(args, deadline, "--seconds", str(args.seconds),
                            "--min-items", str(MIN_ITEMS))
    setups.append(setup_s)
    lat = report["latencies"]
    metrics = {
        "items_per_s": (items_per_s(report), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (tail_percentile(lat) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (report["rss_mb"], "MB"),
    }
    detail = {"setup_samples": setups, "processes": SETUP_RUNS}
    return [report], metrics, detail


def per_layer(args, deadline):
    half = str(args.seconds / 2)
    _, base = spawn(args, deadline, "--seconds", half)
    spans_path = program.OUT / f"{args.workload}-seed{args.seed}-spans.json"
    _, traced = spawn(args, deadline, "--seconds", half, "--trace",
                      "--spans", str(spans_path))
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    metrics["trace.overhead_ratio"] = (items_per_s(traced) / items_per_s(base),
                                       "ratio")
    detail = {"untraced_items_per_s": items_per_s(base),
              "traced_items_per_s": items_per_s(traced),
              "spans": traced["spans"],
              "spans_file": str(spans_path.relative_to(program.ROOT)),
              "processes": 2}
    return [base, traced], metrics, detail


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = program.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cost_desk", "overlap_scale", "surgery_verify",
                                 "protocol_sim"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S
    program.OUT.mkdir(exist_ok=True)
    measure = per_layer if args.trace else end_to_end
    try:
        reports, metrics, detail = measure(args, deadline)
    except (WorkerError, ValueError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    main_report = reports[-1]
    if args.trace and metrics["trace.coverage"][0] < MIN_COVERAGE:
        print(f"perfbench: {args.workload}: layer spans cover "
              f"{metrics['trace.coverage'][0]:.1%} of item time, below "
              f"{MIN_COVERAGE:.0%}", file=sys.stderr)
        return 1
    provenance = {
        "git_commit": git_commit(), "qsticker": main_report["qsticker"],
        "python": main_report["python"], "numpy": main_report["numpy"],
        "nproc": os.cpu_count(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "items_per_run": [r["items"] for r in reports],
        "runs": len(reports), **detail,
        "reference_items": sum(r["reference_items"] for r in reports),
    }
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_path = program.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    errors = [e for r in reports for e in r["errors"]]
    out_path.write_text(json.dumps({
        "result": result, "provenance": provenance,
        "failed_share": failed / attempted, "errors": errors,
        "latencies": [r["latencies"] for r in reports],
    }, indent=1) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{'+'.join(str(r['items']) for r in reports)} timed items, "
          f"{attempted} attempted, {failed} failed")
    if not args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<16} {value:12.4f} {unit}"
                  + (f" ({main_report['items']} items)" if name.startswith("latency")
                     else ""))
        print(f"  {'failed_share':<16} {failed / attempted:12.4f} share "
              f"({failed} of {attempted})")
    print("  provenance: " + " ".join(
        f"{k}={provenance[k]}" for k in ("git_commit", "qsticker", "python", "numpy",
                                         "nproc", "seed", "items_per_run", "runs")))
    for err in errors:
        print(f"  FAILED {err}")
    print(f"  report: {out_path.relative_to(program.ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
