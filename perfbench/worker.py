"""One benchmark process: set up, run the timed closed loop, check every item.

Started by run.py.  It prints ``READY <input generation seconds>`` when
set-up is done and the first timed item is about to start, and one JSON
report as its last line.  Set-up is the import of qsticker, the workload's
memory codes and one warm-up item; run.py times it from process start.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
from time import perf_counter

import program
import reference
import spans

MAX_ERRORS = 5  # failure messages kept in the report
WARMUP_ITEM = -1000


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--min-items", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", help="file the traced run's spans are written to")
    p.add_argument("--probe", action="store_true",
                   help="stop after set-up (a set-up time sample)")
    return p.parse_args(argv)


class Checker:
    """Counts attempted and failed items; an exception is a failure."""

    def __init__(self, wl, ctx, ref: list[str] | None):
        self.wl, self.ctx, self.ref = wl, ctx, ref
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def item(self, label, inp, out, error) -> None:
        if error is not None:
            self.record(label, [f"{type(error).__name__}: {error}"])
            return
        try:
            problems = self.wl.check(self.ctx, inp, out)
            if (self.ref is not None and isinstance(label, int)
                    and label < len(self.ref)
                    and reference.digest(self.wl.summary(out)) != self.ref[label]):
                problems.append("output differs from the reference")
        except Exception as exc:  # a check that cannot run is a failure
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.record(label, problems)

    def record(self, label, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(f"item {label}: {'; '.join(problems)}")


def run_item(wl, ctx, inp):
    try:
        return wl.run(ctx, inp), None
    except Exception as exc:  # counted as a failed item
        return None, exc


def timed_loop(wl, ctx, args, checker, tracer, inp) -> list[float]:
    """Closed loop, one caller: the next item starts when the last returns.

    Runs for args.seconds and until args.min_items items are done.  Input
    generation and checks sit between items, outside their timing.
    """
    latencies: list[float] = []
    start = perf_counter()
    i = 0
    while True:
        if tracer is not None:
            tracer.item = i
            span = tracer.open(spans.ITEM)
        t0 = perf_counter()
        out, err = run_item(wl, ctx, inp)
        t1 = perf_counter()
        if tracer is not None:
            tracer.close(span)
            tracer.item = None
        latencies.append(t1 - t0)
        checker.item(i, inp, out, err)
        i += 1
        if perf_counter() - start >= args.seconds and i >= args.min_items:
            return latencies
        inp = wl.make_input(ctx, args.seed, i)


def main(argv=None) -> int:
    args = parse_args(argv)
    qsticker = program.load()
    import numpy
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        ctx = wl.setup()
        ref = (reference.load(wl.name) if args.seed == reference.DEFAULT_SEED
               else None)
        checker = Checker(wl, ctx, ref)
        t = perf_counter()
        warm = wl.make_input(ctx, args.seed, WARMUP_ITEM)
        gen_s = perf_counter() - t
        checker.item("warm-up", warm, *run_item(wl, ctx, warm))
        t = perf_counter()
        first = wl.make_input(ctx, args.seed, 0)
        gen_s += perf_counter() - t
        print(f"READY {gen_s!r}", flush=True)
        if args.probe:
            return 0
        latencies = timed_loop(wl, ctx, args, checker, tracer, first)
    finally:
        if tracer is not None:
            tracer.remove()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    oracle_checks = getattr(wl, "oracle_checks", None)
    for j, problems in enumerate(oracle_checks(ctx, args.seed)
                                 if oracle_checks else []):
        checker.record(f"oracle-{j}", problems)

    report = {
        "workload": wl.name, "seed": args.seed, "traced": args.trace,
        "qsticker": qsticker.__version__, "numpy": numpy.__version__,
        "python": platform.python_version(),
        "items": len(latencies), "latencies": latencies,
        "attempted": checker.attempted, "failed": checker.failed,
        "errors": checker.errors, "rss_mb": rss_mb,
        "reference_items": min(len(ref), len(latencies)) if ref else 0,
    }
    if tracer is not None:
        report["layers"] = spans.layer_metrics(tracer, len(latencies))
        report["spans"] = len(tracer.spans)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "item"],
                           "spans": tracer.spans}, fh, separators=(",", ":"))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
