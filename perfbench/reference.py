"""Per-item output digests of the default seed, recorded from a known-good commit.

    python3 perfbench/reference.py --workload NAME --items N

runs items 0..N-1 of the default seed, refuses to record if any output
fails its checks, and writes perfbench/reference/NAME.json.  A run on the
default seed compares each item's digest with the recorded one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

DEFAULT_SEED = 1
DIR = Path(__file__).resolve().parent / "reference"
WIDTH = 8  # hex digits kept per item


def digest(summary) -> str:
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:WIDTH]


def load(workload: str) -> list[str]:
    """Recorded digests of the default seed, item by item."""
    data = json.loads((DIR / f"{workload}.json").read_text())
    packed = data["digests"]
    return [packed[i:i + WIDTH] for i in range(0, len(packed), WIDTH)]


def record(workload: str, items: int) -> Path:
    import program

    qsticker = program.load()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    ctx = wl.setup()
    digests = []
    for i in range(items):
        inp = wl.make_input(ctx, DEFAULT_SEED, i)
        out = wl.run(ctx, inp)
        problems = wl.check(ctx, inp, out)
        if problems:
            raise SystemExit(f"item {i} fails its checks: {problems}")
        digests.append(digest(wl.summary(out)))
    path = DIR / f"{workload}.json"
    DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps({
        "workload": workload, "seed": DEFAULT_SEED, "items": items,
        "qsticker": qsticker.__version__, "digest": f"sha256[:{WIDTH}]",
        "digests": "".join(digests),
    }, indent=1) + "\n")
    return path


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--items", type=int, required=True)
    args = parser.parse_args()
    print(record(args.workload, args.items))
