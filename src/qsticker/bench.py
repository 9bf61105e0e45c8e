"""Figure-style benchmarks: overlap statistics and qubit costs.

Each run records one row per (q, trial); medians are computed from the
recorded rows, so every summary number is recomputable downstream.
Identical (code, config, seed) reruns produce byte-identical CSV and
JSON text.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field

from .branching import _measurement_d_r, estimate_qubit_cost
from .codes import OperatorSet, SubsystemCode, crowd_numbers, redundancy_number
from .sampling import SigmaSampler


@dataclass
class BenchRun:
    kind: str  # "overlap" | "cost"
    config: dict
    rows: list[dict] = field(default_factory=list)
    medians: dict = field(default_factory=dict)

    def columns(self) -> list[str]:
        return (["q", "trial", "mcn", "rn"] if self.kind == "overlap"
                else ["q", "trial", "ds", "bfb"])

    def to_csv_text(self) -> str:
        cols = self.columns()
        lines = [",".join(cols)]
        for row in self.rows:
            lines.append(",".join(
                "" if row.get(c) is None else str(row.get(c)) for c in cols))
        return "\n".join(lines) + "\n"

    def to_json_text(self) -> str:
        payload = {
            "schema": 1,
            "kind": self.kind,
            "config": self.config,
            "medians": self.medians,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _median_of(rows, q, key):
    vals = [r[key] for r in rows if r["q"] == q and r.get(key) is not None]
    return statistics.median(vals) if vals else None


def bench_overlap(code: SubsystemCode, q_values: list[int], trials: int,
                  seed: int, l_max: int = 5,
                  thickness: int | None = None) -> BenchRun:
    """Median maximum crowd number and redundancy number per q."""
    if trials < 1:  # every median would read None
        raise ValueError(f"need trials >= 1, got {trials}")
    max_q = max(q_values)
    t = thickness if thickness is not None else max_q
    sampler = SigmaSampler(code=code, l_max=l_max, thickness=t,
                           max_q=max_q, seed=seed)
    rows = []
    for trial in range(trials):
        full = sampler.sample(max_q, trial)
        for q in sorted(q_values):
            sigma = OperatorSet("Z", full.vectors.take_rows(range(q)))
            _, mcn = crowd_numbers(sigma)
            rn = redundancy_number(code, sigma)
            rows.append({"q": q, "trial": trial, "mcn": mcn, "rn": rn})
    rows.sort(key=lambda r: (r["q"], r["trial"]))
    medians = {str(q): {"mcn": _median_of(rows, q, "mcn"),
                        "rn": _median_of(rows, q, "rn")}
               for q in sorted(q_values)}
    config = {
        "code": code.name, "n": code.n, "k": code.k,
        "q_values": sorted(q_values), "trials": trials, "seed": seed,
        "sampler": sampler.describe(),
    }
    return BenchRun(kind="overlap", config=config, rows=rows, medians=medians)


def bench_cost(code: SubsystemCode, q_values: list[int], thickness: int,
               trials: int, seed: int, l_max: int = 5,
               d_r: int | None = None) -> BenchRun:
    """Median devised-sticking vs brute-force-branching qubit totals.

    bfb needs at least two operators; q = 1 rows record ds only.
    """
    if trials < 1:  # every median would read None
        raise ValueError(f"need trials >= 1, got {trials}")
    d_r = _measurement_d_r(code, d_r)
    max_q = max(q_values)
    sampler = SigmaSampler(code=code, l_max=l_max, thickness=thickness,
                           max_q=max_q, seed=seed)
    rows = []
    for trial in range(trials):
        full = sampler.sample(max_q, trial)
        for q in sorted(q_values):
            sigma = OperatorSet("Z", full.vectors.take_rows(range(q)))
            ds = estimate_qubit_cost(code, sigma, "ds",
                                     thickness=min(thickness, q), d_r=d_r)
            row = {"q": q, "trial": trial, "ds": ds.measured_total, "bfb": None}
            if q >= 2:
                bfb = estimate_qubit_cost(code, sigma, "bfb",
                                          thickness=min(thickness, q), d_r=d_r)
                row["bfb"] = bfb.measured_total
            rows.append(row)
    rows.sort(key=lambda r: (r["q"], r["trial"]))
    medians = {str(q): {"ds": _median_of(rows, q, "ds"),
                        "bfb": _median_of(rows, q, "bfb")}
               for q in sorted(q_values)}
    config = {
        "code": code.name, "n": code.n, "k": code.k,
        "q_values": sorted(q_values), "trials": trials, "seed": seed,
        "d_r": d_r, "sampler": sampler.describe(),
    }
    return BenchRun(kind="cost", config=config, rows=rows, medians=medians)
