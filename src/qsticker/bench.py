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


def _figure_run(kind: str, code: SubsystemCode, q_values: list[int],
                trials: int, seed: int, l_max: int, thickness: int | None,
                setup) -> BenchRun:
    """One row per (q, trial) from the q-operator prefix of each trial's Σ.

    The q list must be nonempty, with distinct q >= 1, and the thickness
    defaults to the largest q.  `setup()` runs after the trials check and
    before the q list is checked; it returns the function from Σ to a
    row's values (keyed by the columns after q and trial) and the config
    entries of its own.
    """
    if trials < 1:  # every median would read None
        raise ValueError(f"need trials >= 1, got {trials}")
    values, own_config = setup()
    qs = sorted(q_values)
    if not qs or qs[0] < 1 or len(set(qs)) < len(qs):
        raise ValueError("need a nonempty list of distinct q >= 1, "
                         f"got {list(q_values)}")
    max_q = qs[-1]
    sampler = SigmaSampler(
        code=code, l_max=l_max, max_q=max_q, seed=seed,
        thickness=thickness if thickness is not None else max_q)
    rows = []
    for trial in range(trials):
        full = sampler.sample(max_q, trial)
        for q in qs:
            sigma = OperatorSet("Z", full.vectors.take_rows(range(q)))
            rows.append({"q": q, "trial": trial, **values(sigma)})
    rows.sort(key=lambda r: (r["q"], r["trial"]))
    config = {
        "code": code.name, "n": code.n, "k": code.k, "q_values": qs,
        "trials": trials, "seed": seed, "sampler": sampler.describe(),
        **own_config,
    }
    run = BenchRun(kind=kind, config=config, rows=rows)
    for q in qs:
        at_q = [r for r in rows if r["q"] == q]
        med = {}
        for col in run.columns()[2:]:
            vals = [r[col] for r in at_q if r[col] is not None]
            med[col] = statistics.median(vals) if vals else None
        run.medians[str(q)] = med
    return run


def bench_overlap(code: SubsystemCode, q_values: list[int], trials: int,
                  seed: int, l_max: int = 5,
                  thickness: int | None = None) -> BenchRun:
    """Median maximum crowd number and redundancy number per q."""
    def values(sigma):
        _, mcn = crowd_numbers(sigma)
        return {"mcn": mcn, "rn": redundancy_number(code, sigma)}

    return _figure_run("overlap", code, q_values, trials, seed, l_max,
                       thickness, lambda: (values, {}))


def bench_cost(code: SubsystemCode, q_values: list[int], trials: int,
               seed: int, l_max: int = 5, thickness: int | None = None,
               d_r: int | None = None) -> BenchRun:
    """Median devised-sticking vs brute-force-branching qubit totals.

    bfb needs at least two operators; q = 1 rows record ds only.
    """
    def setup():
        d = _measurement_d_r(code, d_r)

        def values(sigma):
            ds = estimate_qubit_cost(code, sigma, "ds", d_r=d).measured_total
            if sigma.size < 2:
                return {"ds": ds, "bfb": None}
            return {"ds": ds, "bfb": estimate_qubit_cost(
                code, sigma, "bfb", d_r=d).measured_total}

        return values, {"d_r": d}

    return _figure_run("cost", code, q_values, trials, seed, l_max,
                       thickness, setup)
