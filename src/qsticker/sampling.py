"""Seeded random operator-set sampling for the benchmarks.

Operators are products of 1..L stored Z logical generator rows.  A
thickness-t run assigns operator i to cell i // t; cells draw from
disjoint pools of logical indices, so logical overlaps only occur
within a cell and every prefix of a trial's operator stream has
thickness at most t.

Streams have the prefix property: the q-operator set of a trial is a
prefix of its (q+1)-operator set, which makes per-trial overlap
statistics monotone in q by construction.  The sampling distribution
(uniform support size in 1..L, uniform index choice without
replacement, independence enforced by redraw) is documented in every
report header.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .codes import OperatorSet, SubsystemCode
from .errors import InternalError
from .gf2 import Gf2Matrix, RowReducer


@dataclass(frozen=True)
class SigmaSampler:
    code: SubsystemCode
    l_max: int  # max logical qubits acted on per operator
    thickness: int
    max_q: int
    seed: int

    def __post_init__(self):
        k = self.code.k
        if not 1 <= self.max_q <= k:
            raise ValueError(f"need 1 <= max_q <= k={k}")
        if not 1 <= self.thickness <= self.max_q:
            raise ValueError("need 1 <= thickness <= max_q")
        if self.l_max < 1:
            raise ValueError("l_max must be positive")
        cells = -(-self.max_q // self.thickness)
        if k // cells < min(self.thickness, self.max_q):
            raise ValueError(
                f"code with k={k} cannot host q={self.max_q} operators at "
                f"thickness {self.thickness}: pools would be too small")

    def cell_pools(self) -> list[list[int]]:
        k = self.code.k
        cells = -(-self.max_q // self.thickness)
        base = k // cells
        extra = k % cells
        pools = []
        start = 0
        for c in range(cells):
            size = base + (1 if c < extra else 0)
            pools.append(list(range(start, start + size)))
            start += size
        return pools

    def stream(self, trial: int) -> list[tuple[int, ...]]:
        """Logical-index subsets for operators 0..max_q-1 of one trial."""
        rng = random.Random(self.seed * 1_000_003 + trial)
        pools = self.cell_pools()
        picks: list[tuple[int, ...]] = []
        for i in range(self.max_q):
            cell, pos = divmod(i, self.thickness)
            pool = pools[cell]
            limit = min(self.l_max, len(pool))
            if pos == 0:
                span = RowReducer()  # the draws of this cell so far
            for _ in range(200):
                size = rng.randint(1, limit)
                idxs = tuple(sorted(rng.sample(pool, size)))
                mask = 0
                for t in idxs:
                    mask |= 1 << t
                if span.add(mask):
                    picks.append(idxs)
                    break
            else:
                raise InternalError("failed to draw an independent operator")
        return picks

    def sample(self, q: int, trial: int = 0) -> OperatorSet:
        """The q-operator prefix of a trial's stream, as Z vectors."""
        if not 1 <= q <= self.max_q:
            raise ValueError(f"need 1 <= q <= max_q={self.max_q}")
        picks = self.stream(trial)[:q]
        rows = []
        for idxs in picks:
            acc = 0
            for t in idxs:
                acc ^= self.code.jz.bits[t]
            rows.append(acc)
        return OperatorSet("Z", Gf2Matrix(rows, self.code.n))

    def describe(self) -> dict:
        return {
            "distribution": "per-operator support size uniform on 1..L, "
                            "logical indices uniform without replacement "
                            "within the thickness cell, independence by redraw",
            "representatives": "stored logical generator rows (combined)",
            "prefix_property": True,
            "L": self.l_max,
            "t": self.thickness,
            "max_q": self.max_q,
            "seed": self.seed,
        }

