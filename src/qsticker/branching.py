"""Brute-force branching plans and qubit-cost accounting.

Branching separates q overlapping logical operators through
ceil(log2 q) levels of branch stickers: a subset of size >= 2 splits
into two halves, each half gets a branch sticker pasted on the previous
level's open boundary.  Then every operator gets a measurement sticker
on its final open boundary at level ceil(log2 q) + 1, also one whose
singleton formed early and rode along unsplit: the paper's time
argument is one final measurement round for all q operators, so a plan
takes ceil(log2 q) + 1 sequential sticker rounds for any q.

The plan tree is the paste schedule, one node per sticker.  Assembly
pastes the nodes in order (each paste turns the deformed code into the
new memory); cost estimation prices them without assembling, sizing a
node's sticker by the naked glue of the memory's H_X on S, the union of
the supports of the node's operators.  For a branch sticker that is
exact.  A branch paste's glue codewords are J_{Z,A} on its support
B_N, so a transferred representative on an open boundary is the parent
representative restricted to the parent's support, and the X-checks
adjacent to the boundary block are exactly the parent glue checks, so
each paste sees the induced subgraph of its parent's glue.  For
S' ⊆ S every check meeting S' also meets S, so the induced subgraph of
the induced subgraph on S is the induced subgraph of H_X on S'.  A
measurement sticker's price is a lower bound: assembly pastes a finely
devised glue, which stacks dressing checks on that naked glue when the
support holds other logicals and only adds vertices after.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .codes import OperatorSet, SubsystemCode, support_union, z_signature
from .errors import InternalError
# solve_left is unused here; perfbench's tracer test patches this binding
from .gf2 import Gf2Matrix, solve_left
from .glue import GlueError, finely_devised_glue
from .stickers import DeformedCode, _check_d_r, deform, sticker_qubits
from .tanner import adjacent_checks


class BranchNode(NamedTuple):
    node_id: int
    level: int
    parent: int | None  # None = pasted on the memory itself
    ops: tuple[int, ...]
    kind: str  # "branch" | "measurement"
    d_r: int


@dataclass(frozen=True)
class BranchTree:
    q: int
    levels: int  # branch levels; measurements go at levels + 1
    nodes: tuple[BranchNode, ...]  # paste order: level order, then id order


def _measurement_d_r(c: SubsystemCode, d_r: int | None) -> int:
    """The measurement sticker length: d_r, else the memory distance."""
    if d_r is None:
        d_r = c.distance
    if d_r is None:
        raise ValueError("d_r is required when the memory distance is unknown")
    _check_d_r(d_r)
    return d_r


def plan_branching(c: SubsystemCode, sigma: OperatorSet,
                   d_r: int | None = None) -> BranchTree:
    """The paste schedule: a binary split tree, then one measurement each.

    Subsets of size >= 2 split ceil/floor at the next level; both
    children get branch stickers (d_R = 2) even when singleton.
    Already-singleton subsets ride along unsplit.  Operator i's
    measurement node hangs off its singleton node at level levels + 1,
    with d_R from d_r or else the memory distance.
    """
    q = sigma.size
    if q < 2:
        raise GlueError("branching needs q >= 2; use devised sticking directly")
    d_r = _measurement_d_r(c, d_r)
    nodes: list[BranchNode] = []
    frontier: list[tuple[int | None, tuple[int, ...]]] = [(None, tuple(range(q)))]
    level = 0
    while any(len(ops) >= 2 for (_, ops) in frontier):
        level += 1
        new_frontier: list[tuple[int | None, tuple[int, ...]]] = []
        for parent, ops in frontier:
            if len(ops) < 2:
                new_frontier.append((parent, ops))
                continue
            half = (len(ops) + 1) // 2
            for part in (ops[:half], ops[half:]):
                new_frontier.append((len(nodes), part))
                nodes.append(BranchNode(len(nodes), level, parent, part,
                                        "branch", 2))
        frontier = new_frontier
    if level != math.ceil(math.log2(q)):
        raise InternalError(f"branch tree has {level} levels for q={q} (bug)")
    if [ops for (_, ops) in frontier] != [(i,) for i in range(q)]:
        raise InternalError(f"branch tree leaves {frontier} for q={q} (bug)")
    for parent, ops in frontier:
        nodes.append(BranchNode(len(nodes), level + 1, parent, ops,
                                "measurement", d_r))
    return BranchTree(q=q, levels=level, nodes=tuple(nodes))


@dataclass
class AssembledPlan:
    final: DeformedCode
    pastes: list[DeformedCode]  # one per plan node, in node order
    incidence: dict[int, int]  # level -> max stickers touching one qubit

    @property
    def final_code(self) -> SubsystemCode:
        return self.final.code


def assemble_plan(c: SubsystemCode, sigma: OperatorSet,
                  d_r: int | None = None) -> AssembledPlan:
    """Paste every node of `plan_branching(c, sigma, d_r)` sequentially.

    Tracks a representative of each operator through the transfers: a
    branch paste moves it to its restriction to B_N on the open boundary,
    its glue codeword as J_G = J_{Z,A} on B_N, which differs from the
    padded old representative by a deformed-code stabiliser.
    """
    tree = plan_branching(c, sigma, d_r)
    current = c
    reps: dict[int, int] = {i: sigma.vectors.bits[i] for i in range(sigma.size)}
    pastes: list[DeformedCode] = []
    incidence_sets: dict[int, list[tuple[int, ...]]] = {}

    for node in tree.nodes:
        rows = Gf2Matrix([reps[i] for i in node.ops], current.n)
        dc = deform(current, OperatorSet("Z", rows), node.kind, node.d_r)
        if node.kind == "branch":
            transferred = rows.take_cols(dc.glue.b_n)
            lo, _ = dc.ob_range
            for pos, i in enumerate(node.ops):
                reps[i] = transferred.bits[pos] << lo
            # representatives of other operators keep their (padded) indices
        incidence_sets.setdefault(node.level, []).append(dc.glue.b_n)
        pastes.append(dc)
        current = dc.code

    incidence: dict[int, int] = {}
    for level, sets in incidence_sets.items():
        counts: dict[int, int] = {}
        for b_n in sets:
            for qubit in b_n:
                counts[qubit] = counts.get(qubit, 0) + 1
        incidence[level] = max(counts.values(), default=0)
    return AssembledPlan(final=pastes[-1], pastes=pastes, incidence=incidence)


# -- qubit-cost accounting ---------------------------------------------


@dataclass
class CostReport:
    scheme: str  # "ds" | "bfb"
    q: int
    thickness: int
    d_r: int
    measured_total: int
    per_level: list[int] = field(default_factory=list)
    bounds: dict = field(default_factory=dict)

    def to_report(self) -> dict:
        return {
            "schema": 1,
            "scheme": self.scheme,
            "q": self.q,
            "t": self.thickness,
            "d_r": self.d_r,
            "measured_total": self.measured_total,
            "per_level": list(self.per_level),
            "bounds": {k: v for k, v in sorted(self.bounds.items())},
        }


def _glue_shape(c: SubsystemCode, sigma: OperatorSet,
                node: BranchNode) -> tuple[int, int]:
    """(n_G, r_G) of the naked glue of H_X on the node's support."""
    support = 0
    for i in node.ops:
        support |= sigma.vectors.bits[i]
    return support.bit_count(), len(adjacent_checks(c.hx, support))


def estimate_qubit_cost(c: SubsystemCode, sigma: OperatorSet, scheme: str,
                        thickness: int | None = None,
                        d_r: int | None = None) -> CostReport:
    """Sticker-qubit totals for devised sticking or brute-force branching.

    ds: one measurement sticker from the fine glue with repetition
    length d_r (= memory distance by default).  bfb: one sticker per
    node of `plan_branching(c, sigma, d_r)`, of the node's kind and d_R,
    sized by the naked glue of the memory's H_X on the node's support; a
    measurement node reuses its singleton parent's glue.  Branch stickers
    are priced exactly; measurement stickers at their naked glue, a lower
    bound on the finely devised glue `assemble_plan` pastes (see the
    module docstring).
    """
    if scheme not in ("ds", "bfb"):
        raise ValueError("scheme must be 'ds' or 'bfb'")
    d_r = _measurement_d_r(c, d_r)
    q = sigma.size
    t = thickness if thickness is not None else q
    n_n = len(support_union(sigma))
    if scheme == "ds":
        fine = finely_devised_glue(c, sigma)
        measured = sticker_qubits(fine.n_g, fine.r_g, d_r, "measurement")
        bounds = {
            "formula": "O(n_N d q)",
            "n_n": n_n,
            "bound_value": n_n * d_r * max(q, 1),
            "thickness_bound_value": n_n * d_r * max(t, 1),
            "measured_over_bound": measured / max(n_n * d_r * max(q, 1), 1),
            "rn": fine.meta.get("rn", 0),
        }
        return CostReport(scheme="ds", q=q, thickness=t, d_r=d_r,
                          measured_total=measured, per_level=[measured],
                          bounds=bounds)
    tree = plan_branching(c, sigma, d_r)
    # L: the most logical qubits one operator acts on
    l_max = max((r.bit_count() for r in z_signature(c, sigma).bits), default=0)
    shapes: dict[int, tuple[int, int]] = {}
    per_level = [0] * tree.nodes[-1].level  # nodes are in level order
    for node in tree.nodes:
        if node.kind == "branch":
            shape = shapes[node.node_id] = _glue_shape(c, sigma, node)
        else:
            shape = shapes[node.parent]
        per_level[node.level - 1] += sticker_qubits(*shape, node.d_r, node.kind)
    total = sum(per_level)
    log_q = max(math.ceil(math.log2(q)), 1)
    bound_value = max(l_max, 1) * d_r * q * (d_r + log_q)
    bounds = {
        "formula": "O(L d q (d + log q))",
        "n_n": n_n,
        "l_max": l_max,
        "bound_value": bound_value,
        "measured_over_bound": total / max(bound_value, 1),
    }
    return CostReport(scheme="bfb", q=q, thickness=t, d_r=d_r,
                      measured_total=total, per_level=per_level,
                      bounds=bounds)
