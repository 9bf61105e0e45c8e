"""Brute-force branching plans and qubit-cost accounting.

Branching separates q overlapping logical operators through
ceil(log2 q) levels of branch stickers: a subset of size >= 2 splits
into two halves, each half gets a branch sticker pasted on the previous
level's open boundary, and once every path carries a single operator a
measurement sticker is pasted on its final open boundary.

Assembly is sequential (each paste turns the deformed code into the new
memory).  Cost estimation avoids full assembly and walks the same plan
tree: a node's sticker is sized by the naked glue of the memory's H_X
on S, the union of the supports of the node's operators.  That is
exact.  A transferred representative on an open boundary is the parent
glue codeword restricted to the parent's support, and the X-checks
adjacent to the boundary block are exactly the parent glue checks, so
each paste sees the induced subgraph of its parent's glue.  For
S' ⊆ S every check meeting S' also meets S, so the induced subgraph of
the induced subgraph on S is the induced subgraph of H_X on S'.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .codes import OperatorSet, SubsystemCode, support_union
from .errors import InternalError
from .gf2 import Gf2Matrix, solve_left
from .glue import GlueError, finely_devised_glue, naked_glue, split_logicals
from .stickers import DeformedCode, paste_branch, paste_measurement, sticker_qubits


@dataclass(frozen=True)
class BranchNode:
    node_id: int
    level: int
    parent: int | None  # None = pasted on the memory itself
    ops: tuple[int, ...]
    d_r: int = 2


@dataclass(frozen=True)
class BranchTree:
    q: int
    levels: int
    nodes: tuple[BranchNode, ...]  # level order, then id order
    measure_d_r: int

    def leaf_nodes(self) -> list[BranchNode]:
        """The singleton nodes where measurement stickers attach."""
        return [n for n in self.nodes if len(n.ops) == 1]


def plan_branching(c: SubsystemCode, sigma: OperatorSet,
                   measure_d_r: int | None = None) -> BranchTree:
    """Binary split tree over the operator indices (branch d_r fixed to 2).

    Subsets of size >= 2 split ceil/floor at the next level; both
    children get branch stickers even when singleton.  Already-singleton
    subsets ride along unsplit.  Leaf measurement stickers use the
    memory distance when known.
    """
    q = sigma.size
    if q < 2:
        raise GlueError("branching needs q >= 2; use devised sticking directly")
    if measure_d_r is None:
        measure_d_r = c.distance if c.distance is not None else 2
    nodes: list[BranchNode] = []
    next_id = 0
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
                node = BranchNode(node_id=next_id, level=level,
                                  parent=parent, ops=part)
                nodes.append(node)
                next_id += 1
                new_frontier.append((node.node_id, part))
        frontier = new_frontier
    tree = BranchTree(q=q, levels=level, nodes=tuple(nodes),
                      measure_d_r=measure_d_r)
    if tree.levels != math.ceil(math.log2(q)):
        raise InternalError(f"branch tree has {tree.levels} levels for q={q} (bug)")
    if len(tree.leaf_nodes()) != q:
        raise InternalError(f"branch tree has {len(tree.leaf_nodes())} leaves "
                            f"for q={q} (bug)")
    return tree


@dataclass
class AssembledPlan:
    final: DeformedCode
    pastes: list[DeformedCode]
    incidence: dict[int, int]  # level -> max stickers touching one qubit
    leaf_level: int

    @property
    def final_code(self) -> SubsystemCode:
        return self.final.code


def assemble_plan(c: SubsystemCode, sigma: OperatorSet,
                  tree: BranchTree | None = None) -> AssembledPlan:
    """Paste the whole tree sequentially and then measure every leaf.

    Tracks a representative of each operator through the transfers
    (padded old representative plus the glue codeword on the open
    boundary differs from it by a deformed-code stabiliser).
    """
    if tree is None:
        tree = plan_branching(c, sigma)
    current = c
    reps: dict[int, int] = {i: sigma.vectors.bits[i] for i in range(sigma.size)}
    pastes: list[DeformedCode] = []
    incidence_sets: dict[int, list[tuple[int, ...]]] = {}

    for node in tree.nodes:
        rows = Gf2Matrix([reps[i] for i in node.ops], current.n)
        node_sigma = OperatorSet("Z", rows)
        split = split_logicals(current, node_sigma)
        glue = naked_glue(current, node_sigma)
        incidence_sets.setdefault(node.level, []).append(glue.b_n)
        dc = paste_branch(current, split, glue, node.d_r)
        pastes.append(dc)
        # per-operator transfer: sigma = coeff @ jza exactly, so the new
        # representative is the matching combination of glue codewords
        coeff = solve_left(split.jza, rows)
        if coeff is None:
            raise InternalError("representative lost jza span (bug)")
        transferred = coeff.mul(dc.j_g)
        lo, _ = dc.ob_range
        for pos, i in enumerate(node.ops):
            reps[i] = transferred.bits[pos] << lo
        current = dc.code
        # representatives of other operators keep their (padded) indices
    leaf_level = tree.levels + 1
    for i in range(sigma.size):
        rows = Gf2Matrix([reps[i]], current.n)
        leaf_sigma = OperatorSet("Z", rows)
        split = split_logicals(current, leaf_sigma)
        glue = finely_devised_glue(current, leaf_sigma, split=split)
        incidence_sets.setdefault(leaf_level, []).append(glue.b_n)
        dc = paste_measurement(current, split, glue, tree.measure_d_r)
        pastes.append(dc)
        current = dc.code

    incidence: dict[int, int] = {}
    for level, sets in incidence_sets.items():
        counts: dict[int, int] = {}
        for b_n in sets:
            for qubit in b_n:
                counts[qubit] = counts.get(qubit, 0) + 1
        incidence[level] = max(counts.values(), default=0)
    return AssembledPlan(final=pastes[-1], pastes=pastes,
                         incidence=incidence, leaf_level=leaf_level)


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
    return support.bit_count(), sum(1 for row in c.hx.bits if row & support)


def _logical_support_sizes(c: SubsystemCode, sigma: OperatorSet) -> list[int]:
    """Per-operator count of logical qubits acted on (for the L constant)."""
    if not c.hx.mul_transpose(sigma.vectors).is_zero():
        raise GlueError("sigma rows are not logical representatives")
    return [r.bit_count() for r in sigma.vectors.mul_transpose(c.jx).bits]


def estimate_qubit_cost(c: SubsystemCode, sigma: OperatorSet, scheme: str,
                        thickness: int | None = None,
                        d_r: int | None = None) -> CostReport:
    """Sticker-qubit totals for devised sticking or brute-force branching.

    ds: one measurement sticker from the fine glue with repetition
    length d_r (= memory distance by default).  bfb: the branch sticker
    of each `plan_branching` node at the node's d_R, plus a measurement
    sticker of length d_r on each singleton node, one level below it.
    Each sticker is sized by the naked glue of the memory's H_X on the
    node's support, which is what `assemble_plan` pastes there (see the
    module docstring for why that is exact).
    """
    if scheme not in ("ds", "bfb"):
        raise ValueError("scheme must be 'ds' or 'bfb'")
    if d_r is None:
        d_r = c.distance
    if d_r is None:
        raise ValueError("d_r is required when the memory distance is unknown")
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
    tree = plan_branching(c, sigma)
    l_max = max(_logical_support_sizes(c, sigma), default=0)
    per_level: Counter[int] = Counter()
    for node in tree.nodes:
        n_g, r_g = _glue_shape(c, sigma, node)
        per_level[node.level] += sticker_qubits(n_g, r_g, node.d_r, "branch")
        if len(node.ops) == 1:
            # the leaf measurement sticker covers the node's whole glue
            per_level[node.level + 1] += sticker_qubits(n_g, r_g, d_r,
                                                        "measurement")
    total = sum(per_level.values())
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
                      measured_total=total,
                      per_level=[per_level[l] for l in sorted(per_level)],
                      bounds=bounds)
