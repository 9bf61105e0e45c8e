"""Branch-tree planning, sequential assembly, and qubit-cost reports."""

import hashlib
import math
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from qsticker.codes import (
    OperatorSet,
    direct_sum,
    hgp,
    repetition_check,
    validate_code,
)
from qsticker.gf2 import Gf2Matrix, solve_left
from qsticker.glue import GlueError
from qsticker.branching import (
    _glue_shape,
    assemble_plan,
    estimate_qubit_cost,
    plan_branching,
)
from qsticker.io import desk_code
from qsticker.sampling import SigmaSampler
from qsticker.stickers import paste_measurement, sticker_qubits
from qsticker.tanner import induced_subgraph


def blocks(count, distance=2):
    c5 = replace(hgp(repetition_check(2), repetition_check(2)), distance=2)
    code = c5
    for _ in range(count - 1):
        code = direct_sum(code, c5)
    return replace(code, distance=distance)


def sigma_from_indices(code, *index_sets):
    rows = []
    for idxs in index_sets:
        acc = 0
        for i in idxs:
            acc ^= code.jz.bits[i]
        rows.append(acc)
    return OperatorSet("Z", Gf2Matrix(rows, code.n))


def test_tree_arithmetic_q4():
    c = blocks(4)
    s = sigma_from_indices(c, (0,), (1,), (2,), (3,))
    tree = plan_branching(c, s)
    assert tree.levels == 2
    assert len(tree.nodes) == 6 + 4  # S1..S6, then one measurement each
    assert [n.kind for n in tree.nodes] == ["branch"] * 6 + ["measurement"] * 4
    assert [len([n for n in tree.nodes if n.level == level])
            for level in (1, 2, 3)] == [2, 4, 4]
    leaves = tree.nodes[6:]
    assert [n.ops for n in leaves] == [(0,), (1,), (2,), (3,)]
    assert all(tree.nodes[n.parent].ops == n.ops and n.d_r == c.distance
               for n in leaves)


def test_tree_arithmetic_q2_and_q5():
    c2 = blocks(2)
    t2 = plan_branching(c2, sigma_from_indices(c2, (0,), (1,)))
    assert t2.levels == 1 and len(t2.nodes) == 2 + 2

    c5 = blocks(5)
    t5 = plan_branching(c5, sigma_from_indices(c5, (0,), (1,), (2,), (3,), (4,)))
    assert t5.levels == 3
    leaves = [n for n in t5.nodes if n.kind == "measurement"]
    assert [n.ops for n in leaves] == [(i,) for i in range(5)]
    # {2}, {3} and {4} become singletons at level 2 and ride along
    # unsplit, yet every measurement goes at level 4
    assert [t5.nodes[n.parent].level for n in leaves] == [3, 3, 2, 2, 2]
    assert all(n.level == 4 for n in leaves)


def test_tree_rejects_single_operator():
    c = blocks(2)
    with pytest.raises(GlueError):
        plan_branching(c, sigma_from_indices(c, (0,)))


def test_assemble_q2_measures_both():
    c = blocks(2)
    s = sigma_from_indices(c, (0,), (1,))
    plan = assemble_plan(c, s)
    final = plan.final_code
    assert final.k == c.k - 2
    assert validate_code(final).ok
    # both original operators are stabilisers of the final code
    padded = s.vectors.hstack(Gf2Matrix.zeros(2, final.n - c.n))
    assert solve_left(final.hz, padded) is not None


def test_assemble_q2_overlapping_operators():
    # Z1 and Z1 Z2 share the first block's support
    c = blocks(2)
    s = sigma_from_indices(c, (0,), (0, 1))
    plan = assemble_plan(c, s)
    final = plan.final_code
    assert final.k == c.k - 2
    padded = s.vectors.hstack(Gf2Matrix.zeros(2, final.n - c.n))
    assert solve_left(final.hz, padded) is not None
    # surviving logicals pair correctly
    assert final.jx.mul_transpose(final.jz) == Gf2Matrix.identity(final.k)


def test_assemble_leaf_level_incidence_is_one():
    c = blocks(2)
    s = sigma_from_indices(c, (0,), (1,))
    plan = assemble_plan(c, s)
    assert plan.incidence[plan_branching(c, s).levels + 1] <= 1


def test_assemble_q3_multi_level_with_passthrough():
    # q=3 exercises two branch levels and a singleton that stops early
    c = blocks(3)
    s = sigma_from_indices(c, (0,), (1,), (0, 2))
    plan = assemble_plan(c, s)
    final = plan.final_code
    assert final.k == c.k - 3
    assert validate_code(final).ok
    padded = s.vectors.hstack(Gf2Matrix.zeros(3, final.n - c.n))
    assert solve_left(final.hz, padded) is not None
    assert plan.incidence[3] <= 1  # two branch levels, then measurement
    assert len(plan.pastes) == 4 + 3  # 4 branch nodes + 3 leaves


def test_cost_ds_single_operator():
    c = blocks(1)
    s = sigma_from_indices(c, (0,))
    rep = estimate_qubit_cost(c, s, "ds")
    fine_n_g = rep.per_level[0]
    assert rep.measured_total == fine_n_g  # single sticker, one level
    assert rep.bounds["bound_value"] == len(
        [j for j in range(c.n) if s.vectors.bits[0] >> j & 1]
    ) * c.distance * 1
    assert rep.measured_total > 0


def test_cost_ds_not_more_than_bfb_on_toy_code():
    c = blocks(4)
    s = sigma_from_indices(c, (0,), (1,), (2,), (3,))
    ds = estimate_qubit_cost(c, s, "ds")
    bfb = estimate_qubit_cost(c, s, "bfb")
    assert ds.measured_total <= bfb.measured_total


def test_cost_bfb_levels_shrink_geometrically():
    c = blocks(8)
    s = sigma_from_indices(c, *[(i,) for i in range(8)])
    bfb = estimate_qubit_cost(c, s, "bfb")
    # per-operator branch population halves per level: totals level 1
    # and level 2 cover the same supports, later levels never grow
    assert len(bfb.per_level) >= 3
    assert bfb.per_level[-1] >= bfb.per_level[0]  # leaves carry the d factor


def test_cost_respects_formula_bounds():
    c = blocks(4)
    s = sigma_from_indices(c, (0,), (1,), (2, 3), (3,))
    ds = estimate_qubit_cost(c, s, "ds")
    assert ds.measured_total <= ds.bounds["bound_value"] * 4
    bfb = estimate_qubit_cost(c, s, "bfb")
    assert bfb.measured_total <= bfb.bounds["bound_value"] * 8


def test_cost_requires_distance_or_dr():
    c = replace(blocks(2), distance=None)
    s = sigma_from_indices(c, (0,), (1,))
    with pytest.raises(ValueError):
        estimate_qubit_cost(c, s, "ds")
    rep = estimate_qubit_cost(c, s, "ds", d_r=3)
    assert rep.d_r == 3


def test_cost_bfb_first_level_is_naked_glue_of_each_half():
    # the module docstring's claim: a level-1 branch sticker at d_R = 2
    # costs n_G + r_G of the naked glue on its half of Σ
    from qsticker.glue import naked_glue
    from qsticker.io import desk_code
    from qsticker.sampling import SigmaSampler

    code = desk_code(7)
    sampler = SigmaSampler(code=code, l_max=5, thickness=8, max_q=8, seed=13)
    for trial in range(2):
        for q in (2, 3, 5, 8):
            sigma = sampler.sample(q, trial)
            rows = sigma.vectors.bits
            half = (q + 1) // 2
            want = 0
            for part in (rows[:half], rows[half:]):
                glue = naked_glue(code, OperatorSet("Z", Gf2Matrix(part, code.n)))
                want += glue.n_g + glue.r_g
            rep = estimate_qubit_cost(code, sigma, "bfb", d_r=6)
            assert rep.per_level[0] == want


def test_cost_pair_makes_no_solves(monkeypatch):
    # logical classes are J_X signatures and the glue classification is
    # two span-membership tests, so a ds + bfb cost pair solves nothing
    import sys

    from qsticker import gf2, glue
    from qsticker.io import desk_code
    from qsticker.sampling import SigmaSampler

    real = gf2.solve_left
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "qsticker" and vars(mod).get("solve_left") is real:
            monkeypatch.setattr(mod, "solve_left", counting)
    code = desk_code(3)
    sigma = SigmaSampler(code=code, l_max=5, thickness=4, max_q=4, seed=1).sample(4)
    estimate_qubit_cost(code, sigma, "ds", d_r=6)
    estimate_qubit_cost(code, sigma, "bfb", d_r=6)
    assert len(calls) == 0
    # the counter is live: a measurement paste solves for γ
    split = glue.split_logicals(code, sigma)
    fine = glue.finely_devised_glue(code, sigma, split=split)
    paste_measurement(code, split, fine, 2)
    assert calls[0][0] == fine.hg


# -- bfb pricing by the plan tree against the induced-subgraph recursion ----


def bfb_sizes_by_recursion(h, reps, level, d_meas, per_level, leaf_level):
    """Brute-force-branching cost by recursion on induced glue graphs.

    Each node's operators are restricted to its glue bits and split again
    on the induced matrix, so every level re-derives its own subgraph.
    Every singleton's measurement sticker is charged at `leaf_level`.
    """
    support = 0
    for r in reps:
        support |= r
    induced, cols, rows = induced_subgraph(h, support)
    n_g, r_g = len(cols), len(rows)
    branch_qubits = sticker_qubits(n_g, r_g, 2, "branch")
    per_level[level] = per_level.get(level, 0) + branch_qubits
    total = branch_qubits
    if len(reps) >= 2:
        restricted = Gf2Matrix(reps, h.cols).take_cols(cols).bits
        half = (len(reps) + 1) // 2
        for part in (restricted[:half], restricted[half:]):
            total += bfb_sizes_by_recursion(induced, part, level + 1, d_meas,
                                            per_level, leaf_level)
    else:
        meas = sticker_qubits(n_g, r_g, d_meas, "measurement")
        per_level[leaf_level] = per_level.get(leaf_level, 0) + meas
        total += meas
    return total


def bfb_report_by_recursion(code, sigma, d_r):
    """The bfb report with its total and levels from the recursion."""
    rep = estimate_qubit_cost(code, sigma, "bfb", d_r=d_r).to_report()
    reps = sigma.vectors.bits
    half = (len(reps) + 1) // 2
    per_level = {}
    leaf_level = math.ceil(math.log2(len(reps))) + 1
    total = sum(bfb_sizes_by_recursion(code.hx, part, 1, d_r, per_level,
                                       leaf_level)
                for part in (reps[:half], reps[half:]))
    rep["measured_total"] = total
    rep["per_level"] = [per_level[level] for level in sorted(per_level)]
    rep["bounds"]["measured_over_bound"] = total / max(
        rep["bounds"]["bound_value"], 1)
    return rep


@lru_cache(maxsize=None)
def small_code(name):
    if name.startswith("blocks"):
        return blocks(int(name[6:]))
    seed, n1 = map(int, name[4:].split(","))
    return desk_code(seed, n1)


@st.composite
def bfb_cases(draw):
    """A small memory and 2..8 Z logicals, some dressed by stabilisers."""
    code = small_code(draw(st.sampled_from(
        ["blocks3", "blocks5", "desk5,8", "desk3,12", "desk7,16"])))
    rows = []
    for _ in range(draw(st.integers(2, min(code.k, 8)))):
        idxs = draw(st.sets(st.integers(0, code.k - 1), min_size=1, max_size=4))
        row = 0
        for i in idxs:
            row ^= code.jz.bits[i]
        for i in draw(st.sets(st.integers(0, code.hz.rows - 1), max_size=3)):
            row ^= code.hz.bits[i]
        rows.append(row)
    return code, OperatorSet("Z", Gf2Matrix(rows, code.n)), draw(st.integers(2, 6))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(bfb_cases())
def test_bfb_tree_walk_matches_the_recursion(case):
    code, sigma, d_r = case
    rep = estimate_qubit_cost(code, sigma, "bfb", d_r=d_r).to_report()
    assert rep == bfb_report_by_recursion(code, sigma, d_r)


def test_bfb_report_golden_digest():
    """SHA-256 of bfb reports over a sampler sweep on desk_code(7).

    The full reports were recorded with every measurement sticker at
    level ceil(log2 q) + 1.  The reports without `per_level` digest as
    they did when a ride-along singleton's measurement was charged at its
    own level + 1: moving it changed only the split by level.
    """
    code = desk_code(7)
    digest = hashlib.sha256()
    without_levels = hashlib.sha256()
    for seed in (1, 2):
        for t in (1, 2, 8):
            sampler = SigmaSampler(code=code, l_max=5, thickness=t, max_q=8,
                                   seed=seed)
            for trial in range(2):
                for q in range(2, 9):
                    rep = estimate_qubit_cost(code, sampler.sample(q, trial),
                                              "bfb", thickness=t,
                                              d_r=3 + 3 * trial)
                    report = rep.to_report()
                    digest.update(repr(report).encode())
                    del report["per_level"]
                    without_levels.update(repr(report).encode())
    assert digest.hexdigest() == (
        "4cd21cdbfb7c9e25a1609d3e0cac9746b92231fdbf6500ebbe5a5cce188c3ffa")
    assert without_levels.hexdigest() == (
        "a593be7e60e865234d9448fc1c7966b42f8150e7e230cbee3a1e334f8aa19f4d")


def _assembly_cases():
    c = blocks(3)
    yield c, sigma_from_indices(c, (0,), (1,), (0, 2))
    c = blocks(4)
    yield c, sigma_from_indices(c, (0, 1), (1,), (2, 3), (3,))
    for name in ("desk5,8", "desk7,8", "desk3,12"):
        code = small_code(name)
        for t in (1, 2):
            sampler = SigmaSampler(code=code, l_max=3, thickness=t, max_q=5,
                                   seed=t)
            for q in (2, 3, 5):
                yield code, sampler.sample(q, 0)


def test_bfb_prices_each_branch_paste_of_the_assembly():
    """The assembly pastes one sticker per plan node, of the node's kind
    and d_R.  Branch prices are exact, so every branch level of
    `per_level` is what the assembly adds there; the measurement level is
    a lower bound (leaves are priced at their naked glue)."""
    c5 = blocks(5)
    cases = [*_assembly_cases(),
             (c5, sigma_from_indices(c5, *[(i,) for i in range(5)]))]
    nodes = 0
    for code, sigma in cases:
        tree = plan_branching(code, sigma, 2)
        plan = assemble_plan(code, sigma, 2)
        assert len(plan.pastes) == len(tree.nodes)
        added = [0] * (tree.levels + 1)
        for node, dc in zip(tree.nodes, plan.pastes):
            assert (dc.kind, dc.d_r) == (node.kind, node.d_r)
            added[node.level - 1] += dc.n - dc.mem_qubits
            if node.kind == "branch":
                price = sticker_qubits(*_glue_shape(code, sigma, node),
                                       node.d_r, "branch")
                assert dc.n - dc.mem_qubits == price
            nodes += 1
        per_level = estimate_qubit_cost(code, sigma, "bfb", d_r=2).per_level
        assert len(per_level) == tree.levels + 1
        assert per_level[:-1] == added[:-1]
        assert per_level[-1] <= added[-1]
    assert nodes >= 150


def test_assembly_golden_digest():
    """SHA-256 of every paste's six matrices and J_G over the assembly
    cases and five [[5,1]] blocks.

    The value was recorded while each branch paste still solved for its
    glue codewords over a kernel basis of H_G and the assembly solved
    again for every branch node's representatives.
    """
    c5 = blocks(5)
    cases = [*_assembly_cases(),
             (c5, sigma_from_indices(c5, *[(i,) for i in range(5)]))]
    digest = hashlib.sha256()
    for code, sigma in cases:
        for dc in assemble_plan(code, sigma, 2).pastes:
            m = dc.code
            digest.update(repr((
                dc.n, m.hx.bits, m.hz.bits, m.jx.bits, m.jz.bits, m.fx.bits,
                m.fz.bits, dc.j_g.bits if dc.j_g is not None else None,
            )).encode())
    assert digest.hexdigest() == (
        "28551655542529fdd12e1f7d84f849fa4056db6c3371923e48c1b0a6acf665f9")


def test_bfb_measures_ride_along_leaves_in_the_last_round():
    # five [[5,1]] blocks, one operator each: {2}, {3} and {4} form at
    # level 2, and all five measurement stickers go at level 4
    c = blocks(5)
    rep = estimate_qubit_cost(c, sigma_from_indices(c, *[(i,) for i in range(5)]),
                              "bfb")
    assert rep.per_level == [15, 15, 6, 20]
    assert rep.measured_total == 56


def test_bfb_prices_each_support_once(monkeypatch):
    from qsticker import branching

    calls = []

    def counting(*args):
        calls.append(args)
        return _glue_shape(*args)

    monkeypatch.setattr(branching, "_glue_shape", counting)
    code = small_code("desk5,8")
    sampler = SigmaSampler(code=code, l_max=3, thickness=2, max_q=5, seed=2)
    for q in (2, 3, 5):
        sigma = sampler.sample(q, 0)
        calls.clear()
        estimate_qubit_cost(code, sigma, "bfb", d_r=3)
        tree = plan_branching(code, sigma, 3)
        assert len(calls) == sum(n.kind == "branch" for n in tree.nodes)
        assert len(calls) < len(tree.nodes)


def test_cost_rejects_dr_below_two():
    c = blocks(2)
    s = sigma_from_indices(c, (0,), (1,))
    for scheme in ("ds", "bfb"):
        for d_r in (1, 0):
            with pytest.raises(ValueError, match="at least 2"):
                estimate_qubit_cost(c, s, scheme, d_r=d_r)
