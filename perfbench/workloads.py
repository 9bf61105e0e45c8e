"""The benchmark's four workloads.

Item i of a workload gets its input from (workload, seed, i) and the
memory codes built in set-up alone, so the same seed gives the same
inputs.  `run` is the timed call into qsticker's public API; `check`
applies the invariants the acceptance suite uses to its output and returns
the problems found; `summary` is the part of the output compared with the
recorded reference.  qsticker is reached through module attributes at call
time, so a tracer's wrappers see every call.
"""

from __future__ import annotations

import random
from dataclasses import replace

from qsticker import bench, glue, io, pauli, sampling, stickers, tableau
from qsticker.codes import OperatorSet, direct_sum, hgp, repetition_check
from qsticker.gf2 import Gf2Matrix, RowReducer
from qsticker.pauli import PauliOp
from qsticker.tableau import StabilizerState

L_MAX = 5


def item_rng(name: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{i}")


def _support_size(sigma: OperatorSet) -> int:
    acc = 0
    for r in sigma.vectors.bits:
        acc |= r
    return acc.bit_count()


def _sampled_sigma(code, q: int, seed: int) -> OperatorSet:
    return sampling.SigmaSampler(code=code, l_max=L_MAX, thickness=q,
                                 max_q=q, seed=seed).sample(q, 0)


class CostDesk:
    """One criterion-8 row per item: a sampled Σ priced by ds and bfb."""

    name = "cost_desk"
    D_R = 6

    def setup(self):
        code = io.desk_code(7)
        return {"code": code, "wmax": code.hx.wmax()}

    def make_input(self, ctx, seed: int, i: int):
        q = 2 + i % 7
        return q, item_rng(self.name, seed, i).randrange(2 ** 31)

    def run(self, ctx, inp):
        q, s = inp
        row = bench.bench_cost(ctx["code"], [q], thickness=q, trials=1, seed=s,
                               l_max=L_MAX, d_r=self.D_R).rows[0]
        return {"q": row["q"], "ds": row["ds"], "bfb": row["bfb"]}

    def summary(self, out):
        return out

    def check(self, ctx, inp, out) -> list[str]:
        q, s = inp
        code, d_r = ctx["code"], self.D_R
        n_n = _support_size(_sampled_sigma(code, q, s))
        # the fine glue holds the naked glue (n_G >= n_N) and obeys the
        # criterion-4 size bounds with rn <= k
        slack = 2 * code.k * (q + 1)
        upper = (d_r - 1) * (n_n + slack) + d_r * (ctx["wmax"] * n_n + slack)
        problems = []
        if out["q"] != q:
            problems.append(f"row q={out['q']}, asked for {q}")
        if not (d_r - 1) * n_n <= out["ds"] <= upper:
            problems.append(f"ds={out['ds']} outside [{(d_r - 1) * n_n}, {upper}]")
        if not isinstance(out["bfb"], int) or out["bfb"] < n_n:
            problems.append(f"bfb={out['bfb']} below n_N={n_n}")
        return problems


class OverlapScale:
    """Redundancy and crowd numbers of one sampled Σ on [[1225,49]]."""

    name = "overlap_scale"

    def setup(self):
        return {"code": io.desk_code(7, 28)}

    def make_input(self, ctx, seed: int, i: int):
        q = 1 + i % 8
        return q, item_rng(self.name, seed, i).randrange(2 ** 31)

    def run(self, ctx, inp):
        q, s = inp
        row = bench.bench_overlap(ctx["code"], [q], trials=1, seed=s,
                                  l_max=L_MAX).rows[0]
        return {"q": row["q"], "mcn": row["mcn"], "rn": row["rn"]}

    def summary(self, out):
        return out

    def check(self, ctx, inp, out) -> list[str]:
        q, s = inp
        code = ctx["code"]
        sigma = _sampled_sigma(code, q, s)
        mcn = max(sum((r >> u) & 1 for r in sigma.vectors.bits)
                  for u in range(code.n))
        problems = []
        if out["q"] != q:
            problems.append(f"row q={out['q']}, asked for {q}")
        if out["mcn"] != mcn:
            problems.append(f"mcn={out['mcn']}, direct count gives {mcn}")
        if not 0 <= out["rn"] <= code.k - q:
            problems.append(f"rn={out['rn']} outside [0, k-q={code.k - q}]")
        return problems


def _random_sigma(rng: random.Random, code, q: int) -> OperatorSet:
    """q independent random combinations of the stored Z logicals."""
    reducer = RowReducer()
    rows = []
    while len(rows) < q:
        acc = 0
        for b in code.jz.bits:
            if rng.random() < 0.5:
                acc ^= b
        if acc and reducer.add(acc):
            rows.append(acc)
    return OperatorSet("Z", Gf2Matrix(rows, code.n))


class SurgeryVerify:
    """Branch and measurement stickers for one Σ, each verified.

    Every tenth item uses one of the small codes of acceptance criterion 3,
    whose deformed codes are small enough for the exhaustive distance check.
    """

    name = "surgery_verify"
    D_BRANCH = 2
    D_MEAS = 4
    SMALL_EVERY = 10

    def setup(self):
        c5 = replace(hgp(repetition_check(2), repetition_check(2)), distance=2)
        small = [
            replace(hgp(repetition_check(3), repetition_check(3)), distance=3),
            c5,
            replace(direct_sum(c5, c5), distance=2),
            replace(direct_sum(direct_sum(c5, c5), c5), distance=2),
            hgp(repetition_check(2), repetition_check(3)),
        ]
        return {"desk": io.desk_code(7), "small": small}

    def make_input(self, ctx, seed: int, i: int):
        rng = item_rng(self.name, seed, i)
        if i % self.SMALL_EVERY == self.SMALL_EVERY - 1:
            small = ctx["small"]
            code = small[(i // self.SMALL_EVERY) % len(small)]
            return code, _random_sigma(rng, code, rng.randrange(1, code.k + 1))
        q = 1 + i % 8
        return ctx["desk"], _sampled_sigma(ctx["desk"], q, rng.randrange(2 ** 31))

    def run(self, ctx, inp):
        code, sigma = inp
        split = glue.split_logicals(code, sigma)
        naked = glue.naked_glue(code, sigma)
        dc_b = stickers.paste_branch(code, split, naked, self.D_BRANCH)
        rep_b = stickers.verify_surgery(dc_b)
        fine = glue.finely_devised_glue(code, sigma, split=split)
        dc_m = stickers.paste_measurement(code, split, fine, self.D_MEAS)
        rep_m = stickers.verify_surgery(dc_m)
        return {"naked": naked, "fine": fine, "branch": (dc_b, rep_b),
                "measurement": (dc_m, rep_m)}

    def summary(self, out):
        record = {"glue": [out["naked"].n_g, out["naked"].r_g,
                           out["fine"].n_g, out["fine"].r_g]}
        for kind in ("branch", "measurement"):
            dc, rep = out[kind]
            record[kind] = {"n": dc.n, "k": dc.k,
                            "statements": [[s.name, s.status]
                                           for s in rep.statements]}
        return record

    def check(self, ctx, inp, out) -> list[str]:
        code, sigma = inp
        q = sigma.size
        fine = out["fine"]
        problems = []
        if fine.devisedness != "fine":
            problems.append(f"fine glue is {fine.devisedness!r}")
        n_n, rn = fine.meta["n_n"], fine.meta["rn"]
        wmax_hx = code.hx.wmax()
        bounds = {
            "n_G": fine.n_g <= n_n + 2 * rn * (q + 1),
            "r_G": fine.r_g <= wmax_hx * n_n + 2 * rn * (q + 1),
            "wmax(H_G)": fine.hg.wmax() <= max(wmax_hx + 1, 3),
            "wmax(S)": fine.s.wmax() == 1,
            "wmax(T)": fine.t.wmax() == 1,
        }
        problems += [f"glue bound {b} violated" for b, ok in bounds.items() if not ok]
        for kind, k_want in (("branch", code.k), ("measurement", code.k - q)):
            dc, rep = out[kind]
            if dc.k != k_want:
                problems.append(f"{kind} deformed k={dc.k}, want {k_want}")
            problems += [f"{kind} statement {s.name}: {s.status}"
                         for s in rep.statements
                         if s.status not in ("pass", "skipped")]
        return problems


def _random_state(rng: random.Random, n: int, css: bool) -> StabilizerState:
    """A random stabilizer state from |0...0> by a random Clifford circuit.

    With css=True only H (first) and CNOT gates are used, so every
    generator stays X-type or Z-type and any set of products is regular.
    """
    state = StabilizerState.zero_state(n)
    if css:
        for t in range(n):
            if rng.random() < 0.5:
                state.apply_h(t)
        gates = ["cnot"] * (2 * n)
    else:
        gates = [rng.choice(["h", "s", "cnot"]) for _ in range(3 * n)]
    for g in gates:
        if g == "h":
            state.apply_h(rng.randrange(n))
        elif g == "s":
            state.apply_s(rng.randrange(n))
        else:
            c = rng.randrange(n)
            state.apply_cnot(c, (c + 1 + rng.randrange(n - 1)) % n)
    return state


def _theta(rng: random.Random, source: StabilizerState, count: int) -> list[PauliOp]:
    """count independent products of source generators, random signs."""
    n = source.n
    reducer = RowReducer()
    theta = []
    while len(theta) < count:
        op = PauliOp.identity(n)
        for g in rng.sample(source.gens, rng.randint(1, min(4, n))):
            op = op.mul(g)
        if reducer.add(op.x | (op.z << n)):
            theta.append(op.negate() if rng.random() < 0.5 else op)
    return theta


def simulate(theta: list[PauliOp], memory: StabilizerState, outcome_seed: int,
             oracle=None):
    """The `simulate` command's path: regularise, plan, run, factor out.

    `oracle(plan, initial)` is called on every round when given.
    """
    groups = ([theta] if pauli.is_regular(theta)
              else [g for g in pauli.regularise(theta) if g])
    state = memory
    rounds = []
    for group in groups:
        plan = pauli.build_measurement_plan(group)
        initial = tableau.plan_initial_state(plan, state)
        if oracle is not None:
            oracle(plan, initial)
        res = tableau.simulate_plan(plan, initial, outcome_seed=outcome_seed)
        rounds.append((group, res.raw_outcomes, res.op_outcomes))
        state = tableau.memory_factor(res.final, memory.n)
    return {"rounds": rounds, "final": state}


def remeasure_problems(out) -> list[str]:
    """Each reported outcome must be the determined sign on the final memory."""
    problems = []
    for r, (group, _, outcomes) in enumerate(out["rounds"]):
        for j, (op, want) in enumerate(zip(group, outcomes)):
            try:
                got, _ = out["final"].copy().measure(op)
            except ValueError:
                problems.append(f"round {r} operator {j} is not determined")
                continue
            if got != want:
                problems.append(f"round {r} operator {j}: reported {want}, "
                                f"re-measured {got}")
    return problems


def oracle_problems(plan, initial) -> list[str]:
    """Compare every tableau branch of a plan with the projector oracle."""
    seq = tableau.plan_measurement_sequence(plan)
    oracle = {b.outcomes: b for b in tableau.projector_oracle(seq, initial)}
    branches = tableau.enumerate_plan_branches(plan, initial)
    if set(oracle) != {b.raw_outcomes for b in branches}:
        return ["tableau and oracle branch sets differ"]
    problems = []
    for tb in branches:
        ob = oracle[tb.raw_outcomes]
        if tb.probability != ob.probability:
            problems.append(f"branch {tb.raw_outcomes}: probability "
                            f"{tb.probability} vs oracle {ob.probability}")
        vec = ob.state
        for j in tb.corrections_applied:
            vec = tableau.dense_apply_pauli(vec, plan.corrections[j])
        if not all(tableau.dense_stabilized_by(vec, g) for g in tb.final.gens):
            problems.append(f"branch {tb.raw_outcomes}: final state differs "
                            "from the oracle's")
    return problems


class ProtocolSim:
    """One commuting set Θ (1..8 operators) per item on a 64-qubit memory.

    Θ is drawn from the stabilizer group of a random source state.  Every
    third item uses a CSS source, so Θ is regular; the others are regular
    unless some X part meets another operator's Z part oddly, which holds
    for about one item in seven, so `regularise` runs.
    """

    name = "protocol_sim"
    N_MEMORY = 64
    ORACLE_ITEMS = 4

    def setup(self):
        return {"states": {}}

    def _input(self, ctx, seed: int, i: int, n: int, count: int):
        # memory and source states are input too: drawn once per (seed, n)
        states = ctx["states"]
        if (seed, n) not in states:
            rng = item_rng(self.name + ":states", seed, n)
            states[seed, n] = (_random_state(rng, n, css=False),
                               _random_state(rng, n, css=True),
                               _random_state(rng, n, css=False))
        memory, css, general = states[seed, n]
        rng = item_rng(self.name, seed, i)
        source = css if i % 3 == 0 else general
        return _theta(rng, source, count), memory, rng.randrange(2 ** 31)

    def make_input(self, ctx, seed: int, i: int):
        return self._input(ctx, seed, i, self.N_MEMORY, 1 + i % 8)

    def run(self, ctx, inp):
        return simulate(*inp)

    def summary(self, out):
        return {"rounds": [[[op.key() for op in group], list(raw), list(outs)]
                           for group, raw, outs in out["rounds"]],
                "final": [g.key() for g in out["final"].gens]}

    def check(self, ctx, inp, out) -> list[str]:
        return remeasure_problems(out)

    def oracle_checks(self, ctx, seed: int) -> list[list[str]]:
        """Problems of small items (<= 4 memory qubits, <= 3 operators, so at
        most 7 qubits per round) checked against the projector oracle."""
        results = []
        for j in range(self.ORACLE_ITEMS):
            problems: list[str] = []
            try:
                inp = self._input(ctx, seed, -1 - j, 2 + j % 3, 1 + j % 3)
                out = simulate(*inp, oracle=lambda plan, initial: problems.extend(
                    oracle_problems(plan, initial)))
                problems += remeasure_problems(out)
            except Exception as exc:  # counted as a failed item
                problems.append(f"{type(exc).__name__}: {exc}")
            results.append(problems)
        return results


WORKLOADS = {w.name: w for w in (CostDesk(), OverlapScale(), SurgeryVerify(),
                                  ProtocolSim())}
