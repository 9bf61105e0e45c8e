"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value is either asserted directly (forced by
construction), recomputed by an independent brute-force oracle inside
this module, or checked against the stated bound.  Budgets are the
stated wall-clock limits.
"""

import itertools
import random
import time
from dataclasses import replace

import numpy as np

from qsticker.bench import bench_cost, bench_overlap
from qsticker.codes import (
    OperatorSet,
    crowd_numbers,
    css_code,
    direct_sum,
    exact_distance,
    hgp,
    redundancy_number,
    repetition_check,
    validate_code,
)
from qsticker.gf2 import Gf2Matrix, kernel_basis, rank, row_basis
from qsticker.glue import finely_devised_glue, naked_glue, split_logicals
from qsticker.io import desk_code, random_regular_ldpc
from qsticker.pauli import PauliOp, build_measurement_plan, is_regular, regularise
from qsticker.sampling import SigmaSampler
from qsticker.stickers import paste_branch, paste_measurement, verify_surgery
from qsticker.tableau import (
    StabilizerState,
    dense_apply_pauli,
    dense_from_state,
    dense_stabilized_by,
    enumerate_plan_branches,
    plan_initial_state,
    plan_measurement_sequence,
    projector_oracle,
)
from qsticker.tanner import bit_duplication, check_duplication


def sigma_from_indices(code, *index_sets):
    rows = []
    for idxs in index_sets:
        acc = 0
        for i in idxs:
            acc ^= code.jz.bits[i]
        rows.append(acc)
    return OperatorSet("Z", Gf2Matrix(rows, code.n))


def span_vectors(m):
    out = {0}
    for b in row_basis(m).bits:
        out |= {v ^ b for v in out}
    return out


def report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


# -- 1. subsystem-code axiom suite --------------------------------------


def test_criterion_1_axiom_suite():
    t0 = time.time()
    codes = []
    for m, n in itertools.product((2, 3, 4), repeat=2):
        codes.append(hgp(repetition_check(m), repetition_check(n)))
    for seed in (7, 8, 9):
        h = random_regular_ldpc(16, 3, 4, seed)
        codes.append(hgp(h, h))
    failures = []
    for c in codes:
        rep = validate_code(c)
        if not rep.ok:
            failures.append((c.name, [f.name for f in rep.failures()]))
    elapsed = time.time() - t0
    report(1, not failures and elapsed < 5.0,
           f"{len(codes)} HGP codes, all axioms exact, {elapsed:.2f}s (< 5s)")


# -- 2. distance theorem, exhaustive ------------------------------------


def test_criterion_2_deformed_distance():
    t0 = time.time()
    details = []
    # named instance: [[13,1,3]] with fine glue; q = k so the deformed
    # code has k = 0 and the bound is certified by exhausting all
    # weights below it without finding a logical error
    c13 = replace(hgp(repetition_check(3), repetition_check(3)), distance=3)
    s = sigma_from_indices(c13, (0,))
    split = split_logicals(c13, s)
    fine = finely_devised_glue(c13, s, split=split)
    assert fine.s_norm == 1
    for d_r in (2, 3):
        inst0 = time.time()
        dc = paste_measurement(c13, split, fine, d_r)
        bound = min(c13.distance // fine.s_norm, d_r)
        res = exact_distance(dc.code, cap=max(bound, 4))
        ok = (res.value is None and "k=0" in res.note) or res.value >= bound
        details.append(f"[[13,1,3]] d_R={d_r}: k=0, no logical error, "
                       f"bound {bound} vacuous-exact")
        assert ok and time.time() - inst0 < 60.0
    # non-vacuous sibling: two-block [[10,2,2]] memory, q=1 leaves k=1
    c5 = replace(hgp(repetition_check(2), repetition_check(2)), distance=2)
    c10 = replace(direct_sum(c5, c5), distance=2)
    s1 = sigma_from_indices(c10, (0,))
    split1 = split_logicals(c10, s1)
    fine1 = finely_devised_glue(c10, s1, split=split1)
    for d_r in (2, 3):
        inst0 = time.time()
        dc = paste_measurement(c10, split1, fine1, d_r)
        bound = min(c10.distance // fine1.s_norm, d_r)
        res = exact_distance(dc.code, cap=6)
        assert res.exact and res.value >= bound
        details.append(f"[[10,2,2]] d_R={d_r}: exhaustive d={res.value} >= {bound}")
        assert time.time() - inst0 < 60.0
    report(2, True, "; ".join(details) + f" ({time.time() - t0:.2f}s)")


# -- 3. lattice-surgery statement suite -----------------------------------


def _random_sigma(rng, code, q):
    rows = []
    guard = 0
    while len(rows) < q and guard < 200:
        guard += 1
        acc = 0
        for b in code.jz.bits:
            if rng.random() < 0.5:
                acc ^= b
        if not acc:
            continue
        if rank(Gf2Matrix(rows + [acc], code.n)) == len(rows) + 1:
            rows.append(acc)
    return OperatorSet("Z", Gf2Matrix(rows, code.n)) if len(rows) == q else None


def test_criterion_3_gls_suite():
    t0 = time.time()
    rng = random.Random(2468)
    c5 = replace(hgp(repetition_check(2), repetition_check(2)), distance=2)
    pool = [
        replace(hgp(repetition_check(3), repetition_check(3)), distance=3),
        c5,
        replace(direct_sum(c5, c5), distance=2),
        replace(direct_sum(direct_sum(c5, c5), c5), distance=2),
        hgp(repetition_check(2), repetition_check(3)),
    ]
    instances = 0
    failures = []
    while instances < 20:
        code = pool[instances % len(pool)]
        q = rng.randrange(1, code.k + 1)
        sigma = _random_sigma(rng, code, q)
        if sigma is None:
            continue
        split = split_logicals(code, sigma)
        nk = naked_glue(code, sigma)
        d_r = rng.choice((2, 3))
        rep_b = verify_surgery(paste_branch(code, split, nk, d_r))
        if not rep_b.ok:
            failures.append(("branch", code.name, q,
                             [s.name for s in rep_b.statements if s.status == "fail"]))
        fine = finely_devised_glue(code, sigma, split=split)
        rep_m = verify_surgery(paste_measurement(code, split, fine, d_r))
        if not rep_m.ok:
            failures.append(("measurement", code.name, q,
                             [s.name for s in rep_m.statements if s.status == "fail"]))
        instances += 1
    elapsed = time.time() - t0
    report(3, not failures and elapsed < 30.0,
           f"{instances} seeded instances, both sticker kinds, zero failures, "
           f"{elapsed:.2f}s (< 30s); failures={failures}")


# -- 4. glue-code size and weight bounds -----------------------------------


def test_criterion_4_sticking_bounds():
    t0 = time.time()
    code = desk_code(7)
    wmax_hx = code.hx.wmax()
    violations = []
    count = 0
    for trial in range(100):
        q = 1 + trial % 8
        sampler = SigmaSampler(code=code, l_max=5, thickness=q, max_q=q,
                               seed=1000 + trial)
        sigma = sampler.sample(q, trial=0)
        fine = finely_devised_glue(code, sigma)
        n_n, rn = fine.meta["n_n"], fine.meta["rn"]
        count += 1
        checks = [
            fine.n_g <= n_n + 2 * rn * (q + 1),
            fine.r_g <= wmax_hx * n_n + 2 * rn * (q + 1),
            fine.hg.wmax() <= max(wmax_hx + 1, 3),
            fine.s.wmax() == 1,
            fine.t.wmax() == 1,
        ]
        if not all(checks):
            violations.append((trial, q, checks))
    elapsed = time.time() - t0
    report(4, not violations and elapsed < 60.0,
           f"100 seeded Sigma on {code.name}: n_G, r_G, wmax(H_G) bounds and "
           f"wmax(S)=wmax(T)=1 all exact, {elapsed:.2f}s (< 60s)")


# -- 5. duplication codeword bijection ------------------------------------


def _codewords(m):
    out = {0}
    for b in kernel_basis(m).bits:
        out |= {v ^ b for v in out}
    return out


def _check_duplication_bijection(h, h2, kind, payload):
    old_words = _codewords(h)
    new_words = _codewords(h2)
    if len(old_words) != len(new_words):
        return False
    new_bit = h2.cols - 1
    for w in new_words:
        if w & ((1 << h.cols) - 1) not in old_words:
            return False
        got = (w >> new_bit) & 1
        if kind == "bit":
            want = (w >> payload) & 1
        else:
            want = 0
            for u in payload:
                want ^= (w >> u) & 1
        if got != want:
            return False
    return True


def test_criterion_5_duplication_bijection():
    t0 = time.time()
    rng = random.Random(31337)
    graphs = 0
    bad = 0
    while graphs < 50:
        nbits = rng.randrange(3, 15)
        nchecks = rng.randrange(1, 6)
        edges = {(u, a) for u in range(nbits) for a in range(nchecks)
                 if rng.random() < 0.4}
        if not edges:
            continue
        rows = [0] * nchecks
        for (b, c) in edges:
            rows[c] |= 1 << b
        h = Gf2Matrix(rows, nbits)
        u = rng.choice(sorted({b for (b, _) in edges}))
        cu = tuple(a for a in range(nchecks)
                   if (u, a) in edges and rng.random() < 0.5)
        if not _check_duplication_bijection(h, bit_duplication(h, u, cu), "bit", u):
            bad += 1
        a = rng.choice(sorted({c for (_, c) in edges}))
        ba = tuple(b for b in range(nbits)
                   if (b, a) in edges and rng.random() < 0.5)
        if not _check_duplication_bijection(h, check_duplication(h, a, ba),
                                            "check", ba):
            bad += 1
        graphs += 1
    elapsed = time.time() - t0
    report(5, bad == 0,
           f"50 seeded graphs (<= 14 bits), bit+check duplications, codeword "
           f"bijection by full enumeration, {elapsed:.2f}s")


# -- 6. redundancy-number oracle equivalence -----------------------------


def _redundancy_oracle(code, sigma):
    support = 0
    for r in sigma.vectors.bits:
        support |= r
    dressings = span_vectors(code.z_stabilizer_span())
    passing = []
    for x in range(1 << code.k):
        tau = 0
        for i in range(code.k):
            if (x >> i) & 1:
                tau ^= code.jz.bits[i]
        if any((tau ^ s) & ~support == 0 for s in dressings):
            passing.append(x)
    k_n = rank(Gf2Matrix(passing, code.k)) if passing else 0
    stab = code.z_stabilizer_span()
    q = rank(sigma.vectors.vstack(stab)) - rank(stab)
    return k_n - q


def _random_small_css(rng):
    n = rng.randrange(5, 17)
    r2 = rng.randrange(1, 5)
    for _ in range(50):
        hz = Gf2Matrix([sum((1 << j) for j in range(n) if rng.random() < 0.35)
                        for _ in range(r2)], n)
        kx = kernel_basis(hz)
        if kx.rows == 0:
            continue
        rows = []
        for _ in range(rng.randrange(1, 5)):
            acc = 0
            for b in kx.bits:
                if rng.random() < 0.5:
                    acc ^= b
            rows.append(acc)
        try:
            c = css_code(Gf2Matrix(rows, n), hz)
        except ValueError:
            continue
        if 1 <= c.k <= 6:
            return c
    return None


def test_criterion_6_redundancy_oracle():
    t0 = time.time()
    rng = random.Random(505)
    fixed = [
        css_code(Gf2Matrix([0b1111], 4), Gf2Matrix.zeros(0, 4)),
        hgp(repetition_check(2), repetition_check(2)),
        hgp(repetition_check(2), repetition_check(3)),
        hgp(repetition_check(3), repetition_check(3)),
    ]
    checked = 0
    mismatches = 0
    while checked < 100:
        if checked < len(fixed) * 5:
            code = fixed[checked % len(fixed)]
        else:
            code = _random_small_css(rng)
            if code is None or code.n > 16 or code.k > 6:
                continue
        q = rng.randrange(1, code.k + 1)
        sigma = _random_sigma(rng, code, q)
        if sigma is None:
            continue
        if redundancy_number(code, sigma) != _redundancy_oracle(code, sigma):
            mismatches += 1
        checked += 1
    elapsed = time.time() - t0
    report(6, mismatches == 0,
           f"100 seeded Sigma over codes with k<=6, n<=16: redundancy_number "
           f"== brute-force containment oracle, {elapsed:.2f}s")


# -- 7. overlap trend (Fig. 1b substitute) --------------------------------


def test_criterion_7_overlap_trend():
    t0 = time.time()
    code = desk_code(7)
    q_values = list(range(1, code.k // 2 + 1))
    run = bench_overlap(code, q_values, trials=100, seed=424242, l_max=5)
    meds = [run.medians[str(q)]["mcn"] for q in q_values]
    monotone = all(meds[i] <= meds[i + 1] for i in range(len(meds) - 1))
    bound_ok = True
    sampler = SigmaSampler(code=code, l_max=5, thickness=max(q_values),
                           max_q=max(q_values), seed=424242)
    for trial in range(100):
        sigma = sampler.sample(max(q_values), trial)
        for q in q_values:
            part = OperatorSet("Z", sigma.vectors.take_rows(range(q)))
            counts, mx = crowd_numbers(part)
            if mx * code.n < sum(counts):
                bound_ok = False
    elapsed = time.time() - t0
    report(7, monotone and bound_ok and elapsed < 120.0,
           f"median mcn over q=1..{max(q_values)}: {meds} nondecreasing; "
           f"max crowd >= total-weight/n on every sample; "
           f"{elapsed:.1f}s (< 120s)")


# -- 8. cost ordering (Fig. 5 substitute) ---------------------------------


def test_criterion_8_cost_ordering():
    t0 = time.time()
    code = desk_code(7)
    q_values = list(range(2, code.k // 2 + 1))
    run = bench_cost(code, q_values, thickness=max(q_values), trials=100,
                     seed=99, l_max=5, d_r=6)
    ordered = all(run.medians[str(q)]["ds"] <= run.medians[str(q)]["bfb"]
                  for q in q_values)
    pairs = {q: (run.medians[str(q)]["ds"], run.medians[str(q)]["bfb"])
             for q in q_values}
    elapsed = time.time() - t0
    report(8, ordered and elapsed < 300.0,
           f"median ds <= median bfb at every q (L=5): {pairs}; "
           f"{elapsed:.1f}s (< 300s)")


# -- 9. general-Pauli protocol vs projector oracle ------------------------


def _sample_regular_theta(rng, n, count):
    theta = []
    guard = 0
    while len(theta) < count and guard < 300:
        guard += 1
        x, z = rng.getrandbits(n), rng.getrandbits(n)
        if x == 0 and z == 0:
            continue
        phase = (x & z).bit_count() % 2 + 2 * rng.randrange(2)
        cand = PauliOp(n, phase, x, z)
        if all(cand.commutes_with(o)
               and (cand.x & o.z).bit_count() % 2 == 0
               and (o.x & cand.z).bit_count() % 2 == 0 for o in theta):
            theta.append(cand)
    return theta if len(theta) == count else None


def _random_memory(rng, n):
    state = StabilizerState.zero_state(n)
    for _ in range(3 * n):
        kind = rng.choice(["h", "s", "cnot"]) if n > 1 else rng.choice(["h", "s"])
        if kind == "h":
            state.apply_h(rng.randrange(n))
        elif kind == "s":
            state.apply_s(rng.randrange(n))
        else:
            c = rng.randrange(n)
            t = (c + 1 + rng.randrange(n - 1)) % n
            state.apply_cnot(c, t)
    return state


def _verify_protocol_instance(theta, memory):
    plan = build_measurement_plan(theta)
    initial = plan_initial_state(plan, memory)
    oracle = projector_oracle(plan_measurement_sequence(plan), initial)
    tableau = enumerate_plan_branches(plan, initial)
    if len(oracle) != len(tableau):
        return False
    if sum(b.probability for b in oracle) != 1.0:
        return False
    by_outcomes = {b.outcomes: b for b in oracle}
    q = len(theta)
    mem_vec = np.asarray(dense_from_state(memory))
    for tb in tableau:
        ob = by_outcomes.get(tb.raw_outcomes)
        if ob is None or tb.probability != ob.probability:
            return False
        vec = np.asarray(ob.state)
        for j in tb.corrections_applied:
            vec = np.asarray(dense_apply_pauli(vec, plan.corrections[j]))
        if not all(dense_stabilized_by(vec, g) for g in tb.final.gens):
            return False
        # memory factor must equal the projected memory state
        proj = mem_vec
        for j in range(q):
            applied = np.asarray(dense_apply_pauli(proj, theta[j]))
            proj = (proj + tb.op_outcomes[j] * applied) / 2.0
        grid = vec.reshape(1 << q, 1 << plan.memory_qubits)
        nz = [r for r in range(grid.shape[0]) if grid[r].any()]
        if not nz or not proj.any():
            return False
        r0 = nz[0]
        cf = int(np.flatnonzero(proj)[0])
        for r in nz:
            if not np.array_equal(grid[r] * proj[cf], proj * grid[r][cf]):
                return False
        # outcome formula (-i)^eta nu muX muZ, exact
        for j in range(q):
            if tb.op_outcomes[j] != (plan.outcome_factor[j]
                                     * tb.raw_outcomes[j]
                                     * tb.raw_outcomes[q + j]):
                return False
    return True


def test_criterion_9_protocol_vs_oracle():
    t0 = time.time()
    rng = random.Random(13579)
    handpicked = [
        ([PauliOp(2, 0, 0, 1)], "0+"),           # Z1, eta=0
        ([PauliOp(2, 1, 1, 1)], "0+"),           # iX1Z1 = Y1, eta=1
        ([PauliOp(2, 3, 1, 1)], "y0"),           # -Y1
        ([PauliOp(3, 0, 1, 0), PauliOp(3, 0, 0, 6)], "0+y"),
    ]
    cases = 0
    bad = 0
    for theta, spec in handpicked:
        if not _verify_protocol_instance(theta, StabilizerState.product_state(spec)):
            bad += 1
        cases += 1
    attempts = 0
    while cases < 30 and attempts < 600:
        attempts += 1
        n = rng.randrange(2, 7)
        count = rng.randrange(1, 4)
        if n + 2 * count > 12 or n + count > 10:
            continue
        theta = _sample_regular_theta(rng, n, count)
        if theta is None or not is_regular(theta):
            continue
        memory = _random_memory(rng, n)
        if not _verify_protocol_instance(theta, memory):
            bad += 1
        cases += 1
    elapsed = time.time() - t0
    report(9, bad == 0 and cases >= 30 and elapsed < 120.0,
           f"{cases} regular sets (<=3 ops, <=6 memory qubits): every branch "
           f"matches the projector oracle exactly (probabilities, stabilizer "
           f"groups, outcome formula), {elapsed:.1f}s (< 120s)")


# -- 10. regularisation ----------------------------------------------------


def _group_closure(ops, n):
    frontier = [PauliOp.identity(n)]
    for g in ops:
        frontier = frontier + [e.mul(g) for e in frontier]
    return {e.key() for e in frontier}


def test_criterion_10_regularisation():
    t0 = time.time()
    rng = random.Random(864213)
    sets = 0
    bad = 0
    while sets < 200:
        n = rng.randrange(2, 7)
        count = rng.randrange(2, 6)
        theta = []
        guard = 0
        while len(theta) < count and guard < 300:
            guard += 1
            x, z = rng.getrandbits(n), rng.getrandbits(n)
            if x == 0 and z == 0:
                continue
            phase = (x & z).bit_count() % 2 + 2 * rng.randrange(2)
            cand = PauliOp(n, phase, x, z)
            if all(cand.commutes_with(o) for o in theta):
                theta.append(cand)
        if len(theta) != count:
            continue
        tp, tpp = regularise(theta)
        ok = (not tp or is_regular(tp)) and (not tpp or is_regular(tpp))
        ok = ok and _group_closure(tp + tpp, n) == _group_closure(theta, n)
        if not ok:
            bad += 1
        sets += 1
    elapsed = time.time() - t0
    report(10, bad == 0,
           f"200 seeded commuting sets (<=5 ops, <=6 qubits): outputs regular, "
           f"group preserved by exhaustive closure comparison, {elapsed:.1f}s")


# -- 11. determinism --------------------------------------------------------


def test_criterion_11_determinism(tmp_path):
    from qsticker.cli import main as cli_main

    t0 = time.time()
    commands = [
        ["validate", "--code", "hgp:3,3"],
        ["glue", "--code", "hgp:3,3", "--logicals", "0"],
        ["deform", "--code", "hgp:2,2", "--logicals", "0",
         "--kind", "branch", "--dr", "2"],
        ["verify", "--code", "hgp:3,3", "--logicals", "0",
         "--kind", "measurement", "--dr", "2"],
        ["plan", "--code", "desk", "--q", "4", "--seed", "5", "--dr", "6"],
        ["bench-overlap", "--code", "desk", "--q", "1:3", "--trials", "5",
         "--seed", "2"],
        ["bench-cost", "--code", "desk", "--q", "2:3", "--trials", "3",
         "--seed", "2", "--dr", "6"],
        ["simulate", "--theta", "+X1Z2,-X2Z1", "--n", "2", "--memory", "0+",
         "--seed", "4"],
    ]
    mismatched = []
    for idx, cmd in enumerate(commands):
        d1 = tmp_path / f"run{idx}a"
        d2 = tmp_path / f"run{idx}b"
        rc1 = cli_main(cmd + ["--out", str(d1)])
        rc2 = cli_main(cmd + ["--out", str(d2)])
        assert rc1 == rc2 == 0, (cmd, rc1, rc2)
        files1 = sorted(p.name for p in d1.iterdir())
        files2 = sorted(p.name for p in d2.iterdir())
        if files1 != files2:
            mismatched.append((cmd[0], "file sets differ"))
            continue
        for name in files1:
            if (d1 / name).read_bytes() != (d2 / name).read_bytes():
                mismatched.append((cmd[0], name))
    elapsed = time.time() - t0
    report(11, not mismatched,
           f"{len(commands)} commands rerun with fixed seeds produce "
           f"byte-identical outputs, {elapsed:.1f}s; mismatches={mismatched}")
