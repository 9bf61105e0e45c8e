"""Stabilizer tableau vs dense oracle: gates, measurements, full plans.

The protocol check is exact: starting states have dyadic amplitudes,
projectors keep them dyadic, so branch probabilities and stabilizer
conditions are compared with exact float equality.
"""

import hashlib
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsticker import gf2, tableau
from qsticker.gf2 import Gf2Matrix, rank
from qsticker.pauli import (
    PauliOp,
    build_measurement_plan,
    is_regular,
    parse_pauli,
    regularise,
)
from qsticker.tableau import (
    StabilizerState,
    dense_apply_pauli,
    dense_from_state,
    dense_stabilized_by,
    enumerate_plan_branches,
    memory_factor,
    plan_initial_state,
    plan_measurement_sequence,
    projector_oracle,
    simulate_plan,
)

H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S2 = np.array([[1, 0], [0, 1j]], dtype=complex)


def dense_gate(n, mat, *qubits):
    """Apply a 1- or 2-qubit gate matrix on given qubits of a dense op.

    Index convention matches the tableau: bit j of the index is qubit j.
    """
    dim = 1 << n
    full = np.zeros((dim, dim), dtype=complex)
    span = len(qubits)
    for i in range(dim):
        sub_i = sum(((i >> q) & 1) << t for t, q in enumerate(qubits))
        for sub_j in range(1 << span):
            j = i
            for t, q in enumerate(qubits):
                j = (j & ~(1 << q)) | (((sub_j >> t) & 1) << q)
            full[j, i] += mat[sub_j, sub_i]
    return full


CNOT_MAT = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)  # control = first listed qubit = index bit 0 of the sub-block


def random_clifford_state(rng, n, depth=12):
    state = StabilizerState.zero_state(n)
    ops = []
    for _ in range(depth):
        kind = rng.choice(["h", "s", "cnot"]) if n > 1 else rng.choice(["h", "s"])
        if kind == "h":
            t = rng.randrange(n)
            state.apply_h(t)
            ops.append(("h", t))
        elif kind == "s":
            t = rng.randrange(n)
            state.apply_s(t)
            ops.append(("s", t))
        else:
            c = rng.randrange(n)
            t = rng.randrange(n)
            while t == c:
                t = rng.randrange(n)
            state.apply_cnot(c, t)
            ops.append(("cnot", c, t))
    return state, ops


def dense_from_circuit(n, ops):
    vec = np.zeros(1 << n, dtype=complex)
    vec[0] = 1.0
    for op in ops:
        if op[0] == "h":
            vec = dense_gate(n, H2, op[1]) @ vec
        elif op[0] == "s":
            vec = dense_gate(n, S2, op[1]) @ vec
        else:
            vec = dense_gate(n, CNOT_MAT, op[1], op[2]) @ vec
    return vec


def test_gates_match_dense_statevector():
    rng = random.Random(2025)
    for _ in range(15):
        n = rng.randrange(1, 4)
        state, ops = random_clifford_state(rng, n)
        vec = dense_from_circuit(n, ops)
        for g in state.gens:
            assert np.allclose(dense_apply_pauli(vec, g), vec), (ops, str(g))


def test_dense_from_state_matches_generators():
    rng = random.Random(77)
    for _ in range(10):
        n = rng.randrange(1, 5)
        state, _ = random_clifford_state(rng, n)
        vec = dense_from_state(state)
        for g in state.gens:
            assert dense_stabilized_by(vec, g)


def test_measure_deterministic_eigenstate():
    state = StabilizerState.product_state("01")
    z1 = parse_pauli("Z1", 2)
    z2 = parse_pauli("Z2", 2)
    assert state.measure(z1)[0] == 1
    assert state.measure(z2)[0] == -1


def test_measure_random_then_collapsed():
    for forced in (1, -1):
        state = StabilizerState.product_state("++")
        z1 = parse_pauli("Z1", 2)
        mu, was_random = state.measure(z1, forced=forced)
        assert was_random and mu == forced
        # post-state stabilized by mu * Z1
        post = z1 if forced == 1 else z1.negate()
        assert post.key() in {g.key() for g in state.gens}
        mu2, was_random2 = state.measure(z1)
        assert not was_random2 and mu2 == forced


def test_measure_outcome_distribution_seeded():
    outcomes = []
    for seed in range(40):
        state = StabilizerState.product_state("+")
        rng = random.Random(seed)
        outcomes.append(state.measure(parse_pauli("Z1", 1), rng=rng)[0])
    assert set(outcomes) == {1, -1}


def test_forced_contradiction_raises():
    state = StabilizerState.product_state("0")
    with pytest.raises(ValueError):
        state.measure(parse_pauli("Z1", 1), forced=-1)


@pytest.mark.parametrize("forced", [0, 2, -2, "1"])
def test_forced_outcome_must_be_plus_or_minus_one(forced):
    # X1 on |0> is random, so an unchecked forced value becomes the outcome
    state = StabilizerState.zero_state(1)
    before = list(state.gens)
    with pytest.raises(ValueError, match="forced outcome must be 1 or -1"):
        state.measure(parse_pauli("X1", 1), forced=forced)
    assert state.gens == before


def test_projector_oracle_simple_cases():
    # X measurement on |0>: two branches, probability 1/2 each
    state = StabilizerState.zero_state(1)
    branches = projector_oracle([parse_pauli("X1", 1)], state)
    assert sorted(b.outcomes for b in branches) == [(-1,), (1,)]
    assert all(b.probability == 0.5 for b in branches)
    # measuring a stabilizer: one branch, probability 1
    branches = projector_oracle([parse_pauli("Z1", 1)], state)
    assert len(branches) == 1
    assert branches[0].outcomes == (1,) and branches[0].probability == 1.0


def check_plan_against_oracle(theta, memory):
    """Exhaustive protocol check: tableau vs projectors on every branch."""
    plan = build_measurement_plan(theta)
    initial = plan_initial_state(plan, memory)
    seq = plan_measurement_sequence(plan)
    oracle = projector_oracle(seq, initial)
    tableau_branches = enumerate_plan_branches(plan, initial)
    assert len(oracle) == len(tableau_branches)
    assert sum(b.probability for b in oracle) == 1.0

    by_outcomes = {b.outcomes: b for b in oracle}
    q = len(theta)
    mem_n = plan.memory_qubits
    mem_vec = np.asarray(dense_from_state(memory))
    for tb in tableau_branches:
        ob = by_outcomes[tb.raw_outcomes]
        assert tb.probability == ob.probability
        # oracle state + the same corrections = tableau stabilizer state
        vec = np.asarray(ob.state)
        for j in tb.corrections_applied:
            vec = np.asarray(dense_apply_pauli(vec, plan.corrections[j]))
        for g in tb.final.gens:
            assert dense_stabilized_by(vec, g)
        # memory factor equals the projected memory state
        proj = mem_vec
        for j in range(q):
            applied = np.asarray(dense_apply_pauli(proj, theta[j]))
            proj = (proj + tb.op_outcomes[j] * applied) / 2.0
        grid = vec.reshape(1 << q, 1 << mem_n)  # rows: ancilla bits
        flat = proj
        # rank-1 cross-product test, exact arithmetic
        nz_rows = [r for r in range(grid.shape[0]) if grid[r].any()]
        assert nz_rows, "oracle branch state vanished (bug)"
        r0 = nz_rows[0]
        c0 = int(np.flatnonzero(grid[r0])[0])
        for r in nz_rows:
            assert np.array_equal(grid[r] * grid[r0][c0], grid[r0] * grid[r][c0])
        # memory factor proportional to the expected projection (exact)
        assert flat.any() and grid[r0].any()
        cf = int(np.flatnonzero(flat)[0])
        assert np.array_equal(grid[r0] * flat[cf], flat * grid[r0][cf])
        # reported outcomes follow the formula by construction; confirm
        # they match mu products
        for j in range(q):
            assert tb.op_outcomes[j] == (plan.outcome_factor[j]
                                         * tb.raw_outcomes[j]
                                         * tb.raw_outcomes[q + j])


def test_plan_on_z_eigenstate_is_deterministic():
    theta = [parse_pauli("Z1", 2)]
    plan = build_measurement_plan(theta)
    memory = StabilizerState.product_state("10")
    initial = plan_initial_state(plan, memory)
    res = simulate_plan(plan, initial, outcome_seed=5)
    assert res.op_outcomes == (-1,)


def test_plan_single_x_on_plus_state():
    theta = [parse_pauli("X1", 1)]
    plan = build_measurement_plan(theta)
    memory = StabilizerState.product_state("+")
    initial = plan_initial_state(plan, memory)
    res = simulate_plan(plan, initial, outcome_seed=0)
    assert res.op_outcomes == (1,)


def test_plan_matches_oracle_handpicked():
    check_plan_against_oracle([parse_pauli("Z1", 2)],
                              StabilizerState.product_state("0+"))
    check_plan_against_oracle([parse_pauli("X1", 2)],
                              StabilizerState.product_state("++"))
    check_plan_against_oracle([parse_pauli("+iX1Z1", 2)],
                              StabilizerState.product_state("0+"))
    check_plan_against_oracle(
        [parse_pauli("X1", 3), parse_pauli("Z2Z3", 3)],
        StabilizerState.product_state("0+y"),
    )


def test_plan_matches_oracle_seeded_regular_sets():
    rng = random.Random(909)
    cases = 0
    attempts = 0
    while cases < 10 and attempts < 400:
        attempts += 1
        n = rng.randrange(2, 5)
        count = rng.randrange(1, 4)
        theta = []
        guard = 0
        while len(theta) < count and guard < 200:
            guard += 1
            x = rng.getrandbits(n)
            z = rng.getrandbits(n)
            if x == 0 and z == 0:
                continue
            phase = (x & z).bit_count() % 2 + 2 * rng.randrange(2)
            cand = PauliOp(n, phase, x, z)
            ok = all(cand.commutes_with(o) for o in theta)
            ok = ok and all(
                (cand.x & o.z).bit_count() % 2 == 0
                and (o.x & cand.z).bit_count() % 2 == 0
                for o in theta)
            if ok:
                theta.append(cand)
        if len(theta) != count:
            continue
        memory, _ = random_clifford_state(rng, n)
        if n + 2 * count > 10:
            continue
        check_plan_against_oracle(theta, memory)
        cases += 1
    assert cases == 10


def oracle_digest_instances(rng, count):
    """(Θ, memory) pairs as criterion 9 draws them: Hermitian Paulis on
    1–4 memory qubits, 1–3 pairwise commuting, on a random Clifford
    memory.  A non-regular set gives one instance per regular part."""
    instances = []
    while len(instances) < count:
        n = rng.randrange(1, 5)
        size = rng.randrange(1, 4)
        theta = []
        for _ in range(100):
            if len(theta) == size:
                break
            x, z = rng.getrandbits(n), rng.getrandbits(n)
            cand = PauliOp(n, (x & z).bit_count() % 2 + 2 * rng.randrange(2), x, z)
            if (x or z) and all(cand.commutes_with(o) for o in theta):
                theta.append(cand)
        memory, _ = random_clifford_state(rng, n)
        parts = [theta] if is_regular(theta) else [p for p in regularise(theta) if p]
        instances.extend((part, memory) for part in parts)
    return instances


def test_projector_oracle_golden_digest():
    # every outcome, probability and amplitude bit of the oracle's
    # branches, and of dense_from_state; `+ 0.0` folds -0.0 into 0.0
    def amplitudes(vec):
        return ",".join(f"{float.hex(a.real + 0.0)}:{float.hex(a.imag + 0.0)}"
                        for a in vec)

    rng = random.Random(31337)
    instances = oracle_digest_instances(rng, 60)
    assert len(instances) >= 60
    assert any(len(theta) == 3 for theta, _ in instances)
    digest = hashlib.sha256()
    for theta, memory in instances:
        plan = build_measurement_plan(theta)
        initial = plan_initial_state(plan, memory)
        for b in projector_oracle(plan_measurement_sequence(plan), initial):
            digest.update(f"{b.outcomes}|{float.hex(b.probability)}|"
                          f"{amplitudes(b.state)}\n".encode())
    for _ in range(20):
        state, _ = random_clifford_state(rng, rng.randrange(1, 6))
        digest.update(f"{amplitudes(dense_from_state(state))}\n".encode())
    assert digest.hexdigest() == (
        "0fd9013224bf3deeccbb8b0076501b821511d1ea1149c988a4fd88964d9f6e97")


# -- invalid generator sets ------------------------------------------------


def ops(n, *texts):
    return [parse_pauli(t, n) for t in texts]


@pytest.mark.parametrize("gens, message", [
    (ops(2, "Z1"), "a pure state on 2 qubits needs 2 generators, not 1"),
    (ops(2, "Z1") + ops(3, "Z2"), "generator 1 acts on 3 qubits, not 2"),
    (ops(2, "Z1", "+iZ2"), "generator 1 is not Hermitian"),
    # (0, 3) and (1, 2) anticommute; the pair with the lower later index wins
    (ops(4, "X1", "X2", "Z2", "Z1"), "generators 1 and 2 do not commute"),
    (ops(3, "Z1Z2", "Z2", "-Z1"),
     "generator 2 is dependent on the generators before it"),
    # every generator's length and Hermiticity is checked before any pair
    (ops(3, "X1", "Z1", "+iZ3"), "generator 2 is not Hermitian"),
    (ops(3, "X1", "Z1") + ops(4, "Z3"), "generator 2 acts on 4 qubits, not 3"),
    # commutation is checked before independence
    (ops(3, "Z1", "Z1", "X1"), "generators 0 and 2 do not commute"),
])
def test_invalid_generators_are_rejected_with_a_witness(gens, message):
    with pytest.raises(ValueError) as exc:
        StabilizerState(gens)
    assert str(exc.value) == message


def oracle_verdict(gens):
    """The error StabilizerState must raise, or None: the pairwise
    `commutes_with` loop and a Gauss–Jordan rank per prefix."""
    n = gens[0].n
    if len(gens) != n:
        return f"a pure state on {n} qubits needs {n} generators, not {len(gens)}"
    for i, g in enumerate(gens):
        if g.n != n:
            return f"generator {i} acts on {g.n} qubits, not {n}"
        if not g.is_hermitian():
            return f"generator {i} is not Hermitian"
    for i, g in enumerate(gens):
        for j, h in enumerate(gens[:i]):
            if not g.commutes_with(h):
                return f"generators {j} and {i} do not commute"
    rows = [g.x | (g.z << n) for g in gens]
    for i in range(n):
        if rank(Gf2Matrix(rows[:i + 1], 2 * n)) <= i:
            return f"generator {i} is dependent on the generators before it"
    return None


@st.composite
def clifford_generator_sets(draw):
    """Generators of a random Clifford state, maybe corrupted once: one
    flipped x or z bit (phase kept Hermitian), a generator replaced by a
    product of two others, or a phase shifted by i."""
    n = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    gens = list(random_clifford_state(rng, n, depth=draw(st.integers(0, 20)))[0].gens)
    kind = draw(st.sampled_from(["none", "x", "z", "product", "phase"]))
    i = draw(st.integers(0, n - 1))
    g = gens[i]
    if kind in ("x", "z"):
        bit = 1 << draw(st.integers(0, n - 1))
        x, z = (g.x ^ bit, g.z) if kind == "x" else (g.x, g.z ^ bit)
        # keep it Hermitian, so the flip reaches the commutation check
        gens[i] = PauliOp(n, (x & z).bit_count() + 2 * (g.phase // 2), x, z)
    elif kind == "product" and n >= 3:
        j, k = draw(st.lists(st.integers(0, n - 1).filter(lambda v: v != i),
                             min_size=2, max_size=2, unique=True))
        gens[i] = gens[j].mul(gens[k])
    elif kind == "phase":
        gens[i] = PauliOp(n, g.phase + 1, g.x, g.z)
    return gens


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(clifford_generator_sets())
def test_validity_verdict_matches_pairwise_oracle(gens):
    want = oracle_verdict(gens)
    if want is None:
        assert StabilizerState(gens).gens == gens
    else:
        with pytest.raises(ValueError) as exc:
            StabilizerState(gens)
        assert str(exc.value) == want


def test_state_and_memory_factor_make_no_gauss_jordan_calls(monkeypatch):
    theta = [parse_pauli("X1", 3), parse_pauli("Z2Z3", 3)]
    plan = build_measurement_plan(theta)
    initial = plan_initial_state(plan, StabilizerState.product_state("0+y"))
    final = simulate_plan(plan, initial, outcome_seed=3).final
    calls = []
    for name in ("rank", "rref", "kernel_basis"):
        def counted(*args, _name=name, _inner=getattr(gf2, name)):
            calls.append(_name)
            return _inner(*args)
        for mod in (gf2, tableau):
            monkeypatch.setattr(mod, name, counted, raising=False)
    StabilizerState(list(final.gens))
    memory = memory_factor(final, plan.memory_qubits)
    assert memory.n == 3
    assert calls == []


# -- derived states and their packed rows ---------------------------------


def assert_tableau_invariants(state):
    """The packed rows are the generators' symplectic rows, the checked
    constructor accepts the state, and every generator, however built, is
    the operator the checked PauliOp constructor gives for its parts."""
    n = state.n
    assert state.rows == [g.x | (g.z << n) for g in state.gens]
    assert StabilizerState(list(state.gens)).gens == state.gens
    assert all(g == PauliOp(n, g.phase, g.x, g.z) for g in state.gens)


def random_hermitian(rng, n):
    x, z = rng.getrandbits(n), rng.getrandbits(n)
    if not x | z:
        x = 1 << rng.randrange(n)
    return PauliOp(n, (x & z).bit_count() + 2 * rng.randrange(2), x, z)


TABLEAU_STEPS = ["h", "s", "cnot", "pauli", "random", "forced", "determined",
                 "copy", "round"]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5), st.integers(0, 2 ** 32 - 1),
       st.lists(st.sampled_from(TABLEAU_STEPS), max_size=20))
def test_every_update_keeps_the_tableau_invariants(n, seed, steps):
    rng = random.Random(seed)
    state = StabilizerState.zero_state(n)
    assert_tableau_invariants(state)
    copies = []
    for step in steps:
        if step == "h":
            state.apply_h(rng.randrange(n))
        elif step == "s":
            state.apply_s(rng.randrange(n))
        elif step == "cnot" and n > 1:
            state.apply_cnot(*rng.sample(range(n), 2))
        elif step == "pauli":
            state.apply_pauli(random_hermitian(rng, n))
        elif step == "random":
            state.measure(random_hermitian(rng, n), rng=rng)
        elif step == "forced":
            op = random_hermitian(rng, n)
            forced = rng.choice((1, -1)) if state._anticommuting(op) else None
            assert state.measure(op, forced=forced)[0] in (1, -1)
        elif step == "determined":
            op = PauliOp.identity(n)
            for g in rng.sample(state.gens, rng.randint(1, n)):
                op = op.mul(g)
            assert state.measure(op) == (1, False)
        elif step == "copy":
            copies.append((state, list(state.gens)))
            state = state.copy()
        elif step == "round":
            plan = build_measurement_plan([random_hermitian(rng, n)])
            initial = plan_initial_state(plan, state)
            assert_tableau_invariants(initial)
            final = simulate_plan(plan, initial, rng.randrange(2 ** 31)).final
            assert_tableau_invariants(final)
            state = memory_factor(final, n)
        assert_tableau_invariants(state)
    for original, gens in copies:
        # a copy's updates never reach the state it was copied from
        assert original.gens == gens
        assert_tableau_invariants(original)


@pytest.mark.parametrize("method", ["measure", "apply_pauli"])
def test_operator_of_another_length_is_refused(method):
    # a packed row is x | z << n, so an operator on other qubits would
    # meet the generators' bits misaligned instead of failing
    state = StabilizerState.product_state("0+")
    before = (list(state.gens), list(state.rows))
    for other in (parse_pauli("Z1", 1), parse_pauli("X3", 3)):
        with pytest.raises(ValueError, match="^operator length mismatch$"):
            getattr(state, method)(other)
        assert (state.gens, state.rows) == before


def test_initial_state_needs_the_ancillas_after_the_memory():
    # the initial state is built unchecked, so a plan whose ancilla sits
    # on a memory qubit is refused before it can make an invalid state
    plan = build_measurement_plan([parse_pauli("X1", 2)])
    with pytest.raises(ValueError,
                       match="^plan ancillas are not the qubits after the memory$"):
        plan_initial_state(replace(plan, ancilla=(0,)),
                           StabilizerState.zero_state(2))


def test_memory_factor_of_no_qubits_is_refused():
    # the factor is built unchecked, so an empty memory is refused up front
    with pytest.raises(ValueError, match="^need at least one generator$"):
        memory_factor(StabilizerState.product_state("0+"), 0)
