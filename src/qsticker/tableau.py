"""Stabilizer tableau simulation and a dense projector oracle.

The tableau keeps n independent, mutually commuting Hermitian Pauli
generators with exact i^p phases.  Measuring a Hermitian Pauli either
anticommutes with some generator (outcome random, generators updated in
place) or is determined (the generator subset reproducing its
symplectic part is solved over GF(2) and the phases compared).

A state checks its generators at product cost, after each one's length
and Hermiticity.  With X and Z the n × n matrices whose row i is the x
or z part of generator i, entry (i, j) of X·Zᵀ is |x_i ∧ z_j| mod 2, so
(X·Zᵀ)[i, j] + (X·Zᵀ)[j, i] is the symplectic product of generators i
and j: X·Zᵀ is symmetric exactly when the generators commute pairwise
(Aaronson & Gottesman 2004).  Independence is checked by adding each
generator's symplectic row x | z << n to one `RowReducer`.  A failure
names the first anticommuting pair (j, i), j < i, in the order i then j,
or the first generator dependent on the ones before it.

A state derived from a checked one is valid without those checks, so
`StabilizerState._trusted` skips them.  `plan_initial_state` pads the
memory's generators with zeros on the ancillas and adds one single-qubit
X or Y per ancilla; each commutes with everything else and is independent
of it, because no other generator touches its qubit.  `memory_factor`
keeps the products of an independent set of generator combinations, and
products of independent, commuting, Hermitian generators selected by
independent combinations are again independent, commuting and Hermitian;
it still checks that their number is the memory's size.  Likewise
`PauliOp._trusted` skips the range check for products, signs and padding
of operators already in range.

Beside `gens` a state keeps `rows`, generator i's symplectic row
x | z << n.  An operator anticommutes with generator i exactly when
rows[i] & (z_op | x_op << n) has odd weight: one AND and one bit count
per generator.  A random outcome XORs the pivot's row into the rows of the
other anticommuting generators as it multiplies them, and a determined
one hands the rows to `solve_left` as they are.

The oracle works on dense state vectors (budgeted at 12 qubits) and
applies projectors (1 + μP)/2 branch by branch.  A vector is a list of
Python `complex`, which is exact here: all amplitudes stay in Z[i]
scaled by powers of two, so branch probabilities are exact dyadic
floats and states compare with exact equality.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import InternalError
from .gf2 import Gf2Matrix, RowReducer, kernel_complement, set_bits, solve_left
from .pauli import MeasurementPlan, PauliOp

ORACLE_QUBIT_BUDGET = 12


class StabilizerState:
    """Pure stabilizer state given by n phased generators."""

    def __init__(self, gens: list[PauliOp]):
        if not gens:
            raise ValueError("need at least one generator")
        n = gens[0].n
        if len(gens) != n:
            raise ValueError(f"a pure state on {n} qubits needs {n} generators, "
                             f"not {len(gens)}")
        for i, g in enumerate(gens):
            if g.n != n:
                raise ValueError(f"generator {i} acts on {g.n} qubits, not {n}")
            if not g.is_hermitian():
                raise ValueError(f"generator {i} is not Hermitian")
        xzt = Gf2Matrix([g.x for g in gens], n).mul_transpose(
            Gf2Matrix([g.z for g in gens], n))
        # row i of X·Zᵀ + (X·Zᵀ)ᵀ holds i's symplectic products
        for i, (a, b) in enumerate(zip(xzt.bits, xzt.transpose().bits)):
            earlier = (a ^ b) & ((1 << i) - 1)
            if earlier:
                raise ValueError(f"generators {set_bits(earlier)[0]} and {i} "
                                 "do not commute")
        reducer = RowReducer()
        for i, g in enumerate(gens):
            if not reducer.add(g.x | (g.z << n)):
                raise ValueError(f"generator {i} is dependent on the "
                                 "generators before it")
        self.n = n
        self._set_gens(list(gens))

    @classmethod
    def _trusted(cls, gens: list[PauliOp]) -> "StabilizerState":
        """StabilizerState(gens) without its checks, for generators derived
        from a checked state (see the module docstring)."""
        state = object.__new__(cls)
        state.n = gens[0].n
        state._set_gens(gens)
        return state

    @staticmethod
    def zero_state(n: int) -> "StabilizerState":
        return StabilizerState([PauliOp.single(n, "Z", j) for j in range(n)])

    @staticmethod
    def product_state(spec: str) -> "StabilizerState":
        """One letter per qubit: 0/1 (Z basis), +/- (X), y/Y (|y±⟩)."""
        gens = []
        n = len(spec)
        for j, ch in enumerate(spec):
            if ch == "0":
                gens.append(PauliOp.single(n, "Z", j))
            elif ch == "1":
                gens.append(PauliOp.single(n, "Z", j).negate())
            elif ch == "+":
                gens.append(PauliOp.single(n, "X", j))
            elif ch == "-":
                gens.append(PauliOp.single(n, "X", j).negate())
            elif ch == "y":
                gens.append(PauliOp.single(n, "Y", j))
            elif ch == "Y":
                gens.append(PauliOp.single(n, "Y", j).negate())
            else:
                raise ValueError(f"unknown qubit spec {ch!r}")
        return StabilizerState(gens)

    def copy(self) -> "StabilizerState":
        clone = object.__new__(StabilizerState)
        clone.n = self.n
        clone.gens = list(self.gens)
        clone.rows = list(self.rows)
        return clone

    # -- Clifford gates (state preparation for tests and the CLI) ------

    def apply_h(self, t: int) -> None:
        self._set_gens([self._h(g, t) for g in self.gens])

    def apply_s(self, t: int) -> None:
        self._set_gens([self._s(g, t) for g in self.gens])

    def apply_cnot(self, c: int, t: int) -> None:
        self._set_gens([self._cnot(g, c, t) for g in self.gens])

    def _set_gens(self, gens: list[PauliOp]) -> None:
        """Take gens as the generators, with their symplectic rows."""
        n = self.n
        self.gens = gens
        self.rows = [g.x | (g.z << n) for g in gens]

    @staticmethod
    def _h(g: PauliOp, t: int) -> PauliOp:
        xt = (g.x >> t) & 1
        zt = (g.z >> t) & 1
        x = g.x ^ ((xt ^ zt) << t)
        z = g.z ^ ((xt ^ zt) << t)
        return PauliOp(g.n, g.phase + 2 * (xt & zt), x, z)

    @staticmethod
    def _s(g: PauliOp, t: int) -> PauliOp:
        xt = (g.x >> t) & 1
        return PauliOp(g.n, g.phase + xt, g.x, g.z ^ (xt << t))

    @staticmethod
    def _cnot(g: PauliOp, c: int, t: int) -> PauliOp:
        xc = (g.x >> c) & 1
        zt = (g.z >> t) & 1
        return PauliOp(g.n, g.phase, g.x ^ (xc << t), g.z ^ (zt << c))

    def apply_pauli(self, p: PauliOp) -> None:
        """Conjugate by a Pauli unitary (phase flips on anticommuters)."""
        gens = self.gens
        for i in self._anticommuting(p):
            gens[i] = gens[i].negate()

    def _anticommuting(self, op: PauliOp) -> list[int]:
        """Indices of the generators that anticommute with op."""
        if op.n != self.n:
            raise ValueError("operator length mismatch")
        # row & swapped holds x_g ∧ z_op and z_g ∧ x_op side by side
        swapped = op.z | (op.x << self.n)
        return [i for i, row in enumerate(self.rows)
                if (row & swapped).bit_count() & 1]

    # -- measurement ----------------------------------------------------

    def measure(self, op: PauliOp, rng: random.Random | None = None,
                forced: int | None = None) -> tuple[int, bool]:
        """Measure a Hermitian Pauli; returns (outcome, was_random).

        Random outcomes come from `forced` when given, else from rng.
        A forced value must be 1 or -1, and on a determined measurement
        it must match the outcome.
        """
        if not op.is_hermitian():
            raise ValueError("measured operator must be Hermitian")
        if forced not in (None, 1, -1):
            raise ValueError(f"forced outcome must be 1 or -1, got {forced!r}")
        anti = self._anticommuting(op)
        gens, rows = self.gens, self.rows
        row = op.x | (op.z << self.n)
        if anti:
            pivot = anti[0]
            gp, rp = gens[pivot], rows[pivot]
            for i in anti[1:]:
                gens[i] = gens[i].mul(gp)
                rows[i] ^= rp
            if forced is not None:
                outcome = forced
            elif rng is not None:
                outcome = 1 if rng.random() < 0.5 else -1
            else:
                raise ValueError("random outcome needed but no source given")
            gens[pivot] = op if outcome == 1 else op.negate()
            rows[pivot] = row
            return outcome, True
        combo = solve_left(Gf2Matrix(rows, 2 * self.n),
                           Gf2Matrix([row], 2 * self.n))
        if combo is None:
            raise InternalError("determined operator outside the group (bug)")
        phase, _, _ = _product(gens, combo.bits[0])
        diff = (op.phase - phase) % 4
        if diff not in (0, 2):
            raise InternalError("phase mismatch by ±i (bug)")
        outcome = 1 if diff == 0 else -1
        if forced is not None and forced != outcome:
            raise ValueError("forced outcome contradicts a determined measurement")
        return outcome, False


# -- dense-vector machinery ---------------------------------------------


def dense_apply_pauli(vec: Sequence[complex], op: PauliOp) -> list[complex]:
    """i^p X(x)Z(z) applied to a dense vector (exact for dyadic inputs)."""
    dim = 1 << op.n
    if len(vec) != dim:
        raise ValueError("vector dimension mismatch")
    phase = 1j ** op.phase
    signed = (phase, -phase)  # by the parity of the Z part on the index
    x, z = op.x, op.z
    out = [0j] * dim
    for i, a in enumerate(vec):
        out[i ^ x] = signed[(i & z).bit_count() & 1] * a
    return out


def dense_from_state(state: StabilizerState) -> list[complex]:
    """Unnormalized dense vector stabilized by every generator.

    Projects basis vectors until one survives; amplitudes stay dyadic.
    """
    n = state.n
    dim = 1 << n
    if n > ORACLE_QUBIT_BUDGET:
        raise ValueError(f"dense oracle budget is {ORACLE_QUBIT_BUDGET} qubits")
    for b in range(dim):
        vec = [0j] * dim
        vec[b] = 1 + 0j
        for g in state.gens:
            vec = [(a + c) / 2.0 for a, c in zip(vec, dense_apply_pauli(vec, g))]
            if not any(vec):
                break
        else:
            return vec
    raise InternalError("no basis vector survives the projectors (bug)")


def dense_stabilized_by(vec: Sequence[complex], op: PauliOp) -> bool:
    """Exact check that op fixes the (unnormalized) vector."""
    return dense_apply_pauli(vec, op) == list(vec)


def _norm2(vec: list[complex]) -> float:
    # re² + im², not abs(a) ** 2, whose hypot can round
    return sum(a.real * a.real + a.imag * a.imag for a in vec)


@dataclass
class OracleBranch:
    outcomes: tuple[int, ...]
    probability: float
    state: list[complex]  # unnormalized; norm² relative to the initial state


def projector_oracle(ops: list[PauliOp], initial: StabilizerState) -> list[OracleBranch]:
    """All outcome branches of measuring ops in order, by dense projectors.

    Branch probabilities are exact dyadic floats summing to 1; zero
    branches are pruned.
    """
    start = dense_from_state(initial)
    start_norm = _norm2(start)
    branches: list[OracleBranch] = []

    def walk(vec: list[complex], outcomes: tuple[int, ...], depth: int):
        if depth == len(ops):
            branches.append(OracleBranch(outcomes, _norm2(vec) / start_norm, vec))
            return
        applied = dense_apply_pauli(vec, ops[depth])
        for mu in (1, -1):
            nxt = [(a + mu * b) / 2.0 for a, b in zip(vec, applied)]
            if any(nxt):
                walk(nxt, outcomes + (mu,), depth + 1)

    walk(start, (), 0)
    total = sum(b.probability for b in branches)
    if total != 1.0:
        raise InternalError(f"branch probabilities sum to {total}, not 1")
    return branches


# -- plan execution ------------------------------------------------------


def plan_initial_state(plan: MeasurementPlan,
                       memory: StabilizerState) -> StabilizerState:
    """Memory ⊗ ancillas, with A0 qubits in |+⟩ and A1 qubits in |y+⟩."""
    if memory.n != plan.memory_qubits:
        raise ValueError("memory state size does not match the plan")
    total = plan.total_qubits
    if plan.ancilla != tuple(range(memory.n, total)):
        raise ValueError("plan ancillas are not the qubits after the memory")
    gens = [PauliOp._trusted(total, g.phase, g.x, g.z) for g in memory.gens]
    for j, anc in enumerate(plan.ancilla):
        kind = "X" if plan.blocks[j] == "A0" else "Y"
        gens.append(PauliOp.single(total, kind, anc))
    return StabilizerState._trusted(gens)


@dataclass
class PlanResult:
    raw_outcomes: tuple[int, ...]  # Ω_X, Ω_Z, readouts in order
    op_outcomes: tuple[int, ...]   # per-operator reported values
    probability: float
    random_flags: tuple[bool, ...]
    corrections_applied: tuple[int, ...]
    final: StabilizerState



def plan_measurement_sequence(plan: MeasurementPlan) -> list[PauliOp]:
    return list(plan.omega_x) + list(plan.omega_z) + list(plan.readouts)


def memory_factor(state: StabilizerState, mem_qubits: int) -> StabilizerState:
    """Stabilizer state of the memory factor of a product state.

    Finds the subgroup supported on the first mem_qubits qubits; raises
    if it does not determine a pure memory state (i.e. the state is
    entangled with the ancillas).
    """
    if mem_qubits < 1:
        raise ValueError("need at least one generator")
    n = state.n
    anc = n - mem_qubits
    rows = [(g.x >> mem_qubits) | ((g.z >> mem_qubits) << anc)
            for g in state.gens]
    ancilla_parts = Gf2Matrix(rows, 2 * anc).transpose()
    combos = kernel_complement(ancilla_parts, Gf2Matrix.zeros(0, n))
    if combos.rows != mem_qubits:
        raise ValueError("memory is entangled with the ancillas")
    mask = (1 << mem_qubits) - 1
    gens = []
    for sel in combos.bits:
        phase, x, z = _product(state.gens, sel)
        gens.append(PauliOp._trusted(mem_qubits, phase, x & mask, z & mask))
    return StabilizerState._trusted(gens)


def _product(gens: list[PauliOp], sel: int) -> tuple[int, int, int]:
    """(phase, x, z) of the product of the gens selected by the bits of
    sel, multiplied in ascending index order as `PauliOp.mul` would."""
    phase = x = z = 0
    for i in set_bits(sel):
        g = gens[i]
        phase += g.phase + 2 * ((z & g.x).bit_count() & 1)
        x ^= g.x
        z ^= g.z
    return phase % 4, x, z


def _finish_plan(plan: MeasurementPlan, state: StabilizerState,
                 outcomes: list[int], flags: list[bool]) -> PlanResult:
    q = len(plan.operators)
    applied = []
    for j in range(q):
        if outcomes[2 * q + j] == -1:
            state.apply_pauli(plan.corrections[j])
            applied.append(j)
    op_outcomes = tuple(plan.outcome_factor[j] * outcomes[j] * outcomes[q + j]
                        for j in range(q))
    return PlanResult(raw_outcomes=tuple(outcomes), op_outcomes=op_outcomes,
                      probability=2.0 ** (-sum(flags)),
                      random_flags=tuple(flags),
                      corrections_applied=tuple(applied), final=state)


def simulate_plan(plan: MeasurementPlan, initial: StabilizerState,
                  outcome_seed: int | None = None) -> PlanResult:
    """Run the plan on a tableau; undetermined outcomes come from the
    seeded generator."""
    state = initial.copy()
    if state.n != plan.total_qubits:
        raise ValueError("initial state does not cover memory plus ancillas")
    rng = random.Random(outcome_seed)
    outcomes: list[int] = []
    flags: list[bool] = []
    for op in plan_measurement_sequence(plan):
        mu, was_random = state.measure(op, rng=rng)
        outcomes.append(mu)
        flags.append(was_random)
    return _finish_plan(plan, state, outcomes, flags)


def enumerate_plan_branches(plan: MeasurementPlan,
                            initial: StabilizerState) -> list[PlanResult]:
    """Every outcome branch of the plan on the tableau (DFS over both
    forks of each genuinely random measurement)."""
    if initial.n != plan.total_qubits:
        raise ValueError("initial state does not cover memory plus ancillas")
    seq = plan_measurement_sequence(plan)
    results: list[PlanResult] = []

    def walk(state: StabilizerState, outcomes: list[int], flags: list[bool],
             depth: int):
        if depth == len(seq):
            results.append(_finish_plan(plan, state, outcomes, flags))
            return
        op = seq[depth]
        if state._anticommuting(op):
            for mu in (1, -1):
                fork = state.copy()
                fork.measure(op, forced=mu)
                walk(fork, outcomes + [mu], flags + [True], depth + 1)
        else:
            mu, _ = state.measure(op)
            walk(state, outcomes + [mu], flags + [False], depth + 1)

    walk(initial.copy(), [], [], 0)
    return results
