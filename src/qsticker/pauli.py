"""Phased Pauli operators, regularisation, and measurement-plan building.

An operator is stored as i^phase · X(x) · Z(z) with bit-packed x, z and
the phase exponent mod 4.  It is Hermitian iff phase ≡ |x ∧ z| (mod 2);
the overlap parity |x ∧ z| mod 2 is the characteristic number η, so
Hermitian operators carry a real phase when η = 0 and ±i when η = 1.

The simultaneous-measurement protocol applies to regular sets (cross
X/Z parts commute for distinct operators).  An arbitrary commuting set
is regularised into two regular subsets generating the same group; the
plan for a regular set uses one ancilla per operator (block A0 in |+⟩
for η = 0, block A1 in |y+⟩ for η = 1), joint measurements

    Ω_X = {σ_X,j · Z(anc_j)},   Ω_Z = {σ_Z,j · Z(anc_j) or X(anc_j)},

ancilla readouts in X or Y, a σ_Z,j correction on readout −1, and the
reported outcome (−i)^η · ν · μ_X · μ_Z.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InternalError
from .gf2 import set_bits

_PHASE_STR = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_STR_PHASE = {"": 0, "+": 0, "+i": 1, "i": 1, "-": 2, "-i": 3}


@dataclass(frozen=True)
class PauliOp:
    """i^phase · X(x) · Z(z) on n qubits."""

    n: int
    phase: int
    x: int
    z: int

    def __post_init__(self):
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("operator touches qubits outside range")
        object.__setattr__(self, "phase", self.phase % 4)

    @classmethod
    def _trusted(cls, n: int, phase: int, x: int, z: int) -> "PauliOp":
        """PauliOp(n, phase, x, z) without the range check, for x and z
        derived from operators on n qubits (products, signs, padding)."""
        op = object.__new__(cls)
        object.__setattr__(op, "n", n)
        object.__setattr__(op, "phase", phase % 4)
        object.__setattr__(op, "x", x)
        object.__setattr__(op, "z", z)
        return op

    @staticmethod
    def identity(n: int) -> "PauliOp":
        return PauliOp(n, 0, 0, 0)

    @staticmethod
    def single(n: int, kind: str, qubit: int) -> "PauliOp":
        if not 0 <= qubit < n:
            raise ValueError(f"qubit {qubit} out of range for {n} qubits")
        if kind == "X":
            return PauliOp(n, 0, 1 << qubit, 0)
        if kind == "Z":
            return PauliOp(n, 0, 0, 1 << qubit)
        if kind == "Y":
            return PauliOp(n, 1, 1 << qubit, 1 << qubit)
        raise ValueError("kind must be X, Y or Z")

    def is_hermitian(self) -> bool:
        return (self.phase - (self.x & self.z).bit_count()) % 2 == 0

    def characteristic_number(self) -> int:
        """η: overlap parity of the X and Z parts."""
        return (self.x & self.z).bit_count() & 1

    def mul(self, other: "PauliOp") -> "PauliOp":
        if self.n != other.n:
            raise ValueError("operator length mismatch")
        extra = 2 * ((self.z & other.x).bit_count() & 1)
        return PauliOp._trusted(self.n, self.phase + other.phase + extra,
                                self.x ^ other.x, self.z ^ other.z)

    def negate(self) -> "PauliOp":
        return PauliOp._trusted(self.n, self.phase + 2, self.x, self.z)

    def commutes_with(self, other: "PauliOp") -> bool:
        if self.n != other.n:
            raise ValueError("operator length mismatch")
        return ((self.x & other.z).bit_count()
                + (self.z & other.x).bit_count()) % 2 == 0

    def key(self) -> tuple[int, int, int]:
        return (self.phase, self.x, self.z)

    def __str__(self) -> str:
        parts = ([f"X{j + 1}" for j in set_bits(self.x)]
                 + [f"Z{j + 1}" for j in set_bits(self.z)])
        body = "".join(parts) if parts else "I"
        return _PHASE_STR[self.phase] + body


def parse_pauli(text: str, n: int) -> PauliOp:
    """Parse the textual format, e.g. '+iX1Z1', '-Z3', 'Y2X4'.

    Qubit indices are 1-based; factors multiply left to right.
    """
    s = text.strip()
    m = re.match(r"^([+-]?i?)", s)
    prefix = m.group(1)
    if prefix not in _STR_PHASE:
        raise ValueError(f"bad phase prefix in {text!r}")
    op = PauliOp(n, _STR_PHASE[prefix], 0, 0)
    rest = s[len(prefix):]
    if rest == "I":
        return op
    pos = 0
    for fm in re.finditer(r"([XYZ])(\d+)", rest):
        if fm.start() != pos:
            raise ValueError(f"unparsable Pauli text {text!r} at {pos}")
        pos = fm.end()
        qubit = int(fm.group(2)) - 1
        if not 0 <= qubit < n:
            raise ValueError(f"qubit {qubit + 1} out of range in {text!r}")
        op = op.mul(PauliOp.single(n, fm.group(1), qubit))
    if pos != len(rest):
        raise ValueError(f"unparsable Pauli text {text!r} at {pos}")
    return op


def _cross_anticommute(a: PauliOp, b: PauliOp) -> bool:
    """{σ_X of a, σ_Z of b} = 0, i.e. the parts overlap oddly."""
    return (a.x & b.z).bit_count() & 1 == 1


def _require_commuting(theta: list[PauliOp]) -> None:
    for i in range(len(theta)):
        for j in range(i + 1, len(theta)):
            if not theta[i].commutes_with(theta[j]):
                raise ValueError(
                    f"operators {i} and {j} do not commute; "
                    "simultaneous measurement is impossible")


def is_regular(theta: list[PauliOp]) -> bool:
    """Regular iff [σ_X,i, σ_Z,j] = 0 for all i ≠ j.

    Raises when theta itself is not pairwise commuting (that is a
    protocol precondition, not a regularity failure).
    """
    _require_commuting(theta)
    for i in range(len(theta)):
        for j in range(len(theta)):
            if i != j and _cross_anticommute(theta[i], theta[j]):
                return False
    return True


def regularise(theta: list[PauliOp]) -> tuple[list[PauliOp], list[PauliOp]]:
    """Split a commuting set into two regular subsets generating ⟨Θ⟩.

    Deterministic transcription of the regularisation procedure: the
    first operator with anticommuting sub-parts absorbs cross-conflicts
    by multiplication; otherwise a conflicting pair is separated into
    the two output subsets and remaining conflicts are rewritten.
    """
    _require_commuting(theta)
    theta0 = list(theta)
    th1: list[PauliOp] = []
    th2: list[PauliOp] = []
    th3: list[PauliOp] = []
    th4: list[PauliOp] = []
    while theta0:
        idx = next((i for i, s in enumerate(theta0)
                    if s.characteristic_number() == 1), None)
        if idx is not None:
            sigma = theta0.pop(idx)
            th1.append(sigma)
            for j, tau in enumerate(theta0):
                if _cross_anticommute(sigma, tau):
                    theta0[j] = sigma.mul(tau)
            continue
        sigma = theta0.pop(0)
        idx2 = next((j for j, s2 in enumerate(theta0)
                     if _cross_anticommute(sigma, s2)), None)
        if idx2 is None:
            th2.append(sigma)
            continue
        sigma2 = theta0.pop(idx2)
        th3.append(sigma)
        th4.append(sigma2)
        for j, tau in enumerate(theta0):
            a = _cross_anticommute(sigma, tau)
            b = _cross_anticommute(sigma2, tau)
            if a and b:
                theta0[j] = sigma.mul(sigma2).mul(tau)
            elif a:
                theta0[j] = sigma2.mul(tau)
            elif b:
                theta0[j] = sigma.mul(tau)
    return th1 + th2 + th3, th4


# -- measurement plans --------------------------------------------------


@dataclass(frozen=True)
class MeasurementPlan:
    """Scheduled simultaneous measurement of a regular operator set."""

    memory_qubits: int
    operators: tuple[PauliOp, ...]
    eta: tuple[int, ...]
    ancilla: tuple[int, ...]       # one ancilla qubit per operator
    blocks: tuple[str, ...]        # "A0" (|+>) or "A1" (|y+>)
    omega_x: tuple[PauliOp, ...]
    omega_z: tuple[PauliOp, ...]
    readouts: tuple[PauliOp, ...]
    readout_basis: tuple[str, ...]
    corrections: tuple[PauliOp, ...]
    outcome_factor: tuple[int, ...]  # (-i)^eta * nu, always ±1
    needs_a2_block: bool

    @property
    def total_qubits(self) -> int:
        return self.memory_qubits + len(self.operators)

    def to_report(self) -> dict:
        steps = []
        for j, b in enumerate(self.blocks):
            state = "+" if b == "A0" else "y+"
            steps.append({"op": "init", "ancilla": self.ancilla[j] + 1,
                          "state": state})
        for stage, ops in (("omega_x", self.omega_x), ("omega_z", self.omega_z)):
            for j, op in enumerate(ops):
                steps.append({"op": "measure", "stage": stage,
                              "index": j, "operator": str(op)})
        for j, op in enumerate(self.readouts):
            steps.append({"op": "readout", "index": j,
                          "basis": self.readout_basis[j], "operator": str(op)})
        return {
            "schema": 1,
            "memory_qubits": self.memory_qubits,
            "operators": [str(op) for op in self.operators],
            "eta": list(self.eta),
            "needs_a2_block": self.needs_a2_block,
            "steps": steps,
            "corrections": [
                {"when_readout": j, "is": -1, "apply": str(self.corrections[j])}
                for j in range(len(self.corrections))
            ],
            "outcome_formula": [
                {"index": j, "factor": self.outcome_factor[j],
                 "value": "factor * mu_x * mu_z"}
                for j in range(len(self.operators))
            ],
        }


def build_measurement_plan(theta: list[PauliOp]) -> MeasurementPlan:
    """Plan for a regular set: one ancilla per operator, per-η wiring."""
    if not theta:
        raise ValueError("empty operator set")
    if not is_regular(theta):
        raise ValueError("operator set is not regular; regularise it first")
    for j, op in enumerate(theta):
        if not op.is_hermitian():
            raise ValueError(f"operator {j} is not Hermitian")
    n = theta[0].n
    q = len(theta)
    total = n + q
    eta = tuple(op.characteristic_number() for op in theta)
    ancilla = tuple(n + j for j in range(q))
    blocks = tuple("A0" if e == 0 else "A1" for e in eta)
    omega_x = []
    omega_z = []
    readouts = []
    basis = []
    corrections = []
    factors = []
    for j, op in enumerate(theta):
        anc = ancilla[j]
        ox = PauliOp(total, 0, op.x, 1 << anc)
        omega_x.append(ox)
        if eta[j] == 0:
            oz = PauliOp(total, 0, 0, op.z | (1 << anc))
            readouts.append(PauliOp.single(total, "X", anc))
            basis.append("X")
        else:
            oz = PauliOp(total, 0, 1 << anc, op.z)
            readouts.append(PauliOp.single(total, "Y", anc))
            basis.append("Y")
        omega_z.append(oz)
        corrections.append(PauliOp(total, 0, 0, op.z))
        fexp = (op.phase - eta[j]) % 4
        if fexp not in (0, 2):
            raise ValueError(f"operator {j} has a non-Hermitian phase")
        factors.append(1 if fexp == 0 else -1)
    for group in (omega_x, omega_z):
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                if not group[i].commutes_with(group[j]):
                    raise InternalError("plan operators do not commute (bug)")
    return MeasurementPlan(
        memory_qubits=n, operators=tuple(theta), eta=eta, ancilla=ancilla,
        blocks=blocks, omega_x=tuple(omega_x), omega_z=tuple(omega_z),
        readouts=tuple(readouts), readout_basis=tuple(basis),
        corrections=tuple(corrections), outcome_factor=tuple(factors),
        needs_a2_block=any(e == 1 for e in eta),
    )
