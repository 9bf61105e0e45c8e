"""Pauli algebra, regularisation, and plan-building checks.

Phase conventions are validated against dense matrices built with
numpy Kronecker products, and regularisation against exhaustive group
enumeration.
"""

import random

import numpy as np
import pytest

from qsticker.pauli import (
    PauliOp,
    build_measurement_plan,
    is_regular,
    parse_pauli,
    regularise,
)

I2 = np.eye(2)
XM = np.array([[0, 1], [1, 0]], dtype=complex)
ZM = np.array([[1, 0], [0, -1]], dtype=complex)


def dense(op: PauliOp) -> np.ndarray:
    """Independent dense form: i^p X(x) Z(z) via Kronecker products."""
    mx = np.eye(1, dtype=complex)
    for j in range(op.n):  # qubit 0 is the leftmost tensor factor
        mx = np.kron(mx, XM if (op.x >> j) & 1 else I2)
    mz = np.eye(1, dtype=complex)
    for j in range(op.n):
        mz = np.kron(mz, ZM if (op.z >> j) & 1 else I2)
    return (1j ** op.phase) * mx @ mz


def random_pauli(rng, n, hermitian=True):
    x = rng.getrandbits(n)
    z = rng.getrandbits(n)
    phase = rng.randrange(4)
    if hermitian:
        phase = (x & z).bit_count() % 2 + 2 * rng.randrange(2)
    return PauliOp(n, phase, x, z)


def test_product_matches_dense():
    rng = random.Random(10)
    for _ in range(40):
        a = random_pauli(rng, 3, hermitian=False)
        b = random_pauli(rng, 3, hermitian=False)
        got = dense(a.mul(b))
        want = dense(a) @ dense(b)
        assert np.allclose(got, want)


def test_commutes_matches_dense():
    rng = random.Random(11)
    for _ in range(40):
        a = random_pauli(rng, 3)
        b = random_pauli(rng, 3)
        da, db = dense(a), dense(b)
        assert a.commutes_with(b) == np.allclose(da @ db, db @ da)


@pytest.mark.parametrize("qubit", [-1, 3, 7])
def test_single_rejects_a_qubit_outside_the_operator(qubit):
    # both ends of the range get one message, not a shift error at -1
    with pytest.raises(ValueError) as exc:
        PauliOp.single(3, "X", qubit)
    assert str(exc.value) == f"qubit {qubit} out of range for 3 qubits"


def test_commutation_examples():
    x1 = parse_pauli("X1", 2)
    z1 = parse_pauli("Z1", 2)
    z2 = parse_pauli("Z2", 2)
    assert not x1.commutes_with(z1)
    assert x1.commutes_with(z2)
    yy = parse_pauli("Y1Y2", 2)
    xx = parse_pauli("X1X2", 2)
    assert yy.commutes_with(xx)


def test_characteristic_number_examples():
    assert parse_pauli("X1Z2", 2).characteristic_number() == 0
    op = parse_pauli("+iX1Z1", 2)
    assert op.characteristic_number() == 1
    assert op.is_hermitian()
    op2 = parse_pauli("+iX1X2Z1", 2)
    assert op2.characteristic_number() == 1
    # Y = iXZ in this convention
    assert parse_pauli("Y1", 1) == parse_pauli("+iX1Z1", 1)


def test_hermiticity_tracks_phase():
    assert parse_pauli("X1Z1", 1).is_hermitian() is False
    assert parse_pauli("+iX1Z1", 1).is_hermitian() is True
    herm = parse_pauli("-Z2", 3)
    assert np.allclose(dense(herm), dense(herm).conj().T)


def test_parse_and_str_round_trip():
    for text in ("+X1Z2", "-iX1Z1", "+Z3", "-X2X4"):
        op = parse_pauli(text, 4)
        assert parse_pauli(str(op), 4) == op
    with pytest.raises(ValueError):
        parse_pauli("X0", 2)
    with pytest.raises(ValueError):
        parse_pauli("Q1", 2)


def test_is_regular_examples():
    a = parse_pauli("X1Z2", 2)
    b = parse_pauli("X2Z1", 2)
    assert a.commutes_with(b)
    assert is_regular([a, b]) is False  # cross parts anticommute
    assert is_regular([parse_pauli("X1", 2), parse_pauli("Z2", 2)]) is True
    assert is_regular([a]) is True  # singleton, vacuous


def test_is_regular_rejects_noncommuting_input():
    with pytest.raises(ValueError):
        is_regular([parse_pauli("X1", 1), parse_pauli("Z1", 1)])


def group_closure(ops):
    """All products of a commuting set, with exact phases."""
    elems = {PauliOp.identity(ops[0].n).key()}
    frontier = [PauliOp.identity(ops[0].n)]
    for g in ops:
        frontier = frontier + [e.mul(g) for e in frontier]
    return {e.key() for e in frontier}


def test_regularise_already_regular():
    theta = [parse_pauli("X1", 3), parse_pauli("Z2", 3)]
    tp, tpp = regularise(theta)
    assert tpp == []
    assert group_closure(tp) == group_closure(theta)


def test_regularise_crossing_pair():
    theta = [parse_pauli("X1Z2", 2), parse_pauli("X2Z1", 2)]
    tp, tpp = regularise(theta)
    assert is_regular(tp) if tp else True
    assert is_regular(tpp) if tpp else True
    merged = tp + tpp
    assert group_closure(merged) == group_closure(theta)


def random_commuting_set(rng, count, n):
    ops = []
    guard = 0
    while len(ops) < count and guard < 2000:
        guard += 1
        cand = random_pauli(rng, n)
        if cand.x == 0 and cand.z == 0:
            continue
        if all(cand.commutes_with(o) for o in ops):
            ops.append(cand)
    return ops


def test_regularise_seeded_sets_preserve_group():
    rng = random.Random(321)
    for _ in range(60):
        theta = random_commuting_set(rng, rng.randrange(2, 6), 6)
        if len(theta) < 2:
            continue
        tp, tpp = regularise(theta)
        if tp:
            assert is_regular(tp)
        if tpp:
            assert is_regular(tpp)
        assert group_closure(tp + tpp) == group_closure(theta)


def test_plan_single_operator_eta0():
    # commuting sub-parts: ancilla in |+>, measure sX Z_A, sZ Z_A, X_A
    sigma = parse_pauli("X1Z2", 2)
    plan = build_measurement_plan([sigma])
    assert plan.total_qubits == 3
    assert plan.blocks == ("A0",)
    assert str(plan.omega_x[0]) == "+X1Z3"
    assert str(plan.omega_z[0]) == "+Z2Z3"
    assert str(plan.readouts[0]) == "+X3"
    assert plan.outcome_factor[0] == 1
    assert str(plan.corrections[0]) == "+Z2"
    assert plan.needs_a2_block is False


def test_plan_single_operator_eta1():
    # anticommuting sub-parts: ancilla in |y+>, outcome -i * nu * muX * muZ
    sigma = parse_pauli("+iX1Z1", 1)
    plan = build_measurement_plan([sigma])
    assert plan.blocks == ("A1",)
    assert str(plan.omega_x[0]) == "+X1Z2"
    assert str(plan.omega_z[0]) == "+X2Z1"
    assert plan.readout_basis == ("Y",)
    assert plan.outcome_factor[0] == 1  # (-i) * (+i) = +1
    neg = parse_pauli("-iX1Z1", 1)
    plan2 = build_measurement_plan([neg])
    assert plan2.outcome_factor[0] == -1
    assert plan2.needs_a2_block is True


def test_plan_two_regular_operators():
    theta = [parse_pauli("X1", 4), parse_pauli("Z2Z3", 4)]
    plan = build_measurement_plan(theta)
    assert plan.total_qubits == 6
    assert len(set(plan.ancilla)) == 2
    for group in (plan.omega_x, plan.omega_z):
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                assert group[i].commutes_with(group[j])


def test_plan_rejects_irregular_set():
    theta = [parse_pauli("X1Z2", 2), parse_pauli("X2Z1", 2)]
    with pytest.raises(ValueError):
        build_measurement_plan(theta)


def test_plan_report_schema():
    plan = build_measurement_plan([parse_pauli("X1Z2", 2)])
    rep = plan.to_report()
    assert rep["schema"] == 1
    assert rep["operators"] == ["+X1Z2"]
    assert any(s["op"] == "measure" for s in rep["steps"])
    assert rep["corrections"][0]["apply"] == "+Z2"
