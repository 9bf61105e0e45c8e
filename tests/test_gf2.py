"""Exact-arithmetic checks for the GF(2) core, with brute-force oracles."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from qsticker.gf2 import (
    Gf2Matrix,
    RowReducer,
    inverse,
    kernel_basis,
    kernel_complement,
    rank,
    row_basis,
    rref,
    set_bits,
    solve_left,
    standard_form,
    subspace_intersect,
)


def complete_basis(span_rows, inside):
    """Extend rs(span_rows) to rs(inside) with rows of `inside`, in order.

    The oracle for `kernel_complement` and for the dressing matrix's old
    completion construction.  Requires rs(span_rows) ⊆ rs(inside).
    """
    reducer = RowReducer(span_rows.bits)
    return Gf2Matrix([row for row in inside.bits if reducer.add(row)],
                     span_rows.cols)


def random_matrix(rng, rows, cols, density=0.5):
    return Gf2Matrix(
        [
            sum((1 << j) for j in range(cols) if rng.random() < density)
            for _ in range(rows)
        ],
        cols,
    )


def span_set(m):
    """All 2^rank vectors in rs(m), as a set of bit-packed ints."""
    basis = [r for r in row_basis(m).bits]
    out = {0}
    for b in basis:
        out |= {v ^ b for v in out}
    return out


def repetition_lambda(n):
    return Gf2Matrix([(1 << i) | (1 << (i + 1)) for i in range(n - 1)], n)


def test_rank_trivial_cases():
    assert rank(Gf2Matrix.identity(3)) == 3
    assert rank(Gf2Matrix.zeros(2, 4)) == 0
    assert rank(repetition_lambda(5)) == 4


def test_empty_shapes_are_representable():
    z = Gf2Matrix.zeros(0, 5)
    assert z.shape == (0, 5)
    assert kernel_basis(z).rows == 5
    zc = Gf2Matrix.zeros(3, 0)
    assert rank(zc) == 0
    assert kernel_basis(zc).rows == 0


def test_kernel_basis_repetition_code():
    k = kernel_basis(repetition_lambda(5))
    assert k.rows == 1
    assert k.bits[0] == 0b11111


def test_kernel_basis_identity_empty():
    assert kernel_basis(Gf2Matrix.identity(2)).rows == 0


def test_kernel_basis_against_exhaustive_enumeration():
    rng = random.Random(1234)
    for _ in range(20):
        m = random_matrix(rng, 4, 8)
        k = kernel_basis(m)
        # oracle: every vector in F_2^8 with m v^T = 0
        oracle = {v for v in range(1 << 8) if m.mul_vec(v) == 0}
        assert span_set(k) == oracle
        assert k.rows == 8 - rank(m)
        for r in k.bits:
            assert m.mul_vec(r) == 0


def test_rank_nullity_exhaustive_small_widths():
    rng = random.Random(7)
    for cols in range(0, 13):
        for _ in range(8):
            m = random_matrix(rng, rng.randrange(0, 7), cols)
            assert rank(m) + kernel_basis(m).rows == cols


def test_solve_left_identity_and_unsolvable():
    e2 = Gf2Matrix.identity(2)
    b = Gf2Matrix([0b01], 2)
    x = solve_left(e2, b)
    assert x == b  # canonical particular solution: X = (1,0) exactly
    a = Gf2Matrix([0b01], 2)  # rs = {00, 10}
    assert solve_left(a, Gf2Matrix([0b10], 2)) is None


def test_solve_left_random_roundtrip():
    rng = random.Random(99)
    for _ in range(40):
        a = random_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 9))
        x_true = random_matrix(rng, 3, a.rows)
        b = x_true.mul(a)
        x = solve_left(a, b)
        assert x is not None
        assert x.mul(a) == b


def test_solve_left_deterministic():
    rng = random.Random(5)
    a = random_matrix(rng, 4, 6)
    b = random_matrix(rng, 2, 4).mul(a)
    assert solve_left(a, b) == solve_left(a, b)


def test_solve_left_rank_deficient_particular_solution():
    # the pivot for column 0 swaps row 2 into slot 0, so column 1 pivots
    # on row 1: the solution is row 1, not the lowest-index row 0
    a = Gf2Matrix([0b10, 0b10, 0b01], 2)
    x = solve_left(a, Gf2Matrix([0b10], 2))
    assert x.bits == (0b010,)
    assert x.mul(a) == Gf2Matrix([0b10], 2)


def test_subspace_intersect_trivial():
    full = Gf2Matrix([0b01, 0b10], 2)
    line = Gf2Matrix([0b11], 2)
    assert span_set(subspace_intersect(full, line)) == {0, 0b11}
    a = Gf2Matrix([0b01], 2)
    b = Gf2Matrix([0b10], 2)
    assert subspace_intersect(a, b).rows == 0


def test_subspace_intersect_against_exhaustive_enumeration():
    rng = random.Random(321)
    for trial in range(20):
        cols = 8 if trial % 2 else 10
        a = random_matrix(rng, 4, cols)
        b = random_matrix(rng, 3, cols)
        got = subspace_intersect(a, b)
        oracle = span_set(a) & span_set(b)
        assert span_set(got) == oracle
        for r in got.bits:
            row = Gf2Matrix([r], cols)
            assert solve_left(a, row) is not None
            assert solve_left(b, row) is not None


def test_standard_form_cases():
    m = Gf2Matrix([0b101, 0b010], 3)  # (E_2 | extra) already standard
    r, pi, js = m and standard_form(m)
    assert js.take_cols(range(2)) == Gf2Matrix.identity(2)
    single = Gf2Matrix([0b11], 2)
    _, pi1, js1 = standard_form(single)
    assert js1 == Gf2Matrix([0b11], 2) and pi1 == (0, 1)
    with pytest.raises(ValueError):
        standard_form(Gf2Matrix([0b11, 0b11], 2))


def test_standard_form_random_reconstruction():
    rng = random.Random(8)
    done = 0
    while done < 20:
        m = random_matrix(rng, 3, 6)
        if rank(m) < 3:
            continue
        r, pi, js = standard_form(m)
        assert js.take_cols(range(3)) == Gf2Matrix.identity(3)
        assert r.mul(m).permute_cols(pi) == js
        assert rank(r) == 3  # invertible transform
        done += 1


def test_inverse_roundtrip():
    rng = random.Random(17)
    done = 0
    while done < 10:
        m = random_matrix(rng, 5, 5)
        if rank(m) < 5:
            continue
        assert m.mul(inverse(m)) == Gf2Matrix.identity(5)
        done += 1


def as_array(m):
    return np.array(m.to_lists(), dtype=np.uint8).reshape(m.shape)


def test_mul_transpose_and_kron_against_dense():
    rng = random.Random(2)
    a = random_matrix(rng, 3, 4)
    b = random_matrix(rng, 5, 4)
    got = as_array(a.mul_transpose(b))
    want = (as_array(a) @ as_array(b).T) % 2
    assert np.array_equal(got, want)
    c = random_matrix(rng, 2, 3)
    d = random_matrix(rng, 3, 2)
    assert np.array_equal(as_array(c.kron(d)), np.kron(as_array(c), as_array(d)) % 2)


def test_complete_basis_extends_span():
    m = Gf2Matrix([0b011], 3)
    inside = kernel_basis(Gf2Matrix.zeros(0, 3))  # all of F_2^3
    ext = complete_basis(m, inside)
    assert ext.rows == 2
    assert rank(m.vstack(ext)) == 3


def test_determinism_bit_identical():
    rng1 = random.Random(77)
    rng2 = random.Random(77)
    m1 = random_matrix(rng1, 6, 10)
    m2 = random_matrix(rng2, 6, 10)
    assert m1 == m2
    assert rref(m1) == rref(m2)
    assert kernel_basis(m1).bits == kernel_basis(m2).bits


# -- property tests against oracles that share no code with gf2 ----------

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


def enumerated_span(bits):
    """Every XOR of a subset of `bits`, by plain enumeration."""
    out = {0}
    for b in bits:
        out |= {v ^ b for v in out}
    return out


@st.composite
def matrices(draw, cols=None, max_rows=8, max_cols=10):
    if cols is None:
        cols = draw(st.integers(0, max_cols))
    rows = draw(st.lists(st.integers(0, (1 << cols) - 1), max_size=max_rows))
    return Gf2Matrix(rows, cols)


@st.composite
def matrix_pairs(draw):
    """(a, b) of equal width; b mixes random rows with vectors of rs(a)."""
    a = draw(matrices())
    inside = sorted(enumerated_span(a.bits))
    b_rows = draw(st.lists(
        st.one_of(st.integers(0, (1 << a.cols) - 1), st.sampled_from(inside)),
        max_size=8))
    return a, Gf2Matrix(b_rows, a.cols)


def sympy_rref(m):
    k = GF(2)
    dm = DomainMatrix([[k(v) for v in row] for row in m.to_lists()],
                      m.shape, k)
    red, pivots = dm.rref()
    return [[int(v) for v in row] for row in red.to_list()], list(pivots)


@PROPERTY
@given(matrices())
def test_rank_and_rref_match_sympy(m):
    want_rows, want_pivots = sympy_rref(m)
    red, pivots = rref(m)
    assert red.to_lists() == want_rows
    assert pivots == want_pivots
    assert rank(m) == len(want_pivots)


@PROPERTY
@given(matrix_pairs())
@example((Gf2Matrix.zeros(0, 5), Gf2Matrix([0b10110, 0b00011], 5)))
@example((Gf2Matrix([0b101, 0b011], 3), Gf2Matrix.zeros(0, 3)))
@example((Gf2Matrix([0b0110, 0b0110, 0], 4), Gf2Matrix([0b0110, 0b1001], 4)))
@example((Gf2Matrix.zeros(2, 0), Gf2Matrix.zeros(1, 0)))
def test_subspace_intersect_matches_enumeration(pair):
    a, b = pair
    got = subspace_intersect(a, b)
    assert got.cols == a.cols
    assert enumerated_span(got.bits) == (enumerated_span(a.bits)
                                         & enumerated_span(b.bits))
    assert len(enumerated_span(got.bits)) == 1 << got.rows  # a basis
    assert got.to_lists() == sympy_rref(got)[0]  # in RREF


@PROPERTY
@given(matrix_pairs())
def test_solve_left_round_trip_and_unsolvable_exactly_outside_span(pair):
    a, b = pair
    x = solve_left(a, b)
    inside = enumerated_span(a.bits)
    if all(row in inside for row in b.bits):
        assert x is not None
        assert x.shape == (b.rows, a.rows)
        assert x.mul(a) == b
    else:
        assert x is None
    reducer = RowReducer(a.bits)
    assert {r for r in range(1 << a.cols) if reducer.reduce(r) == 0} == inside


def reduce_then_insert(reducer, row):
    """The reference `RowReducer.add`: reduce the row, then insert it."""
    red = reducer.reduce(row)
    if red == 0:
        return False
    reducer.pivots[red.bit_length() - 1] = red
    return True


@PROPERTY
@given(matrices(max_rows=12))
@example(Gf2Matrix([0b110, 0b011, 0b101, 0, 0b110], 3))
def test_row_reducer_add_matches_reduce_then_insert(m):
    reducer, oracle = RowReducer(), RowReducer()
    for row in m.bits:
        assert reducer.add(row) == reduce_then_insert(oracle, row)
        assert reducer.pivots == oracle.pivots
    assert RowReducer(m.bits).pivots == oracle.pivots


@PROPERTY
@given(matrices())
@example(Gf2Matrix.zeros(0, 4))
def test_standard_form_reconstructs_or_rejects(m):
    if len(enumerated_span(m.bits)) != 1 << m.rows:
        with pytest.raises(ValueError):
            standard_form(m)
        return
    r, pi, js = standard_form(m)
    assert sorted(pi) == list(range(m.cols))
    assert list(pi[m.rows:]) == sorted(pi[m.rows:])
    assert js.take_cols(range(m.rows)) == Gf2Matrix.identity(m.rows)
    assert r.mul(m).permute_cols(pi) == js
    assert rank(r) == m.rows


@PROPERTY
@given(matrices())
@example(Gf2Matrix.zeros(0, 4))
@example(Gf2Matrix.zeros(3, 0))
def test_kernel_basis_rank_nullity(m):
    assert kernel_basis(m).rows + rank(m) == m.cols


@PROPERTY
@given(matrices())
def test_kernel_basis_orthogonal_to_rows(m):
    assert m.mul_transpose(kernel_basis(m)).is_zero()


# -- the per-bit, per-row-pair and per-free-column loops the kernels
# replaced, kept as oracles ------------------------------------------------


def take_cols_per_bit(m, idx):
    out = []
    for r in m.bits:
        acc = 0
        for jj, j in enumerate(idx):
            acc |= ((r >> j) & 1) << jj
        out.append(acc)
    return Gf2Matrix(out, len(idx))


def mul_transpose_per_pair(a, b):
    out = []
    for x in a.bits:
        acc = 0
        for j, y in enumerate(b.bits):
            acc |= ((x & y).bit_count() & 1) << j
        out.append(acc)
    return Gf2Matrix(out, b.rows)


def max_col_weight_per_bit(m):
    counts = [0] * m.cols
    for r in m.bits:
        while r:
            j = r.bit_length() - 1
            counts[j] += 1
            r ^= 1 << j
    return max(counts, default=0)


def kernel_basis_per_free_column(m):
    red, pivots = rref(m)
    rows = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = 1 << f
        for i, c in enumerate(pivots):
            if red.bits[i] & (1 << f):
                v |= 1 << c
        rows.append(v)
    return row_basis(Gf2Matrix(rows, m.cols))


@st.composite
def column_picks(draw):
    """(m, idx): prefix and other ranges, or index lists unsorted and
    with repeats."""
    m = draw(matrices(max_cols=40))
    cols = st.integers(0, m.cols)
    idx = draw(st.one_of(
        st.builds(range, cols),
        st.builds(range, cols, cols, st.integers(1, 3)),
        st.lists(st.integers(0, max(m.cols - 1, 0)), max_size=2 * m.cols)))
    return m, idx


@PROPERTY
@given(column_picks())
@example((Gf2Matrix.zeros(0, 4), [3, 0, 3]))
@example((Gf2Matrix.zeros(3, 0), range(0)))
@example((Gf2Matrix([0b1011, 0b0110], 4), range(4)))
def test_take_cols_matches_per_bit_loop(pick):
    m, idx = pick
    assert m.take_cols(idx) == take_cols_per_bit(m, idx)


@PROPERTY
@given(matrices(max_cols=30).flatmap(
    lambda m: st.tuples(st.just(m), st.permutations(range(m.cols)))))
def test_permute_cols_matches_per_bit_loop(pair):
    m, perm = pair
    assert m.permute_cols(perm) == take_cols_per_bit(m, perm)


@st.composite
def sparse_matrices(draw, cols=None):
    """A matrix of random shape, 0 rows or 0 columns included, whose
    bits are set at a random density from empty to full."""
    if cols is None:
        cols = draw(st.integers(0, 30))
    rows = draw(st.integers(0, 10))
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.9, 1.0]))
    return random_matrix(random.Random(draw(st.integers(0, 2**32))),
                         rows, cols, density)


@st.composite
def transpose_pairs(draw):
    """(a, b) of equal width: uniform, dense kernel-basis, or rows of
    separately drawn densities."""
    a = draw(st.one_of(matrices(max_cols=30), sparse_matrices()))
    b = draw(st.one_of(matrices(cols=a.cols), sparse_matrices(cols=a.cols)))
    if draw(st.booleans()):
        a, b = kernel_basis(b), kernel_basis(a)
    return a, b


def fresh(m):
    """An equal matrix with no transpose cached."""
    return Gf2Matrix(m.bits, m.cols)


def assert_no_cycle(m):
    seen = set()
    while m is not None:
        assert id(m) not in seen, "a _t chain leads back to a matrix on it"
        seen.add(id(m))
        m = m._t


def transpose_lowest_bit_first(m):
    out = [0] * m.cols
    for i, r in enumerate(m.bits):
        while r:
            low = r & -r
            out[low.bit_length() - 1] |= 1 << i
            r ^= low
    return Gf2Matrix(out, m.rows)


@PROPERTY
@given(st.one_of(matrices(max_cols=40), sparse_matrices()))
@example(Gf2Matrix.zeros(0, 4))
@example(Gf2Matrix.zeros(3, 0))
@example(Gf2Matrix.zeros(0, 0))
def test_transpose_matches_lowest_bit_walk(m):
    plain = fresh(m)
    t = m.transpose()
    assert t == transpose_lowest_bit_first(m)
    assert t.shape == (m.cols, m.rows)
    # cached for m's lifetime, invisible to == and hash, and no cycle
    assert m.transpose() is t and t.transpose() == m
    assert m == plain and hash(m) == hash(plain) and len({m, plain}) == 1
    assert_no_cycle(m)


@PROPERTY
@given(transpose_pairs())
@example((Gf2Matrix.zeros(0, 3), Gf2Matrix([0b101], 3)))
@example((Gf2Matrix([0b11], 2), Gf2Matrix.zeros(0, 2)))
@example((Gf2Matrix.zeros(2, 0), Gf2Matrix.zeros(3, 0)))
@example((Gf2Matrix([0b111] * 4, 3), Gf2Matrix([0b001], 3)))
@example((Gf2Matrix([0b001], 3), Gf2Matrix([0b111] * 4, 3)))
def test_mul_transpose_matches_per_row_pair_loop(pair):
    want = mul_transpose_per_pair(*pair)
    # every cache state: neither, either or both operands transposed first
    for cache_a, cache_b in ((0, 0), (1, 0), (0, 1), (1, 1)):
        a, b = fresh(pair[0]), fresh(pair[1])
        if cache_a:
            a.transpose()
        if cache_b:
            b.transpose()
        got = a.mul_transpose(b)
        assert got == want
        if got._t is not None:
            assert got._t == transpose_lowest_bit_first(want)
        for m in (a, b, got):
            assert_no_cycle(m)


@PROPERTY
@given(matrices(max_cols=30))
@example(Gf2Matrix.zeros(0, 4))
@example(Gf2Matrix.zeros(3, 0))
@example(Gf2Matrix.identity(5))
def test_kernel_basis_matches_per_free_column_loop(m):
    assert kernel_basis(m) == kernel_basis_per_free_column(m)


@st.composite
def kernel_spans(draw):
    """(h, span): span rows are random combinations of ker h rows, with
    repeats and zero rows allowed, or all of a shuffled kernel basis."""
    h = draw(matrices(max_cols=30))
    kern = kernel_basis(h).bits
    if draw(st.booleans()):
        rows = list(draw(st.permutations(kern)))
    else:
        picks = draw(st.lists(st.integers(0, (1 << len(kern)) - 1),
                              max_size=len(kern) + 3))
        rows = []
        for pick in picks:
            acc = 0
            for i, r in enumerate(kern):
                if pick >> i & 1:
                    acc ^= r
            rows.append(acc)
        rows += draw(st.lists(st.sampled_from(rows), max_size=2)) if rows else []
    return h, Gf2Matrix(rows, h.cols)


_H = Gf2Matrix([0b00110, 0b00011, 0b11000], 5)


@PROPERTY
@given(kernel_spans())
@example((_H, Gf2Matrix.zeros(0, 5)))
@example((_H, kernel_basis(_H)))
@example((_H, Gf2Matrix([0b00111] * 3, 5)))
@example((Gf2Matrix.zeros(0, 4), Gf2Matrix([0b0101, 0b1010, 0b1111], 4)))
@example((Gf2Matrix.zeros(3, 0), Gf2Matrix.zeros(2, 0)))
def test_kernel_complement_matches_completion_of_kernel_basis(pair):
    h, span = pair
    kern = kernel_basis(h)
    out = kernel_complement(h, span)
    assert out == complete_basis(span, kern)
    assert out.rows == kern.rows - rank(span)
    if span.rows == 0:
        assert out == kern


def test_kernel_complement_rejects_a_width_mismatch():
    with pytest.raises(ValueError):
        kernel_complement(Gf2Matrix.zeros(1, 3), Gf2Matrix.zeros(1, 4))


def test_constructor_rejects_rows_outside_the_column_range():
    for bits, cols in (([-1], 3), ([0b1000], 3), ([0b1, 0b100], 2), ([1], 0)):
        with pytest.raises(ValueError, match="outside the column range"):
            Gf2Matrix(bits, cols)
    with pytest.raises(ValueError):
        Gf2Matrix([], -1)
    assert Gf2Matrix([0b111, 0], 3).bits == (0b111, 0)


def test_widen_appends_zero_columns():
    m = Gf2Matrix([0b101, 0b011], 3)
    assert m.widen(5) == m.hstack(Gf2Matrix.zeros(2, 2))
    assert m.widen(3) == m and m.widen(3).bits is m.bits
    with pytest.raises(ValueError, match="^cannot widen 3 columns to 2$"):
        m.widen(2)


def test_take_cols_rejects_out_of_range_indices():
    m = Gf2Matrix([0b101, 0b011], 3)
    for idx in ([0, 5], [3], [-1], [0, -3], range(4), range(-1, 2)):
        with pytest.raises(IndexError):
            m.take_cols(idx)
    assert m.take_cols([]) == Gf2Matrix.zeros(2, 0)


def test_permute_cols_rejects_non_permutations():
    m = Gf2Matrix([0b101, 0b011], 3)
    for perm in ([0, 0, 1], [0, 1], [0, 1, 2, 3], [1, 2, 3], [-1, 0, 1]):
        with pytest.raises(ValueError):
            m.permute_cols(perm)


@PROPERTY
@given(sparse_matrices())
@example(Gf2Matrix.zeros(0, 4))
@example(Gf2Matrix.zeros(3, 0))
@example(Gf2Matrix.zeros(0, 0))
def test_max_col_weight_matches_per_bit_count(m):
    assert m.max_col_weight() == max_col_weight_per_bit(m)


@PROPERTY
@given(st.integers(0, (1 << 300) - 1))
@example(0)
@example(1 << 299)
def test_set_bits_lists_positions_in_ascending_order(x):
    assert set_bits(x) == [j for j in range(x.bit_length()) if x >> j & 1]


def test_set_bit_walks_golden_digest(tmp_path):
    """SHA-256 of every output a set-bit walk or position scan writes:
    alist and dense text, Pauli strings, support unions, crowd numbers,
    induced subgraphs, Kronecker products and kernel bases of seeded
    inputs.  Recorded before those walks shared one helper."""
    import hashlib

    from qsticker.codes import OperatorSet, crowd_numbers, support_union
    from qsticker.io import save_check_matrix
    from qsticker.pauli import PauliOp
    from qsticker.tanner import induced_subgraph

    rng = random.Random(23)
    digest = hashlib.sha256()
    # a zero-row, a zero-column and an empty-column matrix, then seeded ones
    mats = [Gf2Matrix.zeros(0, 5), Gf2Matrix.zeros(4, 0),
            Gf2Matrix([0b0101, 0b0001, 0b0100], 4)]
    mats += [random_matrix(rng, rng.randint(1, 12), rng.randint(1, 40),
                           rng.choice((0.1, 0.3, 0.6))) for _ in range(30)]
    for i, m in enumerate(mats):
        for fmt in ("alist", "dense"):
            path = tmp_path / f"m{i}.{fmt}"
            save_check_matrix(m, str(path), fmt)
            digest.update(path.read_bytes())
        sigma = OperatorSet("Z", m)
        digest.update(repr((support_union(sigma), crowd_numbers(sigma))).encode())
        support = rng.getrandbits(m.cols)
        sub, cols, rows = induced_subgraph(m, support)
        digest.update(repr((sub.bits, sub.cols, cols, rows)).encode())
        kb = kernel_basis(m)
        digest.update(repr((kb.bits, kb.cols)).encode())
    for a, b in zip(mats, mats[1:] + mats[:1]):
        if a.cols * b.cols <= 400:
            k = a.kron(b)
            digest.update(repr((k.bits, k.cols)).encode())
    ops = [PauliOp(n, phase, 0, 0) for n in (1, 5) for phase in range(4)]
    ops += [PauliOp(n, rng.randrange(4), rng.getrandbits(n), rng.getrandbits(n))
            for n in (1, 2, 3, 7, 12, 30) for _ in range(8)]
    digest.update("\n".join(map(str, ops)).encode())
    assert digest.hexdigest() == (
        "0d33abd30f88e40cba0c572ec983da9d8e7afa509af5222a4319106979ffe169")
