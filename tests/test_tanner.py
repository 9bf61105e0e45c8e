"""Duplication checks on the check matrix, including the codeword bijection."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from qsticker.codes import hgp, repetition_check
from qsticker.gf2 import Gf2Matrix, kernel_basis
from qsticker.tanner import bit_duplication, check_duplication, induced_subgraph


def codeword_set(m):
    """All codewords of a check matrix, bit-packed (exhaustive)."""
    out = {0}
    for b in kernel_basis(m).bits:
        out |= {v ^ b for v in out}
    return out


def bit_neighbors(h, u):
    return tuple(a for a in range(h.rows) if h.bits[a] >> u & 1)


def check_neighbors(h, a):
    return tuple(u for u in range(h.cols) if h.bits[a] >> u & 1)


def random_graph(rng, nbits, nchecks, density=0.5):
    """Check matrix of a random Tanner graph (edges drawn bit-major)."""
    rows = [0] * nchecks
    for u in range(nbits):
        for a in range(nchecks):
            if rng.random() < density:
                rows[a] |= 1 << u
    return Gf2Matrix(rows, nbits)


def test_duplication_appends_new_bit_and_check_last():
    h = repetition_check(5)  # check i is {i, i+1}
    g = bit_duplication(h, 2, (2,))
    assert g.shape == (h.rows + 1, h.cols + 1)
    # the old block loses exactly (check 2, bit 2)
    assert g.take_rows(range(4)).take_cols(range(5)) == h.add(
        Gf2Matrix([0, 0, 1 << 2, 0], 5))
    assert bit_neighbors(g, 5) == (2, 4)  # rewired check + the new check
    assert check_neighbors(g, 4) == (2, 5)  # the new check is {u, u'}

    g = check_duplication(h, 1, (2,))
    assert g.shape == (h.rows + 1, h.cols + 1)
    # the old block loses exactly (check 1, bit 2)
    assert g.take_rows(range(4)).take_cols(range(5)) == h.add(
        Gf2Matrix([0, 1 << 2, 0, 0], 5))
    assert bit_neighbors(g, 5) == (1, 4)  # the old check + the new check
    assert check_neighbors(g, 4) == (2, 5)  # the rewired bit + the new bit


def test_bit_duplication_basic_rewiring():
    # bit 0 with checks {0,1}; rewire {1} to the copy
    h = Gf2Matrix([1, 1], 1)
    g2 = bit_duplication(h, 0, (1,))
    assert bit_neighbors(g2, 0) == (0, 2)  # keeps check 0, gains the new check
    assert bit_neighbors(g2, 1) == (1, 2)  # copy holds check 1 and the new check
    assert check_neighbors(g2, 2) == (0, 1)


def test_bit_duplication_empty_subset():
    h = repetition_check(3)
    g2 = bit_duplication(h, 1, ())
    old = codeword_set(h)
    new = codeword_set(g2)
    assert len(old) == len(new)


def test_bit_duplication_rejects_nonadjacent_check():
    h = repetition_check(3)
    with pytest.raises(ValueError):
        bit_duplication(h, 0, (1,))  # check 1 touches bits 1,2 only


def test_check_duplication_splits_weight():
    m = Gf2Matrix([0b1111], 4)
    g2 = check_duplication(m, 0, (2, 3))
    assert g2.row_weight(0) == 3  # bits 0,1 + the new bit
    assert g2.row_weight(1) == 3  # bits 2,3 + the new bit
    assert bit_neighbors(g2, 4) == (0, 1)


def test_check_duplication_rejects_nonadjacent_bit():
    h = repetition_check(3)
    with pytest.raises(ValueError):
        check_duplication(h, 0, (2,))


def test_max_degree_examples():
    assert repetition_check(5).wmax() == 2
    assert Gf2Matrix.identity(3).wmax() == 1
    hx = hgp(repetition_check(3), repetition_check(3)).hx
    assert hx.wmax() == 4


def extension_matches_bijection(h, h2, kind, payload):
    """Exhaustively verify the codeword bijection of a single duplication."""
    old_words = codeword_set(h)
    new_words = codeword_set(h2)
    if len(old_words) != len(new_words):
        return False
    new_bit = h2.cols - 1
    for w in new_words:
        restriction = w & ((1 << h.cols) - 1)
        if restriction not in old_words:
            return False
        vu_new = (w >> new_bit) & 1
        if kind == "bit":
            u = payload
            if vu_new != ((w >> u) & 1):
                return False
        else:
            ba = payload
            expected = 0
            for u in ba:
                expected ^= (w >> u) & 1
            if vu_new != expected:
                return False
    return True


def test_duplication_codeword_bijection_seeded():
    rng = random.Random(909)
    for trial in range(30):
        nbits = rng.randrange(3, 9)
        nchecks = rng.randrange(1, 5)
        h = random_graph(rng, nbits, nchecks)
        bits_with_edges = [u for u in range(h.cols) if h.col_weight(u)]
        if not bits_with_edges:
            continue
        u = rng.choice(bits_with_edges)
        cu = tuple(a for a in bit_neighbors(h, u) if rng.random() < 0.5)
        g2 = bit_duplication(h, u, cu)
        assert extension_matches_bijection(h, g2, "bit", u)

        checks_with_edges = [a for a in range(h.rows) if h.bits[a]]
        a = rng.choice(checks_with_edges)
        ba = tuple(b for b in check_neighbors(h, a) if rng.random() < 0.5)
        g3 = check_duplication(h, a, ba)
        assert extension_matches_bijection(h, g3, "check", ba)


def test_kernel_dimension_invariant_under_duplication():
    h = repetition_check(5)
    dim0 = kernel_basis(h).rows
    g2 = bit_duplication(h, 2, (bit_neighbors(h, 2)[0],))
    assert kernel_basis(g2).rows == dim0


def test_degrees_never_increase_for_targets():
    rng = random.Random(4)
    for _ in range(10):
        h = random_graph(rng, 6, 4)
        bits_with_edges = [u for u in range(h.cols) if h.col_weight(u)]
        if not bits_with_edges:
            continue
        u = rng.choice(bits_with_edges)
        nb = bit_neighbors(h, u)
        cu = nb[: max(1, len(nb) // 2)]
        g2 = bit_duplication(h, u, cu)
        assert g2.col_weight(u) <= h.col_weight(u) + 1 - len(cu) + 0
        # the target's degree after: kept checks + the fresh pairing check
        assert g2.col_weight(u) == h.col_weight(u) - len(cu) + 1


@st.composite
def supports(draw):
    """(h, support, cache): a random check matrix, a bit support, and
    whether h's transpose is cached beforehand."""
    n = draw(st.integers(0, 14))
    h = Gf2Matrix(draw(st.lists(st.integers(0, (1 << n) - 1), max_size=10)), n)
    return h, draw(st.integers(0, (1 << n) - 1)), draw(st.booleans())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(supports())
def test_induced_subgraph_matches_rows_then_columns(case):
    h, support, cache = case
    if cache:
        h.transpose()
    induced, cols, rows = induced_subgraph(h, support)
    assert cols == tuple(u for u in range(h.cols) if support >> u & 1)
    assert rows == tuple(a for a, r in enumerate(h.bits) if r & support)
    assert induced == h.take_rows(rows).take_cols(cols)
