"""Tanner-graph operations on a check matrix: induced subgraphs and the
two degree-reducing duplications.

Rows of the check matrix are checks and columns are bits.  Bit
duplication splits bit u: a new bit u' and a new weight-2 check
{u, u'} are added, and a chosen subset of u's checks is rewired to u'.
Check duplication is the mirror operation: a new bit u' and a new check
{u'} ∪ B are added, and the bits B are rewired from check a to the new
check, which u' joins as well.  Either way the new bit is appended as
the last column and the new check as the last row, so earlier indices
never move.  Codeword spaces before and after are in bijection: the new
bit's value is forced (v(u') = v(u) for a bit duplication, v(u') = sum
over the rewired bits for a check duplication).
"""

from __future__ import annotations

from collections.abc import Iterable

from .gf2 import Gf2Matrix


def bit_duplication(h: Gf2Matrix, u: int, cu: Iterable[int]) -> Gf2Matrix:
    """Duplicate bit u, rewiring the checks in cu to the new bit."""
    if not 0 <= u < h.cols:
        raise ValueError(f"bit {u} is not in the graph")
    rows = list(h.bits)
    pair = (1 << u) | (1 << h.cols)
    for a in set(cu):
        if not (0 <= a < h.rows and rows[a] >> u & 1):
            raise ValueError(f"check {a} is not adjacent to bit {u}")
        rows[a] ^= pair
    rows.append(pair)
    return Gf2Matrix(rows, h.cols + 1)


def check_duplication(h: Gf2Matrix, a: int, ba: Iterable[int]) -> Gf2Matrix:
    """Duplicate check a, rewiring the bits in ba to the new check."""
    if not 0 <= a < h.rows:
        raise ValueError(f"check {a} is not in the graph")
    moved = 1 << h.cols
    for u in set(ba):
        if not (0 <= u < h.cols and h.bits[a] >> u & 1):
            raise ValueError(f"bit {u} is not adjacent to check {a}")
        moved |= 1 << u
    rows = list(h.bits)
    rows[a] ^= moved
    rows.append(moved)
    return Gf2Matrix(rows, h.cols + 1)


def induced_subgraph(h: Gf2Matrix, support: int
                     ) -> tuple[Gf2Matrix, tuple[int, ...], tuple[int, ...]]:
    """Induced subgraph of a check matrix on a bit-packed bit support.

    Returns (induced matrix, bit columns, check rows): the columns are
    the support bits in ascending order, the rows every check touching
    them.
    """
    cols = []
    m = support
    while m:
        low = m & -m
        cols.append(low.bit_length() - 1)
        m ^= low
    rows = tuple(i for i, r in enumerate(h.bits) if r & support)
    return h.take_cols(cols).take_rows(rows), tuple(cols), rows
