"""Dense exact linear algebra over GF(2).

Matrices are stored row-major with each row bit-packed into a Python
integer (bit j = column j), so row operations are word-parallel XORs.
Zero-row and zero-column matrices are representable.  A matrix is
immutable and caches its transpose for its lifetime; equality ignores
the cache.  `mul_transpose` walks the cheaper operand.  Three routines
eliminate; each caller takes the cheapest whose output it reads.

* Gauss–Jordan (`_eliminate`), where an RREF or coefficients are read.
  Ties go to the leftmost pivot column, lowest row index, and bases
  come out in RREF, so identical inputs give bit-identical outputs.
* `RowReducer`'s highest-pivot echelon, for span membership and
  `kernel_complement`: the RREF pivots of ker h are the free columns of
  h's highest-pivot echelon.
* The lowest-pivot echelon, for `codes.standard_logicals`: its pivots
  are the RREF pivots, which the golden digests pin for H_X.

Both echelons share one back-substitution, visiting their pivots in
opposite orders.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def set_bits(x: int) -> list[int]:
    """Positions of the set bits of a packed row, in ascending order (walked
    from the top: clearing the highest bit shrinks the int, x & -x does not)."""
    out = []
    while x:
        j = x.bit_length() - 1
        out.append(j)
        x ^= 1 << j
    out.reverse()
    return out


class Gf2Matrix:
    """Immutable dense matrix over GF(2) with bit-packed rows."""

    __slots__ = ("rows", "cols", "bits", "_t")

    def __init__(self, bits: Sequence[int], cols: int):
        if cols < 0:
            raise ValueError("cols must be nonnegative")
        mask = (1 << cols) - 1
        for r in bits:
            if r < 0 or r & ~mask:
                raise ValueError("row has bits outside the column range")
        object.__setattr__(self, "rows", len(bits))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "bits", tuple(bits))
        object.__setattr__(self, "_t", None)

    @classmethod
    def _of(cls, bits: Sequence[int], cols: int) -> "Gf2Matrix":
        """Unchecked constructor for rows this module built inside range(cols)."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", len(bits))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "bits", tuple(bits))
        object.__setattr__(m, "_t", None)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Gf2Matrix is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> "Gf2Matrix":
        return Gf2Matrix([0] * rows, cols)

    @staticmethod
    def identity(n: int) -> "Gf2Matrix":
        return Gf2Matrix([1 << i for i in range(n)], n)

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]], cols: int | None = None) -> "Gf2Matrix":
        """Build from an iterable of 0/1 row iterables."""
        packed = []
        width = cols
        for row in rows:
            row = list(row)
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError("ragged rows")
            bits = 0
            for j, v in enumerate(row):
                if v not in (0, 1):
                    raise ValueError("entries must be 0 or 1")
                bits |= v << j
            packed.append(bits)
        if width is None:
            raise ValueError("cannot infer cols from an empty iterable; pass cols=")
        return Gf2Matrix(packed, width)

    # -- accessors ----------------------------------------------------

    def __getitem__(self, key) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("matrix index out of range")
        return (self.bits[i] >> j) & 1

    def row_list(self, i: int) -> list[int]:
        r = self.bits[i]
        return [(r >> j) & 1 for j in range(self.cols)]

    def to_lists(self) -> list[list[int]]:
        return [self.row_list(i) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Gf2Matrix)
            and self.cols == other.cols
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.cols, self.bits))

    def __repr__(self) -> str:
        return f"Gf2Matrix({self.rows}x{self.cols})"

    def __str__(self) -> str:
        return "\n".join(
            "".join(str((r >> j) & 1) for j in range(self.cols)) for r in self.bits
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.bits)

    # -- weights ------------------------------------------------------

    def row_weight(self, i: int) -> int:
        return self.bits[i].bit_count()

    def col_weight(self, j: int) -> int:
        m = 1 << j
        return sum(1 for r in self.bits if r & m)

    def max_row_weight(self) -> int:
        return max((r.bit_count() for r in self.bits), default=0)

    def max_col_weight(self) -> int:
        return self.transpose().max_row_weight()

    def wmax(self) -> int:
        """Maximum nonzero count over all rows and columns."""
        return max(self.max_row_weight(), self.max_col_weight())

    # -- algebra ------------------------------------------------------

    def transpose(self) -> "Gf2Matrix":
        """Cached on self; the transpose holds no reference back (no cycle)."""
        if self._t is None:
            object.__setattr__(self, "_t", self._flip())
        return self._t

    def _flip(self) -> "Gf2Matrix":
        """The transpose, uncached."""
        out = [0] * self.cols
        for i, r in enumerate(self.bits):
            bit = 1 << i
            while r:
                j = r.bit_length() - 1
                out[j] |= bit
                r ^= 1 << j
        return Gf2Matrix._of(out, self.rows)

    def add(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in add")
        return Gf2Matrix([a ^ b for a, b in zip(self.bits, other.bits)], self.cols)

    def mul(self, other: "Gf2Matrix") -> "Gf2Matrix":
        """Matrix product self @ other over GF(2)."""
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch in mul: {self.shape} @ {other.shape}"
            )
        orows = other.bits
        out = []
        for r in self.bits:
            acc = 0
            while r:
                j = r.bit_length() - 1
                acc ^= orows[j]
                r ^= 1 << j
            out.append(acc)
        return Gf2Matrix._of(out, other.cols)

    def mul_transpose(self, other: "Gf2Matrix") -> "Gf2Matrix":
        """self @ other^T by A·Bᵀ = (B·Aᵀ)ᵀ: walk the side whose partner's
        transpose is cached, else the side with fewer set bits (self on a
        tie).  A flipped product keeps B·Aᵀ as its cached transpose."""
        if self.cols != other.cols:
            raise ValueError(
                f"shape mismatch in mul_transpose: {self.shape} vs {other.shape}"
            )
        if (self._t is None) == (other._t is None):
            walk_self = (sum(r.bit_count() for r in self.bits)
                         <= sum(r.bit_count() for r in other.bits))
        else:
            walk_self = other._t is not None
        if walk_self:
            return self.mul(other.transpose())
        p = other.mul(self.transpose())
        out = p._flip()
        object.__setattr__(out, "_t", p)
        return out

    def mul_vec(self, v: int) -> int:
        """self @ v^T for a bit-packed vector v; returns a bit-packed vector."""
        acc = 0
        for i, r in enumerate(self.bits):
            acc |= ((r & v).bit_count() & 1) << i
        return acc

    def vstack(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        return Gf2Matrix._of(self.bits + other.bits, self.cols)

    def hstack(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        sh = self.cols
        return Gf2Matrix._of(
            [a | (b << sh) for a, b in zip(self.bits, other.bits)],
            self.cols + other.cols,
        )

    def widen(self, cols: int) -> "Gf2Matrix":
        """The same rows at width cols >= self.cols: zero columns appended,
        no row touched."""
        if cols < self.cols:
            raise ValueError(f"cannot widen {self.cols} columns to {cols}")
        return Gf2Matrix._of(self.bits, cols)

    def take_rows(self, idx: Sequence[int]) -> "Gf2Matrix":
        return Gf2Matrix([self.bits[i] for i in idx], self.cols)

    def take_cols(self, idx: Sequence[int]) -> "Gf2Matrix":
        """Columns idx of self, in that order; repeats are allowed.

        A prefix range(n) is a mask on each row; any other index list
        picks rows of self's cached transpose.  Either way the cost
        follows the set bits, not rows × columns.
        """
        if len(idx) and (min(idx) < 0 or max(idx) >= self.cols):
            raise IndexError("column index out of range")
        if idx == range(len(idx)):
            mask = (1 << len(idx)) - 1
            return Gf2Matrix._of([r & mask for r in self.bits], len(idx))
        return self.transpose().take_rows(idx).transpose()

    def kron(self, other: "Gf2Matrix") -> "Gf2Matrix":
        """Kronecker product self ⊗ other."""
        oc, orows = other.cols, other.bits
        out = []
        for a in self.bits:
            shifts = [j * oc for j in set_bits(a)]
            for b in orows:
                acc = 0
                for s in shifts:
                    acc |= b << s
                out.append(acc)
        return Gf2Matrix(out, self.cols * other.cols)

    def permute_cols(self, perm: Sequence[int]) -> "Gf2Matrix":
        """Column permutation: new column j = old column perm[j]."""
        if sorted(perm) != list(range(self.cols)):
            raise ValueError("perm is not a permutation of range(cols)")
        return self.take_cols(perm)


# -- elimination -----------------------------------------------------


def _eliminate(rows: list[int], ncols: int) -> list[int]:
    """Gauss–Jordan in place on the columns < ncols; returns the pivots.

    Leftmost-pivot, lowest-row-index tie-breaking; reduced rows come
    first in pivot order and rows that vanish on the columns < ncols
    sink to the bottom.  Bits at or above ncols ride along, so a caller
    that appends an identity there reads off each row's combination of
    the input rows.
    """
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        mask = 1 << c
        for p in range(r, nrows):
            if rows[p] & mask:
                break
        else:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        wr = rows[r]
        for i in range(nrows):
            if i != r and rows[i] & mask:
                rows[i] ^= wr
        pivots.append(c)
        r += 1
    return pivots


def rref(m: Gf2Matrix) -> tuple[Gf2Matrix, list[int]]:
    """Reduced row echelon form and its pivot columns.

    Zero rows sink to the bottom and are kept (the shape is preserved).
    """
    work = list(m.bits)
    pivots = _eliminate(work, m.cols)
    return Gf2Matrix._of(work, m.cols), pivots


def rank(m: Gf2Matrix) -> int:
    """GF(2) rank."""
    return len(rref(m)[1])


def row_basis(m: Gf2Matrix) -> Gf2Matrix:
    """RREF basis of the row space (zero rows dropped)."""
    red, piv = rref(m)
    return Gf2Matrix(red.bits[: len(piv)], m.cols)


def kernel_basis(m: Gf2Matrix) -> Gf2Matrix:
    """RREF basis of {v : m @ v^T = 0}, one basis vector per row.

    The row count is always cols - rank(m) (rank-nullity).  The vector
    of each free column is read by walking the set bits of the reduced
    rows, then the basis is reduced to RREF.
    """
    red, pivots = rref(m)
    vec = {f: 1 << f for f in sorted(set(range(m.cols)).difference(pivots))}
    keep = sum(vec.values())
    for row, p in zip(red.bits, pivots):
        bit = 1 << p
        for j in set_bits(row & keep):
            vec[j] |= bit
    red2, piv2 = rref(Gf2Matrix._of(list(vec.values()), m.cols))
    return Gf2Matrix(red2.bits[: len(piv2)], m.cols)


def solve_left(a: Gf2Matrix, b: Gf2Matrix) -> Gf2Matrix | None:
    """Find X with X @ a = b, or None if some row of b is outside rs(a).

    The particular solution combines only the rows `_eliminate` picks
    as pivots: for each pivot column in ascending order, the first row
    holding it in the current order, where every pick swaps that row
    into the next slot.  So on rank-deficient `a` the swaps decide
    which rows carry it, not the lowest index: for a with rows 0b10,
    0b10, 0b01 and b with the row 0b10 the solution is 0b010 (row 1),
    not row 0.  Outputs depend on this rule: γ of a measurement paste
    solves against the rank-deficient H_G.
    """
    if a.cols != b.cols:
        raise ValueError("solve_left: column mismatch")
    n = a.cols
    # Reduce (a | E) so each reduced row records its combination of a-rows.
    work = [row | (1 << (n + i)) for i, row in enumerate(a.bits)]
    pivots = _eliminate(work, n)
    colmask = (1 << n) - 1
    xrows = []
    for brow in b.bits:
        acc = brow
        for i, c in enumerate(pivots):
            if acc & (1 << c):
                acc ^= work[i]
        if acc & colmask:
            return None
        xrows.append(acc >> n)
    return Gf2Matrix(xrows, a.rows)


def inverse(m: Gf2Matrix) -> Gf2Matrix:
    """Inverse of a square invertible matrix."""
    if m.rows != m.cols:
        raise ValueError("inverse: matrix is not square")
    x = solve_left(m, Gf2Matrix.identity(m.rows))
    if x is None:
        raise ValueError("inverse: matrix is singular")
    return x


def subspace_intersect(a: Gf2Matrix, b: Gf2Matrix) -> Gf2Matrix:
    """RREF basis of rs(a) ∩ rs(b)."""
    if a.cols != b.cols:
        raise ValueError("subspace_intersect: column mismatch")
    n = a.cols
    # Zassenhaus: rows of (a | a ; b | 0) vanishing on the left half
    # after elimination carry a basis of the intersection on the right.
    work = [row | (row << n) for row in a.bits] + list(b.bits)
    rk = len(_eliminate(work, n))
    return row_basis(Gf2Matrix([row >> n for row in work[rk:]], n))


def standard_form(j: Gf2Matrix) -> tuple[Gf2Matrix, tuple[int, ...], Gf2Matrix]:
    """Standard form (r, pi, js) with r @ j permuted by pi equal to (E | J').

    pi maps new column position -> old column index (pivot columns
    first, then the rest in ascending order).  r is invertible.
    Raises on row-rank-deficient input.
    """
    n = j.cols
    work = [row | (1 << (n + i)) for i, row in enumerate(j.bits)]
    pivots = _eliminate(work, n)
    if len(pivots) != j.rows:
        raise ValueError("standard_form: matrix is row-rank-deficient")
    colmask = (1 << n) - 1
    r = Gf2Matrix([row >> n for row in work], j.rows)
    reduced = Gf2Matrix([row & colmask for row in work], n)
    pivot_set = set(pivots)
    pi = tuple(pivots + [c for c in range(n) if c not in pivot_set])
    return r, pi, reduced.permute_cols(pi)


class RowReducer:
    """Span membership and independence against an accumulating row set.

    `reduce(row) == 0` exactly when row lies in the span of the rows
    added so far; use `solve_left` only when the coefficients are read.
    """

    def __init__(self, rows: Iterable[int] = ()):
        self.pivots: dict[int, int] = {}  # pivot column -> reduced row
        for row in rows:
            self.add(row)

    def copy(self) -> "RowReducer":
        """A reducer over the same rows; adding to it leaves self as it is."""
        out = RowReducer()
        out.pivots.update(self.pivots)
        return out

    def reduce(self, row: int) -> int:
        while row:
            piv = self.pivots.get(row.bit_length() - 1)
            if piv is None:
                return row
            row ^= piv
        return 0

    def add(self, row: int) -> bool:
        """Insert a row; True iff it was independent of the set so far.

        The same pivots and verdict as `reduce` then insert, walked
        inline: factoring a span calls this once per row.
        """
        pivots = self.pivots
        while row:
            top = row.bit_length() - 1
            piv = pivots.get(top)
            if piv is None:
                pivots[top] = row
                return True
            row ^= piv
        return False


def kernel_complement(h: Gf2Matrix, span: Gf2Matrix) -> Gf2Matrix:
    """The rows of `kernel_basis(h)` independent of rs(span) and of the
    kept rows before them, without building that basis.

    Requires rs(span) ⊆ ker h.  Exact by the echelon of h: a `RowReducer`
    over the rows of h pivots on their highest columns, and each echelon
    row holds no bits above its pivot.  The columns that take no pivot
    are free: a kernel vector is fixed by its free bits, each pivot bit
    following from the bits below it.  The one whose only free bit is f
    sets pivot bits above f alone, so it is the RREF kernel row with
    pivot f, and the RREF pivots of ker h are the free columns.  The row
    with pivot f is dropped exactly when some span vector has f as its
    highest free column; reducing the span rows masked to the free
    columns finds those columns as its pivots.
    """
    if h.cols != span.cols:
        raise ValueError("kernel_complement: column mismatch")
    n = h.cols
    echelon = RowReducer(h.bits).pivots
    free = [c for c in range(n) if c not in echelon]
    free_mask = sum(1 << c for c in free)
    covered = RowReducer(r & free_mask for r in span.bits).pivots
    return _back_substitute([f for f in free if f not in covered],
                            sorted(echelon.items()), n)


def _lowest_pivot_echelon(rows: Iterable[int]) -> dict[int, int]:
    """`RowReducer`'s echelon mirrored: pivot -> row, no row bit below its pivot."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            low = (row & -row).bit_length() - 1
            if low not in pivots:
                pivots[low] = row
                break
            row ^= pivots[low]
    return pivots


def _back_substitute(free: Iterable[int], order: Sequence[tuple[int, int]],
                     cols: int) -> Gf2Matrix:
    """Per f in free, the one vector on {f} ∪ pivots orthogonal to the echelon.
    `order` lists (pivot, row) so that every other pivot a row holds comes
    first: ascending for highest-pivot echelons, descending for lowest."""
    out = []
    for f in free:
        x = 1 << f
        for p, row in order:
            if (row & x).bit_count() & 1:
                x |= 1 << p
        out.append(x)
    return Gf2Matrix._of(out, cols)
