"""CSS subsystem codes and their desk-scale diagnostics.

A code is the six-tuple (H_X, H_Z, J_X, J_Z, F_X, F_Z) of check, logical
and gauge generator matrices over GF(2), satisfying

    ker H_X = rs H_Z ⊕ rs J_Z ⊕ rs F_Z,
    ker H_Z = rs H_X ⊕ rs J_X ⊕ rs F_X,
    J_X J_Z^T = E_k,   F_X F_Z^T = E_{k_g},
    J_X F_Z^T = 0,     F_X J_Z^T = 0,
    k_g = n − rank H_X − rank H_Z − k.

The distance is d = min{d(H_X,J_X), d(H_Z,J_Z)} with d(H,J) the minimum
Hamming weight over ker H outside the stabiliser (J e^T ≠ 0).

Logical generators are produced in mutually standard form: after a
column permutation into blocks (the rest | H_X pivots | H_Z+F_Z
pivots) they read J_Z = (E_k | · | 0) and J_X = (E_k | 0 | ·).  Every
J_X row then has at most one nonzero inside the support of any Z
logical operator, which the glue-code weight bounds rely on.

A `SubsystemCode` is the one home for what is derived from, or proven
on, its own matrices: `hx_wmax`, `hz_echelon`, `checks_commute`,
`hx_left_kernel` and, on a code `subsystem_code` builds, F_X and F_Z are
computed on first read, and `proven` says that the identities
`subsystem_code` checks hold on them.  A code is frozen, so these memory
facts are computed once per memory.  A sticker paste has its code built
by a second private constructor, `SubsystemCode._pasted`, from the
paste's factors: the memory, the logical split, the glue, d_R and the
kind.  It picks the memory's part of the logicals by kind, solves γ of
a measurement sticker, builds the sticker by `build_sticker`, the one
definition of the sticker, and joins the deformed matrices itself, so
the code has the hypergraph-product form by construction.  Its proof
then checks the memory block on the memory's facts and every block the
sticker adds on glue-sized matrices, each identity derived from that
form in `_prove_pasted`, and takes the logical pairing from the split,
which pairs or is refused when it is built.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import GlueError, InternalError
from .gf2 import (
    Gf2Matrix,
    RowReducer,
    _back_substitute,
    _lowest_pivot_echelon,
    inverse,
    kernel_basis,
    kernel_complement,
    rank,
    rref,
    set_bits,
    solve_left,
)
from .tanner import induced_subgraph

if TYPE_CHECKING:  # glue imports this module; an annotation needs no import
    from .glue import GlueSpec, LogicalSplit


def repetition_check(n: int) -> Gf2Matrix:
    """Staircase check matrix λ_n of the length-n repetition code."""
    if n < 2:
        raise ValueError("repetition code needs n >= 2")
    return Gf2Matrix([(1 << i) | (1 << (i + 1)) for i in range(n - 1)], n)


def _check_kind(kind: str) -> None:
    if kind not in ("measurement", "branch"):
        raise ValueError("kind must be 'measurement' or 'branch'")


def _check_d_r(d_r: int) -> None:
    """The one d_R check of stickers, pastes and their prices."""
    if d_r < 2:
        raise ValueError(f"d_r must be at least 2, got {d_r}")


def build_sticker(glue: GlueSpec, d_r: int,
                  kind: str) -> tuple[Gf2Matrix, Gf2Matrix]:
    """(H_X, H_Z) of the glue code's hypergraph product with a repetition
    code λ, the plain length-d_R one for the measurement kind and the
    truncated one (last column dropped) for the branch kind:

        H_X = (E_{d_R−1} ⊗ H_G | λ ⊗ E_{r_G}),
        H_Z = (λ^T ⊗ E_{n_G} | E_{λ.cols} ⊗ H_G^T),

    so the branch forms equal the measurement forms with the last block
    column of H_X and the last block column and row of H_Z deleted.  Row
    c of λ holds bits c and c + 1 (the second only below λ.cols), so
    column j holds rows j (below d_R − 1) and j − 1 (from 1): the rows
    are written block by block from the rows of H_G and H_G^T.
    """
    _check_d_r(d_r)
    _check_kind(kind)
    hg = glue.hg
    n_g, r_g = hg.cols, hg.rows
    blocks = d_r if kind == "measurement" else d_r - 1  # λ.cols
    v0 = (d_r - 1) * n_g  # the first check-derived column
    hx = []
    for c in range(d_r - 1):
        lam = 1 << v0 + c * r_g
        if c + 1 < blocks:
            lam |= 1 << v0 + (c + 1) * r_g
        hx += [row << c * n_g | lam << g for g, row in enumerate(hg.bits)]
    hz, hg_t = [], hg.transpose().bits
    for j in range(blocks):
        lam = (1 << j * n_g if j < d_r - 1 else 0) | (1 << (j - 1) * n_g if j else 0)
        hz += [lam << b | row << v0 + j * r_g for b, row in enumerate(hg_t)]
    width = v0 + blocks * r_g
    return Gf2Matrix(hx, width), Gf2Matrix(hz, width)


@dataclass(frozen=True)
class SubsystemCode:
    """The six generator matrices.  Logicals must be bare, J_X F_Z^T = 0
    and F_X J_Z^T = 0, so v J_X^T is the logical class of v ∈ ker H_X;
    `css_code`, `subsystem_code` and `direct_sum` guarantee it and
    `validate_code` checks it.

    Two private constructors build a code and prove it, and say which
    proof runs; each refuses what it cannot prove.  `_derived`, for
    `subsystem_code`, checks the commutation products hx (hz; jz)^T = 0
    and hz jx^T = 0 with the messages of `complete_gauge`, then refuses
    J_X J_Z^T ≠ E, naming the row as `validate_code` does.  `_pasted`, for
    a sticker paste, solves γ and builds the sticker from the paste's
    factors, joins the code and proves the same from the memory's facts,
    the split's pairing and glue-sized products (`_prove_pasted`), with
    the same verdicts and messages, but refuses a measurement glue
    without γ with a `GlueError`.

    Once J_X J_Z^T = E, both gauge spaces have n − rank H_X − rank H_Z − k
    generators (see `_prove_pasted`) and `complete_gauge` cannot fail: the
    gauge parts left after stripping the logicals pair nondegenerately.
    So `_settle` leaves F to be completed on first read.

    `proven` says the code was built by `subsystem_code` or a paste, so
    all of these hold on its matrices and F is their completion.  It is
    not an init field, so any other construction, `dataclasses.replace`
    included, leaves it false.
    `hz_echelon` is shared: only `reduce` may be called on it, and a
    caller copies it before `add`.

    `hx_wmax`, `hz_echelon`, `checks_commute` and `hx_left_kernel` are
    computed on first read and kept: the code is frozen, so none can go
    stale, and a memory pasted many times factors its matrices once.
    """

    hx: Gf2Matrix
    hz: Gf2Matrix
    jx: Gf2Matrix
    jz: Gf2Matrix
    fx: Gf2Matrix
    fz: Gf2Matrix
    distance: int | None = None
    name: str = ""
    proven: bool = field(default=False, init=False, repr=False, compare=False)

    @classmethod
    def _derived(cls, hx: Gf2Matrix, hz: Gf2Matrix, jx: Gf2Matrix,
                 jz: Gf2Matrix, name: str, distance: int | None) -> SubsystemCode:
        """The code of the matrices, proven by the full products."""
        empty = Gf2Matrix.zeros(0, hx.cols)
        code = cls(hx, hz, jx, jz, empty, empty, distance, name)
        code._settle(code._prove())
        return code

    @classmethod
    def _pasted(cls, m: SubsystemCode, split: LogicalSplit, g: GlueSpec,
                d_r: int, kind: str, name: str) -> SubsystemCode:
        """The deformed code of a paste, built from its factors and proven
        from them, the memory's facts and the split's pairing.  The
        memory's part of the logicals is J_X,M = J_{X,C} and J_Z,M =
        J_{Z,C} for a measurement sticker, (J_{X,A}; J_{X,C}) and
        (J_{Z,A}; J_{Z,C}) for a branch one; a measurement sticker's γ
        solves J_X,M S^T = γ H_G, refused with a `GlueError` before any
        block is built.  With the sticker
        (H_X,st, H_Z,st) of `build_sticker`, T′ = T on the v_1 block, S′ =
        (S; 0) and J_X,st = J_X,M S^T on every u block plus γ on the last
        v block of a measurement sticker: H_X = (H_X,M T′; 0 H_X,st), H_Z =
        (H_Z,M 0; S′ H_Z,st), J_X = (J_X,M J_X,st) and J_Z = (J_Z,M 0)."""
        if kind == "measurement":
            jx_mem, jz_mem = split.jxc, split.jzc
        else:
            jx_mem, jz_mem = split.jxa.vstack(split.jxc), split.jza.vstack(split.jzc)
        js = jx_mem.mul(g.s.transpose())
        gamma = solve_left(g.hg, js) if kind == "measurement" else None
        if kind == "measurement" and gamma is None:
            raise GlueError("glue is labelled fine but gamma has no solution: "
                            "J_{X,C} S^T is not in the row space of H_G")
        hx_st, hz_st = build_sticker(g, d_r, kind)
        n, n_g, wide = m.n, g.n_g, hx_st.cols
        t = Gf2Matrix([r << (d_r - 1) * n_g for r in g.t.bits], wide)
        s = g.s.vstack(Gf2Matrix.zeros(hz_st.rows - g.s.rows, n))
        jx_st = []
        for i, row in enumerate(js.bits):
            acc = 0
            for j in range(d_r - 1):
                acc |= row << j * n_g
            if gamma is not None:
                acc |= gamma.bits[i] << (d_r - 1) * (n_g + g.r_g)
            jx_st.append(acc)
        hx = m.hx.hstack(t).vstack(Gf2Matrix.zeros(hx_st.rows, n).hstack(hx_st))
        hz = m.hz.widen(n + wide).vstack(s.hstack(hz_st))
        jx = jx_mem.hstack(Gf2Matrix(jx_st, wide))
        jz = jz_mem.widen(n + wide)
        empty = Gf2Matrix.zeros(0, hx.cols)
        code = cls(hx, hz, jx, jz, empty, empty, name=name)
        code._settle(code._prove_pasted(m, g, jx_mem, jz_mem, t, hx_st))
        return code

    def _settle(self, proof: tuple[int, RowReducer]) -> None:
        """Store a proof.  F, empty until now, stays empty when k_g = 0 and
        is otherwise left to `__getattr__`."""
        rank_hx, z_echelon = proof
        if self.n - rank_hx - len(z_echelon.pivots) - self.k:  # k_g > 0
            object.__delattr__(self, "fx")
            object.__delattr__(self, "fz")
        object.__setattr__(self, "hz_echelon", z_echelon)
        object.__setattr__(self, "proven", True)

    def _prove(self) -> tuple[int, RowReducer]:
        """(rank H_X, the H_Z echelon) by the full products, the J pairing
        and one echelon of each check matrix."""
        hx, hz, jx, jz = self.hx, self.hz, self.jx, self.jz
        _check_commutation(hx, hz, jx, hz.vstack(jz))
        wit = pairing_witness(jx, jz)
        if wit:
            raise ValueError(f"logical pairing is not the identity: {wit}")
        return len(RowReducer(hx.bits).pivots), RowReducer(hz.bits)

    def _prove_pasted(self, m: SubsystemCode, g: GlueSpec, jx_mem: Gf2Matrix,
                      jz_mem: Gf2Matrix, t: Gf2Matrix,
                      hx_st: Gf2Matrix) -> tuple[int, RowReducer]:
        """`_prove`'s result for the code `_pasted` built on the memory `m`
        from the glue and the memory's part of the logicals, given its T′
        and H_X,st.

        Blocks.  With M the memory, every product `_prove` checks is zero
        exactly when
          H_X,M H_Z,M^T = 0 (a fact of M, whose matrices these are),
          S′ H_X,M^T = H_Z,st T′^T, H_X,st H_Z,st^T = 0,
          J_Z,M H_X,M^T = 0, J_X,M H_Z,M^T = 0, J_X,M S′^T = J_X,st H_Z,st^T;
        the other blocks are zero blocks of the join.  The three that
        touch the sticker follow from the form `_pasted` builds:
        * H_X,st H_Z,st^T = (E ⊗ H_G)(λ ⊗ E) + (λ ⊗ E)(E ⊗ H_G)
          = λ ⊗ H_G + λ ⊗ H_G = 0 for every sticker: no product is needed.
        * T′ lies on the v_1 block, where only the first block row of
          H_Z,st is nonzero (it holds H_G^T there), and S′ is S over zero
          rows.  So both sides vanish below the first block row, and there
          the identity is S H_X,M^T = H_G^T T^T, the transpose of the
          glue's H_X,M S^T = T H_G: n_G rows, each a sum of rows of the
          memory's cached transpose.
        * J_X,st H_Z,st^T = (1^T λ) ⊗ J_X,M S^T + e_last^T ⊗ γ H_G, where
          1^T λ, the column sums of λ, are its first and last columns for
          a plain λ and its first alone for a truncated one: the middle
          blocks cancel.  J_X,M S′^T is J_X,M S^T on the first block and
          zero after it.  So a branch sticker (no γ) meets the identity
          by form, and a measurement sticker exactly when
          γ H_G = J_X,M S^T, which holds because `solve_left` returns γ
          only once its residual test has found every row of J_X,M S^T
          in rs H_G.
        If a check fails, the full products raise with the row they name.

        Pairing.  J_Z is zero on the sticker, so J_X J_Z^T = J_X,M J_Z,M^T.
        A `LogicalSplit` is refused when it is built unless its four
        pairings hold, so this is E_{k−q} = J_{X,C} J_{Z,C}^T for a
        measurement and the split's whole pairing for a branch: no product
        is needed.

        Ranks.  H_Z's echelon is M's with the sticker rows added: a fresh
        one adds M's rows first, which are H_Z's leading rows, so its
        pivots are the same.  rank H_X = rank H_X,M + rank(L T′; H_X,st)
        for L a basis of M's left kernel: (a, b) H_X = 0 exactly when
        a = cL and c L T′ + b H_X,st = 0.  Once J_X J_Z^T = E, J_Z is
        independent modulo rs H_Z, since c J_Z = y H_Z gives c = c J_Z
        J_X^T = y H_Z J_X^T = 0, and J_X modulo rs H_X likewise, so both
        dimension counts add k and the gauge dimensions match.
        """
        if not (m.checks_commute
                and g.s.mul(m.hx.transpose()) == g.hg.transpose().mul(g.t.transpose())
                and jz_mem.mul_transpose(m.hx).is_zero()
                and jx_mem.mul_transpose(m.hz).is_zero()):
            # the full path raises, naming the row of the failing product
            subsystem_code(self.hx, self.hz, self.jx, self.jz)
            raise InternalError("a paste's blocks fail a commutation check "
                                "that its full products pass")
        z_echelon = m.hz_echelon.copy()
        for row in self.hz.bits[m.hz.rows:]:
            z_echelon.add(row)
        left = m.hx_left_kernel
        sticker = RowReducer(left.mul(t).bits + hx_st.bits)
        return m.hx.rows - left.rows + len(sticker.pivots), z_echelon

    def __getattr__(self, name):
        # reached only for an attribute not set: the F_X, F_Z that
        # `_settle` leaves to be completed on first read
        if name not in ("fx", "fz"):
            raise AttributeError(name)
        fx, fz = complete_gauge(self.hx, self.hz, self.jx, self.jz)
        object.__setattr__(self, "fx", fx)
        object.__setattr__(self, "fz", fz)
        return fx if name == "fx" else fz

    @cached_property
    def hx_wmax(self) -> int:
        """w_max(H_X)."""
        return self.hx.wmax()

    @cached_property
    def hz_echelon(self) -> RowReducer:
        """A `RowReducer` over the rows of H_Z."""
        return RowReducer(self.hz.bits)

    @cached_property
    def checks_commute(self) -> bool:
        """H_X H_Z^T = 0, read off the proof on a `proven` code."""
        return self.proven or self.hx.mul_transpose(self.hz).is_zero()

    @cached_property
    def hx_left_kernel(self) -> Gf2Matrix:
        """A basis L of {a : a H_X = 0}; rank H_X = rows(H_X) − rows(L).

        One echelon of the rows of H_X, each tagged with its index in low
        bits below it: a row whose H_X part cancels keeps its own tag bit,
        so it is left as a nonzero combination a with a H_X = 0, pivoting
        on a tag bit of its own.
        """
        r = self.hx.rows
        echelon = RowReducer(row << r | 1 << i for i, row in enumerate(self.hx.bits))
        return Gf2Matrix([v for p, v in echelon.pivots.items() if p < r], r)

    @property
    def n(self) -> int:
        return self.hx.cols

    @property
    def k(self) -> int:
        return self.jz.rows

    @property
    def k_gauge(self) -> int:
        return self.fz.rows

    def __repr__(self) -> str:
        d = self.distance if self.distance is not None else "?"
        return f"SubsystemCode([[{self.n},{self.k},{d}]], k_g={self.k_gauge})"

    def z_stabilizer_span(self) -> Gf2Matrix:
        """Stacked (H_Z; F_Z): the Z operators acting trivially on logicals."""
        return self.hz.vstack(self.fz)


@dataclass(frozen=True)
class OperatorSet:
    """A set Σ of same-species logical operators, one bit-vector per row."""

    species: str  # "X" or "Z"
    vectors: Gf2Matrix

    def __post_init__(self):
        if self.species not in ("X", "Z"):
            raise ValueError("species must be 'X' or 'Z'")

    @property
    def size(self) -> int:
        return self.vectors.rows


def standard_logicals(hx: Gf2Matrix, hz_like: Gf2Matrix) -> tuple[Gf2Matrix, Gf2Matrix]:
    """Logical generator pair in mutually standard form.

    hz_like must span everything a bare X logical has to commute with
    (H_Z for a stabiliser code, (H_Z; F_Z) for a subsystem code).
    Returns (jx, jz) with jx @ jz^T = E_k, jz ⊆ ker hx, jx ⊆ ker hz_like.

    Per column f outside the RREF pivots px of H_X and pz of hz_like
    masked off px, the rows are the RREF free vectors on {f} ∪ px in
    ker H_X and on {f} ∪ pz in ker hz_like.  The mask loses rank only
    if hx and hz_like fail to commute.
    """
    n = hx.cols
    px = _lowest_pivot_echelon(hx.bits)
    off_px = sum(1 << c for c in range(n) if c not in px)
    pz = _lowest_pivot_echelon(r & off_px for r in hz_like.bits)
    if len(pz) < len(RowReducer(hz_like.bits).pivots):
        raise ValueError("hz reduction lost rank; hx and hz are incompatible")
    rest = [c for c in range(n) if c not in px and c not in pz]
    jz = _back_substitute(rest, sorted(px.items(), reverse=True), n)
    jx = _back_substitute(rest, sorted(pz.items(), reverse=True), n)
    return jx, jz


def derive_css_logicals(hx: Gf2Matrix, hz: Gf2Matrix) -> tuple[Gf2Matrix, Gf2Matrix]:
    """(J_X, J_Z) for a gauge-free CSS pair, in mutually standard form."""
    if not hx.mul_transpose(hz).is_zero():
        raise ValueError("check matrices do not commute: hx @ hz^T != 0")
    return standard_logicals(hx, hz)


def css_code(hx: Gf2Matrix, hz: Gf2Matrix, name: str = "",
             distance: int | None = None) -> SubsystemCode:
    """Stabiliser CSS code (no gauge) with derived logical generators."""
    jx, jz = derive_css_logicals(hx, hz)
    n = hx.cols
    return SubsystemCode(
        hx=hx, hz=hz, jx=jx, jz=jz,
        fx=Gf2Matrix.zeros(0, n), fz=Gf2Matrix.zeros(0, n),
        distance=distance, name=name,
    )


def complete_gauge(hx: Gf2Matrix, hz: Gf2Matrix, jx: Gf2Matrix,
                   jz: Gf2Matrix) -> tuple[Gf2Matrix, Gf2Matrix]:
    """Gauge generators (F_X, F_Z) completing given checks and logicals.

    Output satisfies F_X F_Z^T = E, J_X F_Z^T = 0 and F_X J_Z^T = 0, so
    the logicals stay bare.  Raises ValueError unless
    hx (hz; jz)^T = 0 and hz jx^T = 0.
    """
    n = hx.cols
    z_span = hz.vstack(jz)
    _check_commutation(hx, hz, jx, z_span)
    fz0 = kernel_complement(hx, z_span)
    fx0 = kernel_complement(hz, hx.vstack(jx))
    if fz0.rows != fx0.rows:
        raise ValueError("gauge spaces have mismatched dimensions")
    if fz0.rows == 0:
        return Gf2Matrix.zeros(0, n), Gf2Matrix.zeros(0, n)
    # strip logical components so gauge ops commute with bare logicals
    fz1 = fz0.add(jx.mul_transpose(fz0).transpose().mul(jz))
    fx1 = fx0.add(fx0.mul_transpose(jz).mul(jx))
    m = fx1.mul_transpose(fz1)
    fx = inverse(m).mul(fx1)
    return fx, fz1


def _check_commutation(hx: Gf2Matrix, hz: Gf2Matrix, jx: Gf2Matrix,
                       z_span: Gf2Matrix) -> None:
    """Raise unless hx (hz; jz)^T = 0 and hz jx^T = 0, naming a nonzero row."""
    for name, prod in (("hx @ (hz; jz)^T", hx.mul_transpose(z_span)),
                       ("hz @ jx^T", hz.mul_transpose(jx))):
        bad = next((i for i, r in enumerate(prod.bits) if r), None)
        if bad is not None:
            raise ValueError(f"checks and logicals do not commute: "
                             f"row {bad} of {name} is nonzero")


def pairing_witness(jx: Gf2Matrix, jz: Gf2Matrix) -> str:
    """Empty when J_X J_Z^T = E, else the first J_X row that pairs wrongly,
    read off the one product J_X J_Z^T."""
    if jx.rows != jz.rows:
        return f"row counts: jx {jx.rows}, jz {jz.rows}"
    for i, pairs in enumerate(jx.mul_transpose(jz).bits):
        if pairs != 1 << i:
            return f"jx row {i} pairs as {[pairs >> j & 1 for j in range(jz.rows)]}"
    return ""


def subsystem_code(hx: Gf2Matrix, hz: Gf2Matrix, jx: Gf2Matrix, jz: Gf2Matrix,
                   name: str = "", distance: int | None = None) -> SubsystemCode:
    """Subsystem code from checks and logicals, gauge derived by completion.

    The commutation checks of `complete_gauge` run, with their messages,
    in `SubsystemCode._derived`, which then refuses J_X J_Z^T ≠ E; so the
    code it returns is one `validate_code` accepts.
    """
    return SubsystemCode._derived(hx, hz, jx, jz, name, distance)


def hgp(h1: Gf2Matrix, h2: Gf2Matrix, name: str = "") -> SubsystemCode:
    """Hypergraph product of two classical check matrices.

    H_X = (H_1 ⊗ E_{n2} | E_{r1} ⊗ H_2^T),
    H_Z = (E_{n1} ⊗ H_2 | H_1^T ⊗ E_{r2}),
    on n = n1·n2 + r1·r2 qubits.
    """
    r1, n1 = h1.shape
    r2, n2 = h2.shape
    hx = h1.kron(Gf2Matrix.identity(n2)).hstack(
        Gf2Matrix.identity(r1).kron(h2.transpose())
    )
    hz = Gf2Matrix.identity(n1).kron(h2).hstack(
        h1.transpose().kron(Gf2Matrix.identity(r2))
    )
    return css_code(hx, hz, name=name or f"hgp({r1}x{n1},{r2}x{n2})")


def direct_sum(a: SubsystemCode, b: SubsystemCode, name: str = "") -> SubsystemCode:
    """Block-diagonal union of two codes on disjoint qubit sets."""

    def diag(m1: Gf2Matrix, m2: Gf2Matrix) -> Gf2Matrix:
        top = m1.hstack(Gf2Matrix.zeros(m1.rows, m2.cols))
        bot = Gf2Matrix.zeros(m2.rows, m1.cols).hstack(m2)
        return top.vstack(bot)

    return SubsystemCode(
        hx=diag(a.hx, b.hx), hz=diag(a.hz, b.hz),
        jx=diag(a.jx, b.jx), jz=diag(a.jz, b.jz),
        fx=diag(a.fx, b.fx), fz=diag(a.fz, b.fz),
        distance=None if a.distance is None or b.distance is None
        else min(a.distance, b.distance),
        name=name or f"{a.name}+{b.name}",
    )


# -- validation -------------------------------------------------------


@dataclass
class AxiomCheck:
    name: str
    passed: bool
    witness: str = ""


@dataclass
class ValidationReport:
    checks: list[AxiomCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.passed]


def validate_code(c: SubsystemCode) -> ValidationReport:
    """Check every subsystem-code axiom; failures carry a witness."""
    rep = ValidationReport()

    def add(name, passed, witness=""):
        rep.checks.append(AxiomCheck(name, passed, witness))

    def product_vanishes(name, a, b, witness):
        prod = a.mul_transpose(b)
        bad = next((i for i, r in enumerate(prod.bits) if r), None)
        add(name, bad is None, "" if bad is None
            else witness.format(bad, prod.bits[bad].bit_length() - 1))

    product_vanishes("hx @ hz^T = 0", c.hx, c.hz,
                     "hx row {} anticommutes with hz row {}")

    rank_hx, rank_hz = rank(c.hx), rank(c.hz)
    k_g = c.n - rank_hx - rank_hz - c.k
    add("k_g accounting", c.k_gauge == k_g,
        f"k_g={c.k_gauge}, n-rank(hx)-rank(hz)-k={k_g}")

    for species, h, rank_h, parts, rank_0 in (
        ("Z", c.hx, rank_hx, (c.hz, c.jz, c.fz), rank_hz),
        ("X", c.hz, rank_hz, (c.hx, c.jx, c.fx), rank_hx),
    ):
        rank_stacked = rank(parts[0].vstack(parts[1]).vstack(parts[2]))
        expected = rank_0 + parts[1].rows + parts[2].rows
        dim_ker = h.cols - rank_h
        dims_add = rank_stacked == expected
        inside = all(h.mul_transpose(p).is_zero() for p in parts)
        spans = rank_stacked == dim_ker
        witness = ""
        if not (dims_add and inside and spans):
            witness = (f"rank(stack)={rank_stacked}, "
                       f"expected {expected}; dim ker={dim_ker}")
        add(f"ker decomposition ({species} side)", dims_add and inside and spans,
            witness)

    wit = pairing_witness(c.jx, c.jz)
    add("jx @ jz^T = E_k", not wit, wit)

    pf = c.fx.mul_transpose(c.fz)
    add("fx @ fz^T = E_kg", pf == Gf2Matrix.identity(c.k_gauge),
        "" if pf == Gf2Matrix.identity(c.k_gauge) else "gauge pairing broken")
    product_vanishes("jx @ fz^T = 0", c.jx, c.fz, "jx row {} pairs with fz row {}")
    product_vanishes("fx @ jz^T = 0", c.fx, c.jz, "fx row {} pairs with jz row {}")
    return rep


# -- distance ---------------------------------------------------------


@dataclass(frozen=True)
class DistanceResult:
    value: int | None
    exact: bool
    upper_bound: int | None = None
    note: str = ""
    searched_weight: int = 0  # weights fully exhausted by the search


def _species_distance(h: Gf2Matrix, j: Gf2Matrix, cap: int, budget: int):
    """min |e| with e in ker h, j e^T != 0, by weight-ordered enumeration.

    Returns (weight or None, vectors enumerated, exhausted_up_to).
    """
    n = h.cols
    hcols, jcols = h.transpose().bits, j.transpose().bits
    seen = 0
    for w in range(1, cap + 1):
        for combo in itertools.combinations(range(n), w):
            seen += 1
            if seen > budget:
                return None, seen, w - 1
            s = 0
            t = 0
            for c in combo:
                s ^= hcols[c]
                t ^= jcols[c]
            if s == 0 and t != 0:
                return w, seen, w
    return None, seen, cap


def _distance_upper_estimate(h: Gf2Matrix, j: Gf2Matrix, trials: int,
                             rng: random.Random) -> int | None:
    """Randomized information-set style upper bound (labelled estimate)."""
    gen = kernel_complement(h, Gf2Matrix.zeros(0, h.cols))
    if gen.rows == 0:
        return None
    best = None
    n = h.cols
    for _ in range(trials):
        perm = list(range(n))
        rng.shuffle(perm)
        red, piv = rref(gen.permute_cols(perm))
        # undo the permutation to evaluate the logical signature
        back = sorted(range(n), key=perm.__getitem__)
        for v in Gf2Matrix(red.bits[: len(piv)], n).permute_cols(back).bits:
            if j.mul_vec(v) != 0:
                w = v.bit_count()
                if best is None or w < best:
                    best = w
    return best


# randomized trials behind the upper estimate when the search runs out
_ESTIMATE_TRIALS = 40


def exact_distance(c: SubsystemCode, cap: int = 6,
                   budget: int = 10_000_000) -> DistanceResult:
    """Exact distance by weight-ordered search, or Unknown with an estimate.

    For k = 0 there are no logical errors and the minimum is over an
    empty set: Unknown by convention, flagged in the note.
    """
    if c.k == 0:
        return DistanceResult(None, False, None, "k=0: no logical operators")
    best = None
    exhausted = cap
    spent = 0
    for h, j in ((c.hx, c.jx), (c.hz, c.jz)):
        w, seen, upto = _species_distance(h, j, cap, budget - spent)
        spent += seen
        exhausted = min(exhausted, upto)
        if w is not None and (best is None or w < best):
            best = w
    if best is not None and best <= exhausted:
        return DistanceResult(best, True, searched_weight=exhausted)
    rng = random.Random(0)
    est = None
    for h, j in ((c.hx, c.jx), (c.hz, c.jz)):
        e = _distance_upper_estimate(h, j, _ESTIMATE_TRIALS, rng)
        if e is not None and (est is None or e < est):
            est = e
    if best is not None:
        est = best if est is None else min(est, best)
    return DistanceResult(
        None, False, est,
        f"search exhausted weight <= {exhausted} within budget; "
        "upper bound is a randomized estimate",
        searched_weight=exhausted,
    )


# -- overlap diagnostics ----------------------------------------------


def support_union(sigma: OperatorSet) -> tuple[int, ...]:
    """Sorted qubit indices (0-based) touched by at least one operator."""
    acc = 0
    for r in sigma.vectors.bits:
        acc |= r
    return tuple(set_bits(acc))


def crowd_numbers(sigma: OperatorSet) -> tuple[list[int], int]:
    """Per-qubit operator counts cn(Σ,u) and their maximum."""
    counts = [0] * sigma.vectors.cols
    for r in sigma.vectors.bits:
        for u in set_bits(r):
            counts[u] += 1
    return counts, max(counts, default=0)


def contained_logical_count(c: SubsystemCode, support: tuple[int, ...]) -> int:
    """k_N: independent Z logicals with a representative inside `support`.

    Cleaning-lemma view (Bravyi & Terhal 2009): k_N = rank(K J_X[:, A]^T)
    with K the kernel of H_X restricted to the support A.
    """
    local, cols, _ = induced_subgraph(c.hx, sum(1 << u for u in set(support)))
    return rank(kernel_basis(local).mul_transpose(c.jx.take_cols(cols)))


def z_signature(c: SubsystemCode, sigma: OperatorSet) -> Gf2Matrix:
    """Σ J_X^T for Σ a set of Z logical representatives (rows in ker H_X).

    The precondition of every glue, sticker and overlap routine; a row
    outside ker H_X is named by its index.
    """
    if sigma.species != "Z":
        raise ValueError("sigma must be a Z-species operator set")
    for i, syndrome in enumerate(sigma.vectors.mul_transpose(c.hx).bits):
        if syndrome:
            raise ValueError(f"sigma row {i} is not in ker hx")
    return sigma.vectors.mul_transpose(c.jx)


def redundancy_number(c: SubsystemCode, sigma: OperatorSet) -> int:
    """rn(Σ) = k_N − q for a set of Z-species logical representatives."""
    q = rank(z_signature(c, sigma))
    k_n = contained_logical_count(c, support_union(sigma))
    return k_n - q
