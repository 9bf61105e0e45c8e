"""Glue-code synthesis for a target set of Z logical operators.

A glue code H_G couples an ancilla sticker to the memory through
pasting matrices S, T with H_X S^T = T H_G.  It is *coarsely devised*
for Σ when span(Σ) ⊆ (ker H_G)S, and *finely devised* when additionally
(ker H_G)S = span(Σ) plus a subspace of rs H_Z ⊕ rs F_Z, so a
measurement sticker acts on exactly ⟨Σ⟩ and nothing else.

Three constructions are provided:

* naked glue — the induced subgraph of the X-check Tanner graph on the
  support union B_N; always compatible and coarsely devised.
* dressing matrix D — extra checks that cancel the k_N − q unwanted
  logical classes living inside B_N; stacking (H_N; D) is finely
  devised.  D is the rows of J_{X,C} restricted to B_N at the RREF
  pivot columns of (ker H_N) S J_{X,C}^T, which caps its weight at
  (k_N − q)(q + 1) when the measured generators are brought to the
  (E_q | P) form.
* finely devised LDPC glue — bit/check duplications flatten the
  dressing rows until every vertex degree is at most
  max{w_max(H_X) + 1, 3}, preserving the projected codeword space.
  The duplications act on the stacked check matrix (H_N; D) and append
  each new bit as its last column and each new check as its last row.

The logical class of a Z operator v ∈ ker H_X is read off its J_X
signature v J_X^T, never by eliminating the stack (J_Z; H_Z; F_Z).
The Σ-adapted split of the logicals pairs or is refused when it is
built, so a paste reads its logical pairing off the split.

All choices (pivoting, duplication order) are deterministic, so reruns
are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .codes import OperatorSet, SubsystemCode, pairing_witness, z_signature
from .errors import GlueError, InternalError
from .gf2 import (
    Gf2Matrix,
    RowReducer,
    kernel_complement,
    set_bits,
    solve_left,  # unused here; perfbench's tracer test patches this binding
    standard_form,
)
from .tanner import bit_duplication, check_duplication, induced_subgraph


@dataclass(frozen=True)
class LogicalSplit:
    """Σ-adapted split of the logical generators.

    jza spans ⟨Σ⟩ (supports inside Q(Σ)); jzc spans the complement;
    jxa/jxc are the dual X generators.  Pairings: jxa jza^T = E_q,
    jxc jzc^T = E_{k−q}, cross products vanish.

    A split pairs or is refused: every construction, `dataclasses.replace`
    included, checks the four pairings as one product, the stacked
    (jxa; jxc)(jza; jzc)^T = E with jxa and jza of one row count, and
    raises a `GlueError` with `pairing_witness`'s witness otherwise.  So
    a paste of any split reads J_X,M J_Z,M^T = E off it.
    """

    jza: Gf2Matrix
    jzc: Gf2Matrix
    jxa: Gf2Matrix
    jxc: Gf2Matrix

    def __post_init__(self):
        wit = (pairing_witness(self.jxa.vstack(self.jxc), self.jza.vstack(self.jzc))
               if self.jxa.rows == self.jza.rows
               else f"row counts: jxa {self.jxa.rows}, jza {self.jza.rows}")
        if wit:
            raise GlueError(f"split pairing is not the identity: {wit}")

    @property
    def q(self) -> int:
        return self.jza.rows


def split_logicals(c: SubsystemCode, sigma: OperatorSet) -> LogicalSplit:
    """Split the logical generators around Σ, normalized to (E_q | P) form.

    Σ rows may be any logical representatives (stabiliser/gauge
    dressing allowed); their J_Z coefficients must be independent.  The
    returned jza rows are row combinations of the given Σ rows, so
    their supports stay inside Q(Σ).  The code's logicals must be bare
    (J_X F_Z^T = 0): then the J_Z coefficients are Σ J_X^T.
    """
    q = sigma.vectors.rows
    k = c.k
    if q == 0 or q > k:
        raise GlueError(f"need 1 <= q <= k, got q={q}, k={k}")
    x = z_signature(c, sigma)
    try:
        r, pi2, xs = standard_form(x)
    except ValueError as exc:
        raise GlueError("sigma rows are dependent modulo stabiliser+gauge") from exc
    jza = r.mul(sigma.vectors)
    p_block = xs.take_cols(range(q, k))
    jzc = c.jz.take_rows(pi2[q:])
    jxa = c.jx.take_rows(pi2[:q])
    jxc = c.jx.take_rows(pi2[q:]).add(p_block.transpose().mul(jxa))
    return LogicalSplit(jza, jzc, jxa, jxc)


@dataclass(frozen=True)
class GlueSpec:
    """A glue code with its pasting matrices and classification."""

    hg: Gf2Matrix  # r_G x n_G
    s: Gf2Matrix   # n_G x n
    t: Gf2Matrix   # r_X x r_G
    devisedness: str  # "none" | "coarse" | "fine"
    b_n: tuple[int, ...]  # memory qubits under the leading glue bits
    c_n: tuple[int, ...]  # memory X-check rows under the naked glue checks
    meta: dict = field(default_factory=dict)

    @property
    def n_g(self) -> int:
        return self.hg.cols

    @property
    def r_g(self) -> int:
        return self.hg.rows

    @property
    def s_norm(self) -> int:
        """|S|: the Hamming-weight-induced norm of v ↦ vS (max row weight)."""
        return self.s.max_row_weight()

    def weight_stats(self) -> dict:
        return {
            "n_g": self.n_g,
            "r_g": self.r_g,
            "wmax_hg": self.hg.wmax(),
            "wmax_s": self.s.wmax(),
            "wmax_t": self.t.wmax(),
            "s_norm": self.s_norm,
        }

    def to_report(self) -> dict:
        rep = {
            "schema": 1,
            "devisedness": self.devisedness,
            "b_n": list(self.b_n),
            "c_n": list(self.c_n),
            **self.weight_stats(),
        }
        rep.update({k: v for k, v in sorted(self.meta.items())})
        return rep


def check_compatibility(c: SubsystemCode, g: GlueSpec) -> bool:
    """The defining identity H_X S^T = T H_G."""
    return c.hx.mul_transpose(g.s) == g.t.mul(g.hg)


def naked_glue(c: SubsystemCode, sigma: OperatorSet) -> GlueSpec:
    """Induced-subgraph glue code on B_N = Q(Σ) (always coarsely devised).

    Bits are the support qubits, checks are every memory X-check
    adjacent to them, S embeds the glue bits at their memory positions
    and T selects the adjacent checks.  Σ rows must lie in ker H_X;
    then each restricts to a codeword of the glue, so "none" is a bug.
    """
    spec = _induced_glue(c, sigma)
    z_signature(c, sigma)
    devis = classify_devisedness(spec, c, sigma)
    if devis == "none":
        raise InternalError("naked glue failed to be coarsely devised (bug)")
    return replace(spec, devisedness=devis)


def _induced_glue(c: SubsystemCode, sigma: OperatorSet) -> GlueSpec:
    """The naked glue matrices, labelled coarse but not classified."""
    if sigma.size == 0:
        raise GlueError("naked_glue needs a nonempty operator set")
    support = 0
    for r in sigma.vectors.bits:
        support |= r
    hn, b_n, c_n = induced_subgraph(c.hx, support)
    s = Gf2Matrix([1 << j for j in b_n], c.n)
    t_rows = [0] * c.hx.rows
    for j, i in enumerate(c_n):
        t_rows[i] = 1 << j
    return GlueSpec(hg=hn, s=s, t=Gf2Matrix(t_rows, len(c_n)),
                    devisedness="coarse", b_n=b_n, c_n=c_n,
                    meta={"kind": "naked", "n_n": len(b_n)})


def dressing_matrix(split: LogicalSplit, naked: GlueSpec) -> Gf2Matrix:
    """Dressing matrix D: the rows of J_{X,C} S^T that add a pivot to a
    `RowReducer` seeded with H_N, in order.

    D cancels the k_N − q unwanted logical classes inside B_N.  Since
    (ker H_N)^⊥ = rs H_N, row j of J_{X,C} S^T lies in rs H_N plus the
    rows before it exactly when column j of M = (ker H_N) S J_{X,C}^T
    depends on the columns before it: D is J_{X,C} on B_N at the RREF
    pivot columns of M.  rs M holds the J_{X,C} parts of the J_X
    signatures of (ker H_N)S.  Those signatures span k_N dimensions, and
    the ones with zero J_{X,C} part are the q spanned by the J_{Z,A}
    signatures (E_q | 0), so D has r_N = rank M = k_N − q rows.

    D G1^T = 0, for G1 = J_{Z,A} S^T, is checked: it needs supp J_{Z,A}
    ⊆ B_N, that is, a split of the Σ the naked glue was built for.
    """
    jxc_n = split.jxc.mul(naked.s.transpose())
    reducer = RowReducer(naked.hg.bits)
    d = Gf2Matrix([r for r in jxc_n.bits if reducer.add(r)], jxc_n.cols)
    if not split.jza.mul(naked.s.transpose()).mul_transpose(d).is_zero():
        raise InternalError("dressing product D G1^T is nonzero (bug)")
    return d


def finely_devised_glue(c: SubsystemCode, sigma: OperatorSet,
                        split: LogicalSplit | None = None) -> GlueSpec:
    """Finely devised LDPC glue code for Σ.

    Stacks the dressing rows onto the naked glue, then flattens every
    heavy vertex by duplications: each original bit keeps at most one
    non-naked neighbour, each dressing check ends with at most one
    neighbour; new vertices have degree 2 or 3.  The projected codeword
    space (ker H_G)S is unchanged, so fineness is preserved, and
    w_max(H_G) <= max{w_max(H_X)+1, 3}.

    Only the final glue is classified.  Its first r_N rows are H_N padded
    with zeros and S, T pad S_N, T_N with zeros, so it is compatible
    exactly when the naked glue is, and (ker H_G)S ⊆ (ker H_N)S: a fine
    H_G certifies the naked glue as compatible and coarsely devised too.
    """
    if split is None:
        split = split_logicals(c, sigma)
    naked = _induced_glue(c, sigma)
    d = dressing_matrix(split, naked)
    rn = d.rows
    q = split.q
    wmax_hx = c.hx_wmax
    meta = {
        "kind": "fine",
        "n_n": naked.n_g,
        "q": q,
        "k_n": q + rn,
        "rn": rn,
        "bound_n_g": naked.n_g + 2 * rn * (q + 1),
        "bound_r_g": wmax_hx * naked.n_g + 2 * rn * (q + 1),
        "bound_wmax_hg": max(wmax_hx + 1, 3),
    }
    n_n, r_n = naked.n_g, naked.r_g
    hg = naked.hg.vstack(d)
    # bit pass: each original bit keeps at most one non-naked neighbour
    for u in range(n_n):
        while True:
            extra = [a for a in range(r_n, hg.rows) if hg.bits[a] >> u & 1]
            if len(extra) <= 1:
                break
            hg = bit_duplication(hg, u, extra[:2])
    # check pass: flatten every dressing check to a single neighbour
    for a in range(r_n, r_n + rn):
        row = hg.bits[a]
        while row & (row - 1):  # split off its two lowest bits
            hg = check_duplication(hg, a, set_bits(row)[:2])
            row = hg.bits[a]
    s = naked.s.vstack(Gf2Matrix.zeros(hg.cols - n_n, c.n))
    t = naked.t.hstack(Gf2Matrix.zeros(c.hx.rows, hg.rows - r_n))
    spec = GlueSpec(hg=hg, s=s, t=t, devisedness="fine",
                    b_n=naked.b_n, c_n=naked.c_n, meta=meta)
    if classify_devisedness(spec, c, sigma) != "fine":
        raise InternalError("LDPC glue classification is not fine (bug)")
    return spec


def classify_devisedness(g: GlueSpec, c: SubsystemCode,
                         sigma: OperatorSet) -> str:
    """Classification by exact linear algebra.

    coarse: span(Σ) ⊆ (ker H_G)S.  fine: additionally every projected
    glue codeword decomposes over span(Σ) ⊕ (rs H_Z ⊕ rs F_Z), tested on
    J_X signatures as both lie in ker H_X (compatibility, coarseness).
    """
    if not check_compatibility(c, g):
        raise GlueError("glue code is not compatible with the memory")
    ks = kernel_complement(g.hg, Gf2Matrix.zeros(0, g.n_g)).mul(g.s)
    reducer = RowReducer(ks.bits)
    if any(reducer.reduce(r) for r in sigma.vectors.bits):
        return "none"
    reducer = RowReducer(sigma.vectors.mul_transpose(c.jx).bits)
    if any(reducer.reduce(r) for r in ks.mul_transpose(c.jx).bits):
        return "coarse"
    return "fine"

