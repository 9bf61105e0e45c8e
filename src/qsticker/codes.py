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
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

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
    solve_left,  # unused here; perfbench's tracer test patches this binding
)
from .tanner import induced_subgraph


def repetition_check(n: int, truncated: bool = False) -> Gf2Matrix:
    """Staircase check matrix λ_n of the length-n repetition code.

    The truncated variant drops the last column, giving the
    (n−1)×(n−1) upper-bidiagonal matrix.
    """
    if n < 2:
        raise ValueError("repetition code needs n >= 2")
    full = Gf2Matrix([(1 << i) | (1 << (i + 1)) for i in range(n - 1)], n)
    if not truncated:
        return full
    return full.take_cols(range(n - 1))


@dataclass(frozen=True)
class SubsystemCode:
    """The six generator matrices.  Logicals must be bare, J_X F_Z^T = 0
    and F_X J_Z^T = 0, so v J_X^T is the logical class of v ∈ ker H_X;
    `css_code`, `subsystem_code` and `direct_sum` guarantee it and
    `validate_code` checks it."""

    hx: Gf2Matrix
    hz: Gf2Matrix
    jx: Gf2Matrix
    jz: Gf2Matrix
    fx: Gf2Matrix
    fz: Gf2Matrix
    distance: int | None = None
    name: str = ""

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
    for name, prod in (("hx @ (hz; jz)^T", hx.mul_transpose(z_span)),
                       ("hz @ jx^T", hz.mul_transpose(jx))):
        bad = next((i for i, r in enumerate(prod.bits) if r), None)
        if bad is not None:
            raise ValueError(f"checks and logicals do not commute: "
                             f"row {bad} of {name} is nonzero")
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


def subsystem_code(hx: Gf2Matrix, hz: Gf2Matrix, jx: Gf2Matrix, jz: Gf2Matrix,
                   name: str = "", distance: int | None = None) -> SubsystemCode:
    """Subsystem code from checks and logicals, gauge derived by completion."""
    fx, fz = complete_gauge(hx, hz, jx, jz)
    return SubsystemCode(hx=hx, hz=hz, jx=jx, jz=jz, fx=fx, fz=fz,
                         distance=distance, name=name)


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

    pj = c.jx.mul_transpose(c.jz)
    wit = ""
    if c.jx.rows != c.k:
        wit = f"row counts: jx {c.jx.rows}, jz {c.k}"
    elif pj != Gf2Matrix.identity(c.k):
        bad = next(i for i, r in enumerate(pj.bits) if r != 1 << i)
        wit = f"jx row {bad} pairs as {pj.row_list(bad)}"
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
    gen = kernel_basis(h)
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
