"""Stickers, deformed codes, and the generalized-lattice-surgery checks.

A sticker is the hypergraph product of a glue code H_G with a length-d_R
repetition code λ: the plain one for the measurement kind, the
truncated one (last column dropped) for the branch kind.  One formula
builds both,

    H_X = (E_{d_R−1} ⊗ H_G | λ ⊗ E_{r_G}),
    H_Z = (λ^T ⊗ E_{n_G} | E_{λ.cols} ⊗ H_G^T),

so the branch forms equal the measurement forms with the last block
column of H_X and the last block column and row of H_Z deleted.

Pasting a sticker onto the memory replaces the first repetition slot by
the memory itself: S enters the first sticker Z-check block row and T
couples the memory X-checks to the first check-derived qubit block.
Qubit layout of a deformed code:

    [ memory (n) | u_1 .. u_{d_R-1} (n_G each) | v_1 .. v_dR (r_G each) ]

with the v-block count d_R for measurement and d_R−1 for branch
stickers; the open boundary of a branch sticker is the last u block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .codes import (
    OperatorSet,
    SubsystemCode,
    exact_distance,
    repetition_check,
    subsystem_code,
)
from .gf2 import Gf2Matrix, RowReducer, solve_left
from .glue import (GlueError, GlueSpec, LogicalSplit, finely_devised_glue,
                   naked_glue, split_logicals)


def _check_sticker(d_r: int, kind: str) -> None:
    if d_r < 2:
        raise ValueError("sticker length d_r must be at least 2")
    if kind not in ("measurement", "branch"):
        raise ValueError("kind must be 'measurement' or 'branch'")


def sticker_qubits(n_g: int, r_g: int, d_r: int, kind: str) -> int:
    """Qubits of a sticker: d_R−1 glue-bit blocks and d_R (measurement)
    or d_R−1 (branch) glue-check blocks."""
    _check_sticker(d_r, kind)
    return (d_r - 1) * n_g + (d_r if kind == "measurement" else d_r - 1) * r_g


def build_sticker(glue: GlueSpec, d_r: int,
                  kind: str) -> tuple[Gf2Matrix, Gf2Matrix]:
    """(H_X, H_Z) of the glue code's hypergraph product with a repetition code."""
    _check_sticker(d_r, kind)
    hg = glue.hg
    lam = repetition_check(d_r, truncated=kind == "branch")
    hx = Gf2Matrix.identity(d_r - 1).kron(hg).hstack(
        lam.kron(Gf2Matrix.identity(glue.r_g)))
    hz = lam.transpose().kron(Gf2Matrix.identity(glue.n_g)).hstack(
        Gf2Matrix.identity(lam.cols).kron(hg.transpose()))
    return hx, hz


@dataclass(frozen=True)
class DeformedCode:
    """Memory + sticker composite with its logical generators."""

    code: SubsystemCode
    kind: str
    memory: SubsystemCode
    split: LogicalSplit
    glue: GlueSpec
    d_r: int
    d_t: int  # lattice-surgery schedule metadata, no simulation attached
    mem_qubits: int
    ob_range: tuple[int, int] | None  # open boundary block, branch only
    j_g: Gf2Matrix | None  # J_{Z,A} on B_N, so J_G S = J_{Z,A}; branch only
    provenance: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def k(self) -> int:
        return self.code.k

    def pad_memory_rows(self, m: Gf2Matrix) -> Gf2Matrix:
        """Memory-space rows embedded into the deformed qubit space."""
        return m.hstack(Gf2Matrix.zeros(m.rows, self.n - self.mem_qubits))


def _paste(c: SubsystemCode, split: LogicalSplit, glue: GlueSpec, d_r: int,
           kind: str, jx_mem: Gf2Matrix, jz_mem: Gf2Matrix,
           gamma: Gf2Matrix | None, j_g: Gf2Matrix | None) -> DeformedCode:
    """The memory and its sticker side by side, with their logicals.

    Only T (memory X-checks to the v_1 block) and S (memory qubits into
    the first sticker Z-check block) couple the two.  Each memory X
    logical row J carries J S^T on every u block, plus γ on the last v
    block for a measurement sticker; Z logicals stay on the memory.
    """
    hx_s, hz_s = build_sticker(glue, d_r, kind)
    n, n_g = c.n, glue.n_g
    total = n + hx_s.cols
    hx = [*c.hx.bits, *(r << n for r in hx_s.bits)]
    for i, r in enumerate(glue.t.bits):
        hx[i] |= r << (n + (d_r - 1) * n_g)
    hz = [*c.hz.bits, *(r << n for r in hz_s.bits)]
    for i, r in enumerate(glue.s.bits, c.hz.rows):
        hz[i] |= r
    jx_s = jx_mem.mul(glue.s.transpose()).bits
    jx = list(jx_mem.bits)
    for i in range(len(jx)):
        for j in range(1, d_r):
            jx[i] |= jx_s[i] << (n + (j - 1) * n_g)
        if gamma is not None:
            jx[i] |= gamma.bits[i] << (n + (d_r - 1) * (n_g + glue.r_g))
    jz = jz_mem.hstack(Gf2Matrix.zeros(jz_mem.rows, total - n))
    suffix = "meas" if kind == "measurement" else "branch"
    code = subsystem_code(Gf2Matrix(hx, total), Gf2Matrix(hz, total),
                          Gf2Matrix(jx, total), jz,
                          name=f"{c.name}+{suffix}")
    # `subsystem_code` already checked hx (hz; jz)^T = 0 and hz jx^T = 0
    if code.jx.mul_transpose(code.jz) != Gf2Matrix.identity(code.k):
        raise GlueError("deformed logical pairing is not the identity")
    ob_lo = n + (d_r - 2) * n_g
    return DeformedCode(
        code=code, kind=kind, memory=c, split=split, glue=glue,
        d_r=d_r, d_t=c.distance if c.distance is not None else d_r,
        mem_qubits=n, ob_range=(ob_lo, ob_lo + n_g) if kind == "branch" else None,
        j_g=j_g,
        provenance={"memory": c.name, "sticker": kind,
                    "q": split.q, "d_r": d_r},
    )


def paste_measurement(c: SubsystemCode, split: LogicalSplit, glue: GlueSpec,
                      d_r: int) -> DeformedCode:
    """Deformed code measuring ⟨Σ⟩: k drops to k − q.

    Requires a finely devised glue code; γ solving J_{X,C} S^T = γ H_G
    exists exactly then and completes the surviving X logicals.
    """
    if d_r < 2:
        raise ValueError("d_r must be at least 2")
    if glue.devisedness != "fine":
        raise GlueError("measurement paste needs a finely devised glue code")
    gamma = solve_left(glue.hg, split.jxc.mul(glue.s.transpose()))
    if gamma is None:
        raise GlueError("glue is labelled fine but gamma has no solution: "
                        "J_{X,C} S^T is not in the row space of H_G")
    return _paste(c, split, glue, d_r, "measurement", split.jxc, split.jzc,
                  gamma, None)


def paste_branch(c: SubsystemCode, split: LogicalSplit, glue: GlueSpec,
                 d_r: int) -> DeformedCode:
    """Deformed code transferring ⟨Σ⟩ to the open boundary: k is preserved.

    S must embed the glue bits at B_N, as the naked glue's does (a fine
    glue with rn > 0 does not).  Then J_G = J_{Z,A} on B_N is the one
    solution of J_G S = J_{Z,A}, valid when J_{Z,A} lies inside B_N and
    J_G inside ker H_G.
    """
    if d_r < 2:
        raise ValueError("d_r must be at least 2")
    if glue.devisedness not in ("coarse", "fine"):
        raise GlueError("branch paste needs an at least coarsely devised glue code")
    if glue.s != Gf2Matrix([1 << j for j in glue.b_n], c.n):
        raise GlueError("branch paste needs a glue whose S embeds its bits at B_N")
    j_g = split.jza.take_cols(glue.b_n)
    if j_g.mul(glue.s) != split.jza or not glue.hg.mul_transpose(j_g).is_zero():
        raise GlueError("vectors are not transferred by this glue code")
    return _paste(c, split, glue, d_r, "branch", split.jxa.vstack(split.jxc),
                  split.jza.vstack(split.jzc), None, j_g)


def deform(c: SubsystemCode, sigma: OperatorSet, kind: str,
           d_r: int) -> DeformedCode:
    """The deformed code of a `kind` sticker for Σ on the memory.

    Each kind is pasted with the glue it needs: a measurement sticker
    with the finely devised glue, so it measures exactly ⟨Σ⟩, and a
    branch sticker with the naked glue, whose S embeds its bits at B_N.
    """
    if kind not in ("measurement", "branch"):
        raise ValueError("kind must be 'measurement' or 'branch'")
    split = split_logicals(c, sigma)
    if kind == "measurement":
        glue = finely_devised_glue(c, sigma, split=split)
        return paste_measurement(c, split, glue, d_r)
    return paste_branch(c, split, naked_glue(c, sigma), d_r)


# -- generalized-lattice-surgery statement suite ------------------------


@dataclass
class StatementResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass
class GlsReport:
    kind: str
    statements: list[StatementResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(s.status != "fail" for s in self.statements)

    def to_report(self) -> dict:
        return {
            "schema": 1,
            "kind": self.kind,
            "ok": self.ok,
            "statements": [
                {"name": s.name, "status": s.status, "detail": s.detail}
                for s in self.statements
            ],
        }


def _outside(reducer: RowReducer, rows: Gf2Matrix) -> str:
    """Empty if every row lies in the reducer's span, else the first that does not."""
    for i, row in enumerate(rows.bits):
        if reducer.reduce(row):
            return f"row {i} is outside the span"
    return ""


def _spaces_equal(a: Gf2Matrix, b: Gf2Matrix) -> str:
    """Empty if rs(a) = rs(b), else a row of a (lhs) or b (rhs) outside."""
    wit = _outside(RowReducer(b.bits), a)
    if wit:
        return "lhs: " + wit
    wit = _outside(RowReducer(a.bits), b)
    return wit and "rhs: " + wit


def _same_logical_classes(code: SubsystemCode, rows: Gf2Matrix) -> str:
    """k rows in rs J_Z ⊕ S, independent modulo S = rs H_Z ⊕ rs F_Z.

    Writing rows = C J_Z + (an S part), rows mod S = C (J_Z mod S), so
    r = rank(rows mod S) ≤ rank C: a pass here implies an invertible J_Z
    coefficient block C, and the two agree whenever J_Z is independent
    modulo S, as it is for a valid code.
    """
    stab = code.z_stabilizer_span()
    wit = _outside(RowReducer(code.jz.bits + stab.bits), rows)
    if wit:
        return wit
    modulo = RowReducer(stab.bits)
    r = sum(modulo.add(row) for row in rows.bits)
    if rows.rows == code.k == r:
        return ""
    return f"J_Z coefficients have rank {r} for {rows.rows} rows, k={code.k}"


# the exhaustive distance search covers at least this weight
_DISTANCE_WEIGHT_CAP = 5


def verify_surgery(dc: DeformedCode, distance_qubit_cap: int = 36) -> GlsReport:
    """Check the lattice-surgery theorem statement by statement.

    Everything except the distance statements is exact linear algebra
    through the memory-projection relations.  The distance bound is
    re-verified exhaustively only within the stated budget; otherwise
    it is reported as implied-by-the-general-bound but not re-checked.
    """
    c = dc.memory
    code = dc.code
    rep = GlsReport(kind=dc.kind)
    mem_cols = range(dc.mem_qubits)
    hz_span = RowReducer(code.hz.bits)

    def check(name: str, wit: str) -> None:
        rep.statements.append(
            StatementResult(name, "fail" if wit else "pass", wit))

    # statement i needs the deformed X rows to be genuine stabilisers
    # (they must commute with every deformed Z check) and to project
    # onto exactly the memory X stabilisers
    comm = code.hx.mul_transpose(code.hz)
    if not comm.is_zero():
        bad = next(i for i, r in enumerate(comm.bits) if r)
        wit = (f"deformed X row {bad} anticommutes with a Z check "
               "(pasting identity violated)")
    else:
        wit = _spaces_equal(c.hx, code.hx.take_cols(mem_cols))
    check("i: X stabilisers match through P", wit)
    check("ii: Z stabilisers survive pasting",
          _outside(hz_span, dc.pad_memory_rows(c.hz)))

    if dc.kind == "measurement":
        check("iii: commuting X logicals persist on the memory",
              _spaces_equal(dc.split.jxc, code.jx.take_cols(mem_cols)))
        check("iv: complementary Z logicals remain logical",
              _spaces_equal(dc.pad_memory_rows(dc.split.jzc), code.jz))
        check("v: measured operators become stabilisers",
              _outside(hz_span, dc.pad_memory_rows(dc.split.jza)))
        bound_desc = f"min(d/|S|, d_r) = min(d/{dc.glue.s_norm}, {dc.d_r})"
    else:
        check("iii': all X logicals persist on the memory",
              _spaces_equal(c.jx, code.jx.take_cols(mem_cols)))
        check("iv': all Z logicals are preserved",
              _same_logical_classes(code, dc.pad_memory_rows(c.jz)))
        lo, hi = dc.ob_range
        transferred = dc.pad_memory_rows(dc.split.jza)
        shifted = Gf2Matrix([r << lo for r in dc.j_g.bits], code.n)
        check("v': measured operators transfer to the open boundary",
              _outside(hz_span, transferred.add(shifted)))
        bound_desc = f"d/|S| = d/{dc.glue.s_norm}"

    if c.distance is None:
        rep.statements.append(StatementResult(
            "vi: distance bound", "skipped", "memory distance unknown"))
        return rep
    if dc.kind == "measurement":
        bound = min(c.distance // max(dc.glue.s_norm, 1), dc.d_r)
    else:
        bound = c.distance // max(dc.glue.s_norm, 1)
    if code.n <= distance_qubit_cap:
        cap = min(max(_DISTANCE_WEIGHT_CAP, bound), code.n)
        res = exact_distance(code, cap=cap)
        if res.value is not None:
            ok = res.value >= bound
            rep.statements.append(StatementResult(
                "vi: distance bound",
                "pass" if ok else "fail",
                f"exhaustive d={res.value} vs {bound_desc}={bound}"))
        elif code.k == 0:
            rep.statements.append(StatementResult(
                "vi: distance bound", "pass",
                "k=0 deformed code: no logical errors, bound vacuous"))
        elif res.searched_weight >= bound - 1:
            rep.statements.append(StatementResult(
                "vi: distance bound", "pass",
                f"no logical error up to weight {res.searched_weight}; "
                f"bound {bound_desc}={bound} certified"))
        else:
            rep.statements.append(StatementResult(
                "vi: distance bound", "skipped", "bound unverified (budget)"))
    else:
        rep.statements.append(StatementResult(
            "vi: distance bound", "skipped", "bound unverified (budget)"))
    return rep
