"""J_X signatures against the eliminations they replace.

For a code with bare logicals, the logical class of v ∈ ker H_X is its
J_X signature v J_X^T.  The glue, cost and redundancy code reads classes
that way; the oracles below keep the elimination forms against the
stack (J_Z; H_Z; F_Z) and check that both answer alike on small HGP
codes and gauge-completed subsystem codes, with stabiliser+gauge
dressed and undressed Σ.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st
from test_gf2 import complete_basis

from qsticker.codes import (
    OperatorSet,
    contained_logical_count,
    hgp,
    redundancy_number,
    subsystem_code,
    support_union,
    validate_code,
)
from qsticker.gf2 import (
    Gf2Matrix,
    RowReducer,
    kernel_basis,
    rank,
    row_basis,
    solve_left,
    standard_form,
    subspace_intersect,
)
from qsticker.glue import (
    classify_devisedness,
    dressing_matrix,
    finely_devised_glue,
    naked_glue,
    split_logicals,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


# -- the elimination forms --------------------------------------------


def class_by_elimination(c, rows):
    """J_Z block of the solve against (J_Z; H_Z; F_Z); None off ker H_X."""
    coeff = solve_left(c.jz.vstack(c.z_stabilizer_span()), rows)
    return None if coeff is None else coeff.take_cols(range(c.k))


def dressing_by_elimination(c, split, naked):
    """u_basis, α and U as the dressing matrix found them by elimination."""
    ker_hn = kernel_basis(naked.hg)
    ker_s = ker_hn.mul(naked.s)
    stab = c.z_stabilizer_span()
    u_basis = subspace_intersect(ker_s, stab)
    g0 = u_basis.mul(naked.s.transpose())
    g1 = split.jza.mul(naked.s.transpose())
    w0 = complete_basis(g0.vstack(g1), ker_hn)
    coeff = solve_left(split.jza.vstack(split.jzc).vstack(stab), w0.mul(naked.s))
    q = split.q
    return (ker_s, w0, u_basis, coeff.take_cols(range(q)),
            coeff.take_cols(range(q, c.k)))


def classify_by_elimination(g, c, sigma):
    ks = kernel_basis(g.hg).mul(g.s)
    if solve_left(ks, sigma.vectors) is None:
        return "none"
    if solve_left(sigma.vectors.vstack(c.z_stabilizer_span()), ks) is None:
        return "coarse"
    return "fine"


def contained_by_column_restriction(c, support, species):
    """k_N from the left kernel of (J; stabiliser+gauge) off the support."""
    support_set = set(support)
    comp = [j for j in range(c.n) if j not in support_set]
    j = c.jz if species == "Z" else c.jx
    stab = c.hz.vstack(c.fz) if species == "Z" else c.hx.vstack(c.fx)
    if not comp:
        return j.rows
    stacked = j.take_cols(comp).vstack(stab.take_cols(comp))
    left_null = kernel_basis(stacked.transpose())
    return rank(left_null.take_cols(range(j.rows)))


# -- codes and operator sets ------------------------------------------


@st.composite
def classical_checks(draw):
    """A check matrix with more bits than checks, so its kernel is nonzero."""
    r = draw(st.integers(1, 3))
    n = draw(st.integers(r + 1, 5))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=r, max_size=r))
    return Gf2Matrix(rows, n)


def subset_xor(draw, rows):
    acc = 0
    for r in rows:
        if draw(st.booleans()):
            acc ^= r
    return acc


@st.composite
def codes_and_sigmas(draw):
    """(code, Σ): an HGP code, or a subsystem code keeping some of its
    logical pairs (k_g > 0); Σ independent, optionally dressed."""
    c = hgp(draw(classical_checks()), draw(classical_checks()))
    if c.k >= 2 and draw(st.booleans()):
        keep = sorted(draw(st.sets(st.integers(0, c.k - 1), min_size=1,
                                   max_size=c.k - 1)))
        c = subsystem_code(c.hx, c.hz, c.jx.take_rows(keep), c.jz.take_rows(keep))
    reducer = RowReducer()
    xs = [x for x in draw(st.lists(st.integers(1, (1 << c.k) - 1), min_size=1,
                                   max_size=4))
          if reducer.add(x)]
    dressed = draw(st.booleans())
    stab = c.z_stabilizer_span().bits
    rows = []
    for x in xs:
        v = Gf2Matrix([x], c.k).mul(c.jz).bits[0]
        rows.append(v ^ (subset_xor(draw, stab) if dressed else 0))
    return c, OperatorSet("Z", Gf2Matrix(rows, c.n))


# -- properties -------------------------------------------------------


@PROPERTY
@given(codes_and_sigmas())
def test_codes_are_valid_with_bare_logicals(case):
    c, _ = case
    assert validate_code(c).ok


@PROPERTY
@given(codes_and_sigmas())
def test_split_coefficients_are_signatures(case):
    c, sigma = case
    x = sigma.vectors.mul_transpose(c.jx)
    assert class_by_elimination(c, sigma.vectors) == x
    split = split_logicals(c, sigma)
    # the J_Z coefficients of jza = r Σ are its J_X signatures
    assert split.jza.mul_transpose(c.jx) == class_by_elimination(c, split.jza)


@PROPERTY
@given(codes_and_sigmas())
def test_dressing_signatures_match_elimination(case):
    c, sigma = case
    split = split_logicals(c, sigma)
    naked = naked_glue(c, sigma)
    ker_s, w0, u_basis, alpha, u_mat = dressing_by_elimination(c, split, naked)
    sig = ker_s.mul_transpose(c.jx)
    assert row_basis(kernel_basis(sig.transpose()).mul(ker_s)) == u_basis
    w0_s = w0.mul(naked.s)
    assert w0_s.mul_transpose(split.jxa) == alpha
    assert w0_s.mul_transpose(split.jxc) == u_mat
    # D as the completion built it: J_{X,C} on B_N at U's standard-form pivots
    _, pi3, _ = standard_form(u_mat)
    jxc_n = split.jxc.mul(naked.s.transpose())
    assert dressing_matrix(split, naked) == jxc_n.take_rows(pi3[: w0.rows])


@PROPERTY
@given(codes_and_sigmas())
def test_classification_matches_elimination(case):
    c, sigma = case
    fine = finely_devised_glue(c, sigma)
    naked = naked_glue(c, sigma)
    # the first operator's naked glue, judged against all of Σ
    first = naked_glue(c, OperatorSet("Z", sigma.vectors.take_rows([0])))
    for g in (fine, naked, first):
        assert classify_devisedness(g, c, sigma) == classify_by_elimination(g, c, sigma)
    assert naked.devisedness == ("fine" if fine.meta["rn"] == 0 else "coarse")


@PROPERTY
@given(codes_and_sigmas())
def test_redundancy_number_matches_elimination(case):
    c, sigma = case
    stab = c.z_stabilizer_span()
    q = rank(sigma.vectors.vstack(stab)) - rank(stab)
    k_n = contained_by_column_restriction(c, support_union(sigma), "Z")
    assert redundancy_number(c, sigma) == k_n - q


@PROPERTY
@given(codes_and_sigmas(), st.data())
def test_contained_logical_count_matches_column_restriction(case, data):
    c, sigma = case
    mask = data.draw(st.integers(0, (1 << c.n) - 1))
    picked = tuple(u for u in range(c.n) if mask >> u & 1)
    # the X side is the Z side of the code with X and Z swapped
    swapped = replace(c, hx=c.hz, hz=c.hx, jx=c.jz, jz=c.jx, fx=c.fz, fz=c.fx)
    for support in (support_union(sigma), picked, (), tuple(range(c.n))):
        for code, species in ((c, "Z"), (swapped, "X")):
            assert (contained_logical_count(code, support)
                    == contained_by_column_restriction(c, support, species))
