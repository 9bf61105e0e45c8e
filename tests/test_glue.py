"""Glue-code synthesis checks: splits, naked/dressed/LDPC glue, classifier."""

import random

import pytest

from qsticker.codes import (
    OperatorSet,
    css_code,
    direct_sum,
    hgp,
    redundancy_number,
    repetition_check,
    support_union,
)
from qsticker.errors import InternalError
from qsticker.gf2 import Gf2Matrix, kernel_basis, rank, solve_left
from qsticker.glue import (
    GlueError,
    check_compatibility,
    classify_devisedness,
    dressing_matrix,
    finely_devised_glue,
    naked_glue,
    split_logicals,
)
from qsticker.stickers import paste_branch


def sigma_from_indices(code, *index_sets):
    rows = []
    for idxs in index_sets:
        acc = 0
        for i in idxs:
            acc ^= code.jz.bits[i]
        rows.append(acc)
    return OperatorSet("Z", Gf2Matrix(rows, code.n))


def surface13():
    return hgp(repetition_check(3), repetition_check(3))


def two_blocks():
    c5 = hgp(repetition_check(2), repetition_check(2))
    return direct_sum(c5, c5)


# -- split_logicals -----------------------------------------------------


def test_split_k1_whole_basis():
    c = surface13()
    s = sigma_from_indices(c, (0,))
    split = split_logicals(c, s)
    assert split.jza == c.jz
    assert split.jzc.rows == 0
    assert split.jxa == c.jx


def test_split_k2_product_operator():
    c = two_blocks()
    s = sigma_from_indices(c, (0, 1))
    split = split_logicals(c, s)
    assert split.q == 1
    # dual of Z1Z2 is a single X operator
    assert split.jxa.rows == 1
    assert split.jxa.mul_transpose(split.jza) == Gf2Matrix.identity(1)
    assert split.jxc.mul_transpose(split.jzc) == Gf2Matrix.identity(1)
    assert split.jxa.mul_transpose(split.jzc).is_zero()
    assert split.jxc.mul_transpose(split.jza).is_zero()


def test_split_q_equals_k():
    c = two_blocks()
    s = sigma_from_indices(c, (0,), (1,))
    split = split_logicals(c, s)
    assert split.jzc.rows == 0 and split.jxc.rows == 0
    assert split.jxa.mul_transpose(split.jza) == Gf2Matrix.identity(c.k)


def test_split_rejects_dependent_rows():
    c = two_blocks()
    s = sigma_from_indices(c, (0,), (0,))
    with pytest.raises(GlueError, match="dependent modulo stabiliser"):
        split_logicals(c, s)


def test_split_span_and_jbar():
    c = two_blocks()
    s = sigma_from_indices(c, (0, 1))
    split = split_logicals(c, s)
    both = split.jza.vstack(split.jzc)
    assert rank(both.vstack(c.jz)) == c.k  # rs(jza)+rs(jzc) = rs(jz)
    assert rank(both) == c.k


def test_split_accepts_stabilizer_dressed_rows():
    c = surface13()
    dressed = c.jz.bits[0] ^ c.hz.bits[0]
    s = OperatorSet("Z", Gf2Matrix([dressed], c.n))
    split = split_logicals(c, s)
    assert split.jxa.mul_transpose(split.jza) == Gf2Matrix.identity(1)


# -- naked glue ----------------------------------------------------------


def test_naked_glue_surface_code():
    c = surface13()
    s = sigma_from_indices(c, (0,))
    g = naked_glue(c, s)
    assert g.n_g == len(support_union(s))
    assert g.r_g <= c.hx.wmax() * g.n_g
    assert g.hg.wmax() <= c.hx.wmax()
    assert check_compatibility(c, g)
    assert g.s.wmax() == 1 and g.t.wmax() == 1
    # weight-3 logical: n_G = 3
    assert g.n_g == 3


def test_naked_glue_full_support_equals_hx():
    hx = Gf2Matrix([0b1111], 4)
    c = css_code(hx, Gf2Matrix.zeros(0, 4))
    sigma = OperatorSet("Z", Gf2Matrix([c.jz.bits[0] ^ c.jz.bits[1] ^ c.jz.bits[2]], 4))
    assert support_union(sigma) == (0, 1, 2, 3)
    g = naked_glue(c, sigma)
    assert g.hg == hx
    assert g.s == Gf2Matrix.identity(4)


def test_naked_glue_disjoint_supports_block_diagonal():
    c = two_blocks()
    s = sigma_from_indices(c, (0,), (1,))
    g = naked_glue(c, s)
    supp0 = support_union(sigma_from_indices(c, (0,)))
    local0 = {g.b_n.index(j) for j in supp0}
    for i in range(g.r_g):
        cols = {b for b in range(g.n_g) if g.hg[i, b]}
        assert cols <= local0 or not (cols & local0)


def test_glue_kernel_maps_into_ker_hx():
    rng = random.Random(31)
    c = surface13()
    for _ in range(5):
        idxs = [(0,)]
        s = sigma_from_indices(c, *idxs)
        g = naked_glue(c, s)
        ks = kernel_basis(g.hg).mul(g.s)
        for row in ks.bits:
            assert c.hx.mul_vec(row) == 0


# -- dressing matrix ------------------------------------------------------


def test_dressing_zero_rows_when_rn_zero():
    c = surface13()
    s = sigma_from_indices(c, (0,))
    split = split_logicals(c, s)
    g = naked_glue(c, s)
    d = dressing_matrix(split, g)
    assert d.rows == 0
    assert redundancy_number(c, s) == 0


def test_dressing_two_disjoint_logicals_single_pair_pattern():
    # Sigma = {Z1 Z2} on two disjoint blocks: D is one row with a single
    # 1 inside each block support
    c = two_blocks()
    s = sigma_from_indices(c, (0, 1))
    split = split_logicals(c, s)
    g = naked_glue(c, s)
    d = dressing_matrix(split, g)
    assert d.rows == 1
    supp0 = set(support_union(sigma_from_indices(c, (0,))))
    supp1 = set(support_union(sigma_from_indices(c, (1,))))
    dcols = {g.b_n[j] for j in range(g.n_g) if d[0, j]}
    assert len(dcols & supp0) == 1
    assert len(dcols & supp1) == 1
    assert len(dcols) == 2


def test_dressing_products_on_k4_code():
    lam_pair = Gf2Matrix([0b0011, 0b1100], 4)
    c = hgp(lam_pair, lam_pair)
    s = sigma_from_indices(c, (0, 1))
    assert redundancy_number(c, s) >= 1
    split = split_logicals(c, s)
    g = naked_glue(c, s)
    d = dressing_matrix(split, g)
    assert d.rows == redundancy_number(c, s)
    # dressing_matrix checks D G1^T = 0 itself; recheck it here
    g1 = split.jza.mul(g.s.transpose())
    assert d.mul_transpose(g1).is_zero()


# -- finely devised LDPC glue ---------------------------------------------


def test_fine_glue_rn0_equals_naked():
    c = surface13()
    s = sigma_from_indices(c, (0,))
    fine = finely_devised_glue(c, s)
    nk = naked_glue(c, s)
    assert fine.hg == nk.hg and fine.s == nk.s and fine.t == nk.t
    assert fine.devisedness == "fine"


def test_fine_glue_two_operator_bounds():
    c = two_blocks()
    s = sigma_from_indices(c, (0, 1))
    fine = finely_devised_glue(c, s)
    assert fine.devisedness == "fine"
    n_n = fine.meta["n_n"]
    rn, q = fine.meta["rn"], fine.meta["q"]
    assert fine.n_g <= n_n + 2 * rn * (q + 1)
    assert fine.r_g <= c.hx.wmax() * n_n + 2 * rn * (q + 1)
    assert fine.hg.wmax() <= max(c.hx.wmax() + 1, 3)
    assert fine.s.wmax() == 1 and fine.t.wmax() == 1
    assert check_compatibility(c, fine)


def test_fine_glue_random_sigma_on_k4():
    lam_pair = Gf2Matrix([0b0011, 0b1100], 4)
    c = hgp(lam_pair, lam_pair)
    rng = random.Random(77)
    for _ in range(10):
        rows = []
        while len(rows) < 2:
            acc = 0
            for b in c.jz.bits:
                if rng.random() < 0.5:
                    acc ^= b
            if acc and acc not in rows:
                rows.append(acc)
        mat = Gf2Matrix(rows, c.n)
        if rank(mat) < 2:
            continue
        s = OperatorSet("Z", mat)
        fine = finely_devised_glue(c, s)
        n_n, rn, q = fine.meta["n_n"], fine.meta["rn"], fine.meta["q"]
        assert fine.n_g <= n_n + 2 * rn * (q + 1)
        assert fine.r_g <= c.hx.wmax() * n_n + 2 * rn * (q + 1)
        assert fine.hg.wmax() <= max(c.hx.wmax() + 1, 3)
        assert classify_devisedness(fine, c, s) == "fine"


def test_fine_glue_kernel_projection_preserved():
    # (ker H_G)S must equal (ker H_D)S_N: fine classification plus
    # dimension bookkeeping pins both inclusions
    c = two_blocks()
    s = sigma_from_indices(c, (0, 1))
    fine = finely_devised_glue(c, s)
    nk = naked_glue(c, s)
    split = split_logicals(c, s)
    d = dressing_matrix(split, nk)
    hd = nk.hg.vstack(d)
    lhs = kernel_basis(fine.hg).mul(fine.s)
    rhs = kernel_basis(hd).mul(nk.s)
    assert solve_left(rhs, lhs) is not None
    assert solve_left(lhs, rhs) is not None


# -- classifier -----------------------------------------------------------


def test_classifier_coarse_not_fine_when_rn_positive():
    c = two_blocks()
    s = sigma_from_indices(c, (0, 1))
    nk = naked_glue(c, s)
    assert classify_devisedness(nk, c, s) == "coarse"
    assert nk.devisedness == "coarse"


def test_classifier_none_when_kernel_misses_sigma():
    c = surface13()
    s = sigma_from_indices(c, (0,))
    # a glue code whose kernel misses the logical: identity on B_N
    b_n = support_union(s)
    hg = Gf2Matrix.identity(len(b_n))
    sg = Gf2Matrix([1 << j for j in b_n], c.n)
    t = Gf2Matrix.zeros(c.hx.rows, len(b_n))
    from qsticker.glue import GlueSpec

    cand = GlueSpec(hg=hg, s=sg, t=t, devisedness="none", b_n=b_n, c_n=())
    if check_compatibility(c, cand):
        assert classify_devisedness(cand, c, s) == "none"
    else:
        # compatibility fails for this memory: classifier must refuse
        with pytest.raises(GlueError):
            classify_devisedness(cand, c, s)


def test_gamma_solvable_for_fine_glue():
    # finely devised implies J_{X,C} S^T = gamma H_G is solvable
    c = two_blocks()
    s = sigma_from_indices(c, (0, 1))
    split = split_logicals(c, s)
    fine = finely_devised_glue(c, s, split=split)
    gamma = solve_left(fine.hg, split.jxc.mul(fine.s.transpose()))
    assert gamma is not None
    assert gamma.mul(fine.hg) == split.jxc.mul(fine.s.transpose())


def test_glue_codewords_transfer_sigma():
    # a branch paste's J_G is J_{Z,A} on B_N: glue codewords whose
    # S-images are J_{Z,A}
    c = two_blocks()
    s = sigma_from_indices(c, (0, 1))
    nk = naked_glue(c, s)
    split = split_logicals(c, s)
    jg = paste_branch(c, split, nk, 2).j_g
    assert jg.mul(nk.s) == split.jza
    for row in jg.bits:
        assert nk.hg.mul_vec(row) == 0


# -- pinned outputs -----------------------------------------------------


def test_fine_glue_golden_digest_on_desk_code():
    """SHA-256 of (H_G, S, T, meta) over 24 seeded Σ on the desk code.

    The value was recorded from the frozenset-edge duplication code that
    the check-matrix duplications replaced; every glue bit must stay put.
    """
    import hashlib

    from qsticker.io import desk_code
    from qsticker.sampling import SigmaSampler

    code = desk_code(7)
    sampler = SigmaSampler(code=code, l_max=5, thickness=8, max_q=8, seed=3)
    digest = hashlib.sha256()
    for trial in range(3):
        for q in range(1, 9):
            g = finely_devised_glue(code, sampler.sample(q, trial))
            digest.update(repr((g.hg.bits, g.s.bits, g.t.bits,
                                sorted(g.meta.items()))).encode())
    assert digest.hexdigest() == (
        "fa6bcd2f1a3b55c8e2b50c6928f3858cd1047ae40c69678c9a241029867064b3")


def _glue_pipeline_cases():
    """Seeded Σ on desk_code(3) and on the k = 1 codes hgp:5,5 and hgp:4,6.

    The hgp operators are the stored logical dressed by random Z
    stabilisers, so every one of them has rn = 0.
    """
    from qsticker.io import desk_code, load_code
    from qsticker.sampling import SigmaSampler

    desk = desk_code(3)
    sampler = SigmaSampler(code=desk, l_max=4, thickness=3, max_q=6, seed=11)
    for trial in range(2):
        for q in range(1, 7):
            yield desk, sampler.sample(q, trial)
    for spec in ("hgp:5,5", "hgp:4,6"):
        code = load_code(spec)
        rng = random.Random(spec)
        for _ in range(4):
            row = code.jz.bits[0]
            for stab in code.z_stabilizer_span().bits:
                if rng.random() < 0.3:
                    row ^= stab
            yield code, OperatorSet("Z", Gf2Matrix([row], code.n))


def test_glue_pipeline_golden_digest():
    """SHA-256 of the naked class, D, (H_G, S, T) and meta of each case.

    Recorded before the fine path stopped classifying the naked glue and
    before the dressing matrix dropped its second solve.
    """
    import hashlib

    digest = hashlib.sha256()
    rn_zero = 0
    for code, sigma in _glue_pipeline_cases():
        split = split_logicals(code, sigma)
        naked = naked_glue(code, sigma)
        d = dressing_matrix(split, naked)
        g = finely_devised_glue(code, sigma, split=split)
        rn_zero += d.rows == 0
        digest.update(repr((naked.devisedness, d.bits, d.cols, g.hg.bits,
                            g.hg.cols, g.s.bits, g.t.bits, g.devisedness,
                            sorted(g.meta.items()))).encode())
    assert rn_zero >= 8
    assert digest.hexdigest() == (
        "da2b4887567dc4713140c423cb8bc011a24050911c58d7cdada62f72602363b7")


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_fine_glue_classifies_once_and_dressing_solves_once(monkeypatch):
    from qsticker import glue

    c = two_blocks()
    s = sigma_from_indices(c, (0, 1))
    split = split_logicals(c, s)
    naked = naked_glue(c, s)
    solves = _counting(monkeypatch, glue, "solve_left")
    forms = _counting(monkeypatch, glue, "standard_form")
    kernels = _counting(monkeypatch, glue, "kernel_complement")
    assert dressing_matrix(split, naked).rows == 1
    assert len(solves) == 0 and len(forms) == 0
    assert len(kernels) == 0  # D is read off one echelon of H_N
    kernels.clear()
    classifications = _counting(monkeypatch, glue, "classify_devisedness")
    assert finely_devised_glue(c, s, split=split).devisedness == "fine"
    assert len(classifications) == 1
    assert len(kernels) == 1  # the final classification


def test_dressing_rejects_a_split_of_another_sigma():
    # the naked glue covers Z1's block only; the split of Z1 Z2 pairs
    # J_{X,C} = X1 + X2 with J_{Z,A} = Z1 Z2, so D = X1 on B_N cuts J_{Z,A}
    c = two_blocks()
    naked = naked_glue(c, sigma_from_indices(c, (0,)))
    split = split_logicals(c, sigma_from_indices(c, (0, 1)))
    with pytest.raises(InternalError, match="D G1"):
        dressing_matrix(split, naked)
