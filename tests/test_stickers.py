"""Sticker assembly, pasting, and the lattice-surgery statement suite."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st
from test_signatures import codes_and_sigmas

from qsticker.branching import estimate_qubit_cost
from qsticker.codes import (
    OperatorSet,
    direct_sum,
    exact_distance,
    hgp,
    redundancy_number,
    repetition_check,
    validate_code,
)
from qsticker.gf2 import Gf2Matrix, rank, solve_left
from qsticker.glue import (
    GlueError,
    classify_devisedness,
    finely_devised_glue,
    naked_glue,
    split_logicals,
)
from qsticker.stickers import (
    DeformedCode,
    _same_logical_classes,
    build_sticker,
    deform,
    paste_branch,
    paste_measurement,
    sticker_qubits,
    verify_surgery,
)


def sigma_from_indices(code, *index_sets):
    rows = []
    for idxs in index_sets:
        acc = 0
        for i in idxs:
            acc ^= code.jz.bits[i]
        rows.append(acc)
    return OperatorSet("Z", Gf2Matrix(rows, code.n))


def surface13():
    c = hgp(repetition_check(3), repetition_check(3))
    return replace(c, distance=3)


def two_blocks():
    c5 = replace(hgp(repetition_check(2), repetition_check(2)), distance=2)
    return replace(direct_sum(c5, c5), distance=2)


def toy_glue(n_g=3, r_g=2):
    """A small standalone glue spec for dimension tests."""
    from qsticker.glue import GlueSpec

    hg = Gf2Matrix.from_rows([[1, 1, 0], [0, 1, 1]])
    return GlueSpec(hg=hg, s=Gf2Matrix.zeros(n_g, 5), t=Gf2Matrix.zeros(4, r_g),
                    devisedness="coarse", b_n=(0, 1, 2), c_n=(0, 1))


def test_sticker_qubit_counts():
    g = toy_glue()
    m2_hx, _ = build_sticker(g, 2, "measurement")
    assert m2_hx.cols == 1 * 3 + 2 * 2 == 7
    b2_hx, _ = build_sticker(g, 2, "branch")
    assert b2_hx.cols == 1 * (3 + 2) == 5
    m3_hx, m3_hz = build_sticker(g, 3, "measurement")
    assert m3_hx.rows == 2 * 2  # (d_R-1) r_G X-checks
    assert m3_hz.rows == 3 * 3  # d_R n_G Z-checks
    with pytest.raises(ValueError):
        build_sticker(g, 1, "measurement")
    for kind in ("measurement", "branch"):
        for d_r in range(2, 6):
            assert (sticker_qubits(g.n_g, g.r_g, d_r, kind)
                    == build_sticker(g, d_r, kind)[0].cols)


def test_sticker_qubits_rejects_an_unknown_kind():
    # the price used to fall through to the branch formula (8 here)
    with pytest.raises(ValueError,
                       match="kind must be 'measurement' or 'branch'"):
        sticker_qubits(5, 3, 2, "bogus")
    with pytest.raises(ValueError,
                       match="kind must be 'measurement' or 'branch'"):
        build_sticker(toy_glue(), 2, "bogus")


def test_sticker_qubits_rejects_d_r_below_two():
    # d_R = 1 used to price a measurement sticker at r_G qubits (3 here)
    for d_r in (1, 0):
        with pytest.raises(ValueError,
                           match="sticker length d_r must be at least 2"):
            sticker_qubits(5, 3, d_r, "measurement")
        with pytest.raises(ValueError,
                           match="sticker length d_r must be at least 2"):
            build_sticker(toy_glue(), d_r, "measurement")


def test_branch_is_measurement_with_deletions():
    # H^B_X = H^M_X minus the last block column; H^B_Z additionally
    # minus the last block row
    g = toy_glue()
    n_g, r_g = g.n_g, g.r_g
    for d_r in (2, 3, 4):
        m_hx, m_hz = build_sticker(g, d_r, "measurement")
        b_hx, b_hz = build_sticker(g, d_r, "branch")
        keep = list(range((d_r - 1) * n_g + (d_r - 1) * r_g))
        assert b_hx == m_hx.take_cols(keep)
        assert b_hz == m_hz.take_rows(range((d_r - 1) * n_g)).take_cols(keep)


def test_sticker_checks_commute():
    g = toy_glue()
    for kind in ("measurement", "branch"):
        for d_r in (2, 3, 4):
            hx, hz = build_sticker(g, d_r, kind)
            assert hx.mul_transpose(hz).is_zero()


def test_deform_pairs_each_kind_with_its_glue():
    c = two_blocks()
    s = sigma_from_indices(c, (0,), (1,))
    split = split_logicals(c, s)
    fine = finely_devised_glue(c, s, split=split)
    for d_r in (2, 3):
        assert (deform(c, s, "measurement", d_r)
                == paste_measurement(c, split, fine, d_r))
        assert (deform(c, s, "branch", d_r)
                == paste_branch(c, split, naked_glue(c, s), d_r))
    with pytest.raises(ValueError, match="kind must be"):
        deform(c, s, "transfer", 2)


def test_every_sigma_consumer_gives_the_one_precondition_witness():
    c = two_blocks()
    assert c.hx.mul_vec(1)
    consumers = [
        lambda sigma: split_logicals(c, sigma),
        lambda sigma: naked_glue(c, sigma),
        lambda sigma: finely_devised_glue(c, sigma),
        lambda sigma: redundancy_number(c, sigma),
        lambda sigma: estimate_qubit_cost(c, sigma, "ds"),
        lambda sigma: estimate_qubit_cost(c, sigma, "bfb"),
        lambda sigma: deform(c, sigma, "measurement", 2),
        lambda sigma: deform(c, sigma, "branch", 2),
    ]
    for sigma, message in (
            (OperatorSet("Z", Gf2Matrix([c.jz.bits[0], 1], c.n)),
             r"^sigma row 1 is not in ker hx$"),
            (OperatorSet("X", c.jx), r"^sigma must be a Z-species operator set$")):
        for consume in consumers:
            with pytest.raises(ValueError, match=message):
                consume(sigma)


def test_paste_measurement_surface_code():
    c = surface13()
    s = sigma_from_indices(c, (0,))
    split = split_logicals(c, s)
    fine = finely_devised_glue(c, s, split=split)
    for d_r in (2, 3):
        dc = paste_measurement(c, split, fine, d_r)
        assert dc.k == 0
        assert dc.n == 13 + (d_r - 1) * fine.n_g + d_r * fine.r_g
        assert validate_code(dc.code).ok


def test_paste_measurement_requires_fine():
    c = two_blocks()
    s = sigma_from_indices(c, (0, 1))
    split = split_logicals(c, s)
    nk = naked_glue(c, s)
    assert nk.devisedness == "coarse"
    with pytest.raises(GlueError):
        paste_measurement(c, split, nk, 2)


def test_paste_measurement_rejects_coarse_glue_labelled_fine():
    c = two_blocks()
    s = sigma_from_indices(c, (0, 1))
    split = split_logicals(c, s)
    mislabelled = replace(naked_glue(c, s), devisedness="fine")
    with pytest.raises(GlueError, match="labelled fine but gamma has no solution"):
        paste_measurement(c, split, mislabelled, 2)


def test_paste_measurement_k2_q1():
    c = two_blocks()
    s = sigma_from_indices(c, (0, 1))
    split = split_logicals(c, s)
    fine = finely_devised_glue(c, s, split=split)
    dc = paste_measurement(c, split, fine, 2)
    assert dc.k == 1
    assert dc.code.jx.mul_transpose(dc.code.jz) == Gf2Matrix.identity(1)
    assert validate_code(dc.code).ok


def test_measurement_deformed_distance_bound_exhaustive():
    c = surface13()
    s = sigma_from_indices(c, (0,))
    split = split_logicals(c, s)
    fine = finely_devised_glue(c, s, split=split)
    for d_r in (2, 3):
        dc = paste_measurement(c, split, fine, d_r)
        bound = min(c.distance // fine.s_norm, d_r)
        res = exact_distance(dc.code, cap=max(bound, 4))
        # k=0 here: certify no logical error below the bound instead
        assert res.value is None and "k=0" in res.note or res.value >= bound


def test_branch_paste_preserves_k_and_transfers():
    c = two_blocks()
    s = sigma_from_indices(c, (0, 1))
    split = split_logicals(c, s)
    nk = naked_glue(c, s)
    for d_r in (2, 4):
        dc = paste_branch(c, split, nk, d_r)
        assert dc.k == c.k
        assert validate_code(dc.code).ok
        # transferred-operator identity: sigma padded + J_G on the OB
        lo, hi = dc.ob_range
        shifted = Gf2Matrix([r << lo for r in dc.j_g.bits], dc.n)
        combo = dc.pad_memory_rows(split.jza).add(shifted)
        assert solve_left(dc.code.hz, combo) is not None


def test_branch_distance_bound_is_dr_independent():
    c = two_blocks()
    s = sigma_from_indices(c, (0, 1))
    split = split_logicals(c, s)
    nk = naked_glue(c, s)
    bounds = []
    for d_r in (2, 4):
        dc = paste_branch(c, split, nk, d_r)
        bound = c.distance // nk.s_norm
        res = exact_distance(dc.code, cap=bound + 1)
        assert res.value is None or res.value >= bound
        bounds.append(bound)
    assert bounds[0] == bounds[1]


def test_verify_surgery_measurement_statements():
    c = surface13()
    s = sigma_from_indices(c, (0,))
    split = split_logicals(c, s)
    fine = finely_devised_glue(c, s, split=split)
    dc = paste_measurement(c, split, fine, 2)
    rep = verify_surgery(dc)
    assert rep.ok, [(st.name, st.detail) for st in rep.statements if not st.passed]
    names = [st.name for st in rep.statements]
    assert any("v:" in n for n in names)
    assert rep.statements[-1].status in ("pass", "skipped")


def test_verify_surgery_branch_statements():
    c = two_blocks()
    s = sigma_from_indices(c, (0, 1))
    split = split_logicals(c, s)
    nk = naked_glue(c, s)
    dc = paste_branch(c, split, nk, 2)
    rep = verify_surgery(dc)
    assert rep.ok, [(st.name, st.detail) for st in rep.statements if not st.passed]
    assert any("v'" in st.name for st in rep.statements)


def test_verify_surgery_corrupted_t_fails_statement_i():
    c = surface13()
    s = sigma_from_indices(c, (0,))
    split = split_logicals(c, s)
    fine = finely_devised_glue(c, s, split=split)
    dc = paste_measurement(c, split, fine, 2)
    # flip one bit in the T block (first v column) of the first memory X row
    v1_col = c.n + (dc.d_r - 1) * fine.n_g
    bad_bits = list(dc.code.hx.bits)
    bad_bits[0] ^= 1 << v1_col
    bad_code = replace(dc.code, hx=Gf2Matrix(bad_bits, dc.n))
    bad = replace(dc, code=bad_code)
    rep = verify_surgery(bad)
    first = rep.statements[0]
    assert first.name.startswith("i:") and first.status == "fail"
    assert "row" in first.detail


def test_ldpc_weight_envelope():
    # conservative envelope: deformed w_max <= memory w_max + glue w_max + 2
    c = two_blocks()
    s = sigma_from_indices(c, (0, 1))
    split = split_logicals(c, s)
    fine = finely_devised_glue(c, s, split=split)
    dc = paste_measurement(c, split, fine, 3)
    assert dc.code.hx.wmax() <= c.hx.wmax() + fine.hg.wmax() + 2
    assert dc.code.hz.wmax() <= c.hz.wmax() + fine.hg.wmax() + 2


def test_paste_blocks_match_standalone_sticker():
    # the sticker-only sub-blocks of a pasted code must equal the
    # standalone hypergraph-product sticker matrices
    c = surface13()
    s = sigma_from_indices(c, (0,))
    split = split_logicals(c, s)
    fine = finely_devised_glue(c, s, split=split)
    for kind, paste in (("measurement", paste_measurement),
                        ("branch", paste_branch)):
        for d_r in (2, 3):
            dc = paste(c, split, fine, d_r)
            st_hx, st_hz = build_sticker(fine, d_r, kind)
            sticker_cols = list(range(c.n, dc.n))
            hx_block = dc.code.hx.take_rows(
                range(c.hx.rows, dc.code.hx.rows)).take_cols(sticker_cols)
            assert hx_block == st_hx
            hz_block = dc.code.hz.take_rows(
                range(c.hz.rows, dc.code.hz.rows)).take_cols(sticker_cols)
            assert hz_block == st_hz


def test_paste_on_trivial_memory():
    # bare qubits, no checks: measuring Z1 attaches a 2-qubit repetition
    from qsticker.codes import css_code

    c = css_code(Gf2Matrix.zeros(0, 3), Gf2Matrix.zeros(0, 3))
    s = OperatorSet("Z", Gf2Matrix([c.jz.bits[0]], 3))
    split = split_logicals(c, s)
    fine = finely_devised_glue(c, s, split=split)
    assert (fine.n_g, fine.r_g) == (1, 0)
    dc = paste_measurement(c, split, fine, 2)
    assert (dc.n, dc.k) == (4, 2)
    assert verify_surgery(dc).ok


def test_dressed_stack_is_finely_devised():
    # the intermediate construction (naked checks stacked with the
    # dressing rows) must already classify as fine
    from qsticker.glue import GlueSpec, classify_devisedness, dressing_matrix

    c = two_blocks()
    s = sigma_from_indices(c, (0, 1))
    split = split_logicals(c, s)
    nk = naked_glue(c, s)
    d = dressing_matrix(split, nk)
    assert d.rows == 1
    hd = nk.hg.vstack(d)
    t_d = nk.t.hstack(Gf2Matrix.zeros(c.hx.rows, d.rows))
    dressed = GlueSpec(hg=hd, s=nk.s, t=t_d, devisedness="fine",
                       b_n=nk.b_n, c_n=nk.c_n)
    assert classify_devisedness(dressed, c, s) == "fine"


def test_seeded_gls_suite():
    rng = random.Random(555)
    cases = 0
    for trial in range(30):
        if cases >= 8:
            break
        pick = rng.choice(["s13", "blocks"])
        c = surface13() if pick == "s13" else two_blocks()
        idxs = [(i,) for i in range(c.k)]
        rng.shuffle(idxs)
        take = idxs[: rng.randrange(1, c.k + 1)]
        s = sigma_from_indices(c, *take)
        split = split_logicals(c, s)
        nk = naked_glue(c, s)
        dcb = paste_branch(c, split, nk, 2)
        assert verify_surgery(dcb).ok
        fine = finely_devised_glue(c, s, split=split)
        dcm = paste_measurement(c, split, fine, 2)
        assert verify_surgery(dcm).ok
        cases += 1
    assert cases >= 8


def _dressed(code, sigma, rng):
    """Each Σ row times two random memory Z checks: the same logical class."""
    hz = code.hz.bits
    rows = [r ^ hz[rng.randrange(len(hz))] ^ hz[rng.randrange(len(hz))]
            for r in sigma.vectors.bits]
    return OperatorSet("Z", Gf2Matrix(rows, code.n))


def test_branch_preserves_logicals_of_stabiliser_dressed_sigma():
    from qsticker.io import desk_code
    from qsticker.sampling import SigmaSampler

    c = desk_code(7)
    sampler = SigmaSampler(c, l_max=3, thickness=3, max_q=3, seed=5)
    rng = random.Random(2024)
    for trial in range(6):
        s = _dressed(c, sampler.sample(3, trial), rng)
        split = split_logicals(c, s)
        dc = paste_branch(c, split, naked_glue(c, s), 2)
        rep = verify_surgery(dc)
        assert rep.ok, [(st.name, st.detail) for st in rep.statements if not st.passed]
        # a deformed J_Z with one row replaced by another loses a class
        jz = list(dc.code.jz.bits)
        jz[0] = jz[1]
        bad = replace(dc, code=replace(dc.code, jz=Gf2Matrix(jz, dc.n)))
        iv = next(st for st in verify_surgery(bad).statements
                  if st.name.startswith("iv'"))
        assert iv.status == "fail" and iv.detail


def test_branch_statement_iv_prime_fails_when_logicals_are_measured():
    c = two_blocks()
    s = sigma_from_indices(c, (0,))
    split = split_logicals(c, s)
    dcb = paste_branch(c, split, naked_glue(c, s), 2)
    dcm = paste_measurement(c, split, finely_devised_glue(c, s, split=split), 2)
    # the measurement-deformed code keeps every memory Z logical in ker H_X
    # but turns Σ into a stabiliser: k - q classes are left
    bad = replace(dcb, code=dcm.code)
    iv = next(st for st in verify_surgery(bad).statements
              if st.name.startswith("iv'"))
    assert iv.status == "fail" and "rank 1 for 2 rows" in iv.detail


# -- pinned verifier outputs ----------------------------------------------


def _verify_report_cases():
    """(code, Σ, d_r) on desk_code(3), hgp:5,5, hgp:4,6 and the small codes.

    Every Σ comes plain and dressed by Z stabilisers; the small codes
    are the criterion-3 pool, where a q = k measurement leaves k = 0.
    """
    from qsticker.io import desk_code, load_code
    from qsticker.sampling import SigmaSampler

    rng = random.Random(4321)
    desk = desk_code(3)
    sampler = SigmaSampler(code=desk, l_max=4, thickness=3, max_q=6, seed=11)
    for q in range(1, 7):
        sigma = sampler.sample(q, 0)
        yield desk, sigma, 2
        if q % 2:
            yield desk, _dressed(desk, sigma, rng), 3
    for spec in ("hgp:5,5", "hgp:4,6"):
        code = load_code(spec)
        sigma = OperatorSet("Z", Gf2Matrix([code.jz.bits[0]], code.n))
        yield code, sigma, 2
        yield code, _dressed(code, sigma, rng), 2
    c5 = replace(hgp(repetition_check(2), repetition_check(2)), distance=2)
    pool = [surface13(), c5, two_blocks(), replace(direct_sum(two_blocks(), c5),
                                                   distance=2),
            hgp(repetition_check(2), repetition_check(3))]
    for code in pool:
        for take in ([(i,) for i in range(code.k)], [(0,)], [(code.k - 1,)]):
            sigma = sigma_from_indices(code, *take)
            yield code, sigma, 2
            yield code, _dressed(code, sigma, rng), 3


def test_verify_report_golden_digest():
    """SHA-256 of `to_report()` for both sticker kinds on every case.

    Recorded while the span checks still went through `solve_left`.
    """
    import hashlib

    digest = hashlib.sha256()
    reports = k_zero = 0
    for code, sigma, d_r in _verify_report_cases():
        split = split_logicals(code, sigma)
        fine = finely_devised_glue(code, sigma, split=split)
        for dc in (paste_branch(code, split, naked_glue(code, sigma), d_r),
                   paste_measurement(code, split, fine, d_r)):
            rep = verify_surgery(dc)
            assert rep.ok
            digest.update(repr(rep.to_report()).encode())
            reports += 1
            k_zero += dc.k == 0
    assert reports >= 40 and k_zero >= 2
    assert digest.hexdigest() == (
        "1548a04abceb5aa8f35fe12d3f747191d56c1b8b4fb3b347eed53922b179ca76")


def test_gauge_generators_golden_digest():
    """SHA-256 of (F_X, F_Z) for both sticker kinds on every verify case
    and on plain and dressed Σ of the [[400,16]] `desk_code(7)`.

    Recorded while the gauge was completed from two kernel bases.
    """
    import hashlib

    from qsticker.io import desk_code
    from qsticker.sampling import SigmaSampler

    desk = desk_code(7)
    sigma = SigmaSampler(desk, l_max=4, thickness=3, max_q=6, seed=11).sample(3, 0)
    extra = [(desk, sigma, 4), (desk, _dressed(desk, sigma, random.Random(7)), 2)]
    digest = hashlib.sha256()
    gauged = 0
    for code, sigma, d_r in [*_verify_report_cases(), *extra]:
        split = split_logicals(code, sigma)
        fine = finely_devised_glue(code, sigma, split=split)
        for dc in (paste_branch(code, split, naked_glue(code, sigma), d_r),
                   paste_measurement(code, split, fine, d_r)):
            digest.update(repr((dc.kind, dc.n, dc.code.fx.bits,
                                dc.code.fz.bits)).encode())
            gauged += dc.code.k_gauge > 0
    assert gauged >= 12
    assert digest.hexdigest() == (
        "729e369e1467bb3d7bcc2c616e9bf657339d910c8363137600346081b9749ce4")


def _rows(m, edit):
    return Gf2Matrix(edit(list(m.bits)), m.cols)


def _failures(dc):
    return [(st.name.split(":")[0], st.detail)
            for st in verify_surgery(dc).statements if st.status == "fail"]


def test_verify_failure_witnesses():
    """The exact failure detail of each statement, one mutant each.

    Recorded while the span checks still went through `solve_left`.
    """
    c = two_blocks()
    s = sigma_from_indices(c, (0,))
    split = split_logicals(c, s)
    dcm = paste_measurement(c, split, finely_devised_glue(c, s, split=split), 2)
    dcb = paste_branch(c, split, naked_glue(c, s), 2)

    def memory(dc, **kw):
        return replace(dc, memory=replace(dc.memory, **kw))

    def deformed(dc, **kw):
        return replace(dc, code=replace(dc.code, **kw))

    def zero_first(m):
        return _rows(m, lambda b: [0] + b[1:])

    anticommuting = _rows(dcm.code.hx, lambda b: [b[0] ^ 1 << c.n] + b[1:])
    mutants = {
        "i (commutation)": deformed(dcm, hx=anticommuting),
        # the memory has an X check the projection lacks, then vice versa
        "i (lhs)": memory(dcm, hx=_rows(c.hx, lambda b: b + [1])),
        "i (rhs)": memory(dcm, hx=_rows(c.hx, lambda b: b[:1] + b[2:])),
        "ii": memory(dcm, hz=_rows(c.hz, lambda b: b + [1])),
        "iii": deformed(dcm, jx=zero_first(dcm.code.jx)),
        "iv": deformed(dcm, jz=zero_first(dcm.code.jz)),
        "v": replace(dcm, split=replace(
            split, jza=_rows(split.jza, lambda b: [b[0] ^ 1] + b[1:]))),
        "iii'": deformed(dcb, jx=zero_first(dcb.code.jx)),
        "iv'": memory(dcb, jz=_rows(c.jz, lambda b: [b[0], b[1] ^ 1] + b[2:])),
        "v'": replace(dcb, j_g=Gf2Matrix.zeros(dcb.j_g.rows, dcb.j_g.cols)),
    }
    assert {name: _failures(dc) for name, dc in mutants.items()} == {
        "i (commutation)": [("i", "deformed X row 0 anticommutes with a Z "
                                  "check (pasting identity violated)")],
        "i (lhs)": [("i", "lhs: row 4 is outside the span")],
        "i (rhs)": [("i", "rhs: row 1 is outside the span")],
        "ii": [("ii", "row 4 is outside the span")],
        "iii": [("iii", "lhs: row 0 is outside the span")],
        "iv": [("iv", "lhs: row 0 is outside the span")],
        "v": [("v", "row 0 is outside the span")],
        "iii'": [("iii'", "lhs: row 0 is outside the span")],
        "iv'": [("iv'", "row 1 is outside the span")],
        "v'": [("v'", "row 0 is outside the span")],
    }


def test_verify_never_solves(monkeypatch):
    # span membership and iv's rank modulo the stabilisers and gauge are
    # row reductions
    import sys

    from qsticker import gf2

    c = two_blocks()
    s = sigma_from_indices(c, (0,))
    split = split_logicals(c, s)
    dcm = paste_measurement(c, split, finely_devised_glue(c, s, split=split), 2)
    dcb = paste_branch(c, split, naked_glue(c, s), 2)
    real = gf2.solve_left
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "qsticker" and vars(mod).get("solve_left") is real:
            monkeypatch.setattr(mod, "solve_left", counting)
    counts = []
    for dc in (dcm, dcb):
        calls.clear()
        assert verify_surgery(dc).ok
        counts.append(len(calls))
    assert counts == [0, 0]


def test_paste_builds_no_kernel_basis(monkeypatch):
    # the gauge completion reads its rows off one echelon per check
    # matrix, and a branch paste's J_G is J_{Z,A} on B_N
    import sys

    from qsticker import gf2

    c = two_blocks()
    s = sigma_from_indices(c, (0,))
    split = split_logicals(c, s)
    fine = finely_devised_glue(c, s, split=split)
    nk = naked_glue(c, s)
    real = gf2.kernel_basis
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "qsticker" and vars(mod).get("kernel_basis") is real:
            monkeypatch.setattr(mod, "kernel_basis", counting)
    counts = []
    for paste, glue in ((paste_measurement, fine), (paste_branch, nk)):
        calls.clear()
        paste(c, split, glue, 2)
        counts.append(len(calls))
    assert counts == [0, 0]
    # the counter is live: the glue classification builds ker H_G
    classify_devisedness(nk, c, s)
    assert calls == [(nk.hg,)]


def test_branch_paste_needs_s_to_embed_the_glue_bits():
    # Z1 Z2 leaves one unwanted class inside B_N, so its fine glue adds a
    # dressing bit that S sends to zero
    c = two_blocks()
    s = sigma_from_indices(c, (0, 1))
    split = split_logicals(c, s)
    fine = finely_devised_glue(c, s, split=split)
    assert fine.meta["rn"] == 1
    with pytest.raises(GlueError, match="S embeds its bits at B_N"):
        paste_branch(c, split, fine, 2)


def test_branch_paste_rejects_sigma_its_glue_does_not_transfer():
    c = two_blocks()
    s = sigma_from_indices(c, (0,))
    nk = naked_glue(c, s)
    # a split of Z1 Z2 has J_{Z,A} outside Z1's block B_N
    with pytest.raises(GlueError, match="not transferred"):
        paste_branch(c, split_logicals(c, sigma_from_indices(c, (0, 1))), nk, 2)
    # a hand-built extra check meeting J_{Z,A} on one bit cuts it from ker H_G
    split = split_logicals(c, s)
    jg_row = split.jza.take_cols(nk.b_n).bits[0]
    cut = replace(nk, hg=nk.hg.vstack(Gf2Matrix([jg_row & -jg_row], nk.n_g)))
    with pytest.raises(GlueError, match="not transferred"):
        paste_branch(c, split, cut, 2)


# -- iv' by row reduction against the solve it replaced -------------------


def same_logical_classes_by_solve(code, rows):
    """iv' as a solve against (J_Z; H_Z; F_Z) and the rank of its J_Z block."""
    span = code.jz.vstack(code.z_stabilizer_span())
    coeff = solve_left(span, rows)
    if coeff is None:
        i = next(i for i, row in enumerate(rows.bits)
                 if solve_left(span, Gf2Matrix([row], code.n)) is None)
        return f"row {i} is outside the span"
    r = rank(coeff.take_cols(range(code.k)))
    if rows.rows == code.k == r:
        return ""
    return f"J_Z coefficients have rank {r} for {rows.rows} rows, k={code.k}"


def _edit_rows(data, m, others):
    """m with one row flipped, copied from another, shifted by a row of
    `others`, dropped, or with a row of `others` appended."""
    rows = list(m.bits)
    kind = data.draw(st.sampled_from(
        ["flip", "copy", "shift", "drop", "append"]))

    def pick(k):
        return data.draw(st.integers(0, k - 1))

    if kind == "append" and others:
        rows.append(others[pick(len(others))])
    elif rows:
        i = pick(len(rows))
        if kind == "flip":
            rows[i] ^= 1 << pick(m.cols)
        elif kind == "copy":
            rows[i] = rows[pick(len(rows))]
        elif kind == "shift" and others:
            rows[i] ^= others[pick(len(others))]
        elif kind == "drop":
            del rows[i]
    return Gf2Matrix(rows, m.cols)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(codes_and_sigmas(), st.integers(2, 3), st.data())
def test_same_logical_classes_matches_the_solve(case, d_r, data):
    # branch pastes of HGP and gauge-completed subsystem memories, plain
    # or dressed Σ, then a random edit of the deformed J_Z, H_Z, F_Z or
    # the memory J_Z (the memory keeps its row count: iv' pads it)
    c, sigma = case
    dc = paste_branch(c, split_logicals(c, sigma), naked_glue(c, sigma), d_r)
    code, memory = dc.code, dc.memory
    part = data.draw(st.sampled_from(["jz", "hz", "fz", "memory"]))
    if part == "memory":
        jz = _edit_rows(data, memory.jz, memory.hz.bits)
        if jz.rows == memory.k:
            memory = replace(memory, jz=jz)
    else:
        others = {"jz": code.hz.bits, "hz": code.jz.bits, "fz": code.jz.bits}
        code = replace(code, **{part: _edit_rows(data, getattr(code, part),
                                                 others[part])})
    rows = replace(dc, code=code, memory=memory).pad_memory_rows(memory.jz)
    got = _same_logical_classes(code, rows)
    want = same_logical_classes_by_solve(code, rows)
    stab = code.z_stabilizer_span()
    if rank(code.jz.vstack(stab)) == rank(stab) + code.k:
        assert got == want
    if not got:
        assert not want
