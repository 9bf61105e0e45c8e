"""Sticker assembly, pasting, and the lattice-surgery statement suite."""

import random
import sys
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st
from test_signatures import codes_and_sigmas

from qsticker.branching import estimate_qubit_cost
from qsticker.codes import (
    DistanceResult,
    OperatorSet,
    SubsystemCode,
    _PasteBlocks,
    complete_gauge,
    contained_logical_count,
    direct_sum,
    exact_distance,
    hgp,
    pairing_witness,
    redundancy_number,
    repetition_check,
    subsystem_code,
    support_union,
    validate_code,
)
from qsticker.gf2 import Gf2Matrix, RowReducer, rank, solve_left
from qsticker.glue import (
    GlueError,
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
                           match=f"^d_r must be at least 2, got {d_r}$"):
            sticker_qubits(5, 3, d_r, "measurement")
        with pytest.raises(ValueError,
                           match=f"^d_r must be at least 2, got {d_r}$"):
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


def test_deform_checks_kind_and_d_r_before_any_glue(monkeypatch):
    import qsticker.stickers as stickers

    c = surface13()
    s = sigma_from_indices(c, (0,))
    split = split_logicals(c, s)
    with pytest.raises(ValueError) as paste_error:
        paste_measurement(c, split, finely_devised_glue(c, s, split=split), 1)

    def forbidden(*args, **kwargs):
        raise AssertionError("glue built before the kind and d_r checks")

    for name in ("split_logicals", "naked_glue", "finely_devised_glue"):
        monkeypatch.setattr(stickers, name, forbidden)
    for kind in ("measurement", "branch"):
        with pytest.raises(ValueError) as exc:
            deform(c, s, kind, 1)
        assert (str(exc.value) == str(paste_error.value)
                == "d_r must be at least 2, got 1")
    with pytest.raises(ValueError, match="kind must be 'measurement' or 'branch'"):
        deform(c, s, "twist", 1)


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
    # the counter is live: the contained-logical count builds the kernel
    # of H_X induced on Q(Σ), which is the naked glue's H_G
    contained_logical_count(c, support_union(s))
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


# -- one factoring per deformed code --------------------------------------


def test_desk_item_factors_each_deformed_code_once(monkeypatch):
    # both pastes and both verifies of one Σ on the [[400,16]] desk code:
    # the memory's H_Z echelon is built once, no echelon runs over a whole
    # deformed H_Z or H_X, and no gauge is completed
    import sys

    from qsticker import codes, gf2
    from qsticker.io import desk_code
    from qsticker.sampling import SigmaSampler

    c = replace(desk_code(7))  # a fresh memory: no fact read yet
    s = SigmaSampler(c, l_max=5, thickness=4, max_q=4, seed=3).sample(4, 0)
    echelons, completions = [], []

    class CountingReducer(gf2.RowReducer):
        def __init__(self, rows=()):
            rows = tuple(rows)
            echelons.append(rows)
            super().__init__(rows)

    real, reducer = codes.complete_gauge, gf2.RowReducer

    def counting(*args):
        completions.append(args)
        return real(*args)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "qsticker":
            if vars(mod).get("RowReducer") is reducer:
                monkeypatch.setattr(mod, "RowReducer", CountingReducer)
            if vars(mod).get("complete_gauge") is real:
                monkeypatch.setattr(mod, "complete_gauge", counting)
    split = split_logicals(c, s)
    dcb = paste_branch(c, split, naked_glue(c, s), 2)
    dcm = paste_measurement(c, split, finely_devised_glue(c, s, split=split), 4)
    assert verify_surgery(dcb).ok and verify_surgery(dcm).ok
    assert completions == []
    assert echelons.count(c.hz.bits) == 1
    assert not {dc.code.hz.bits for dc in (dcb, dcm)} & set(echelons)
    assert not {dc.code.hx.bits for dc in (dcb, dcm)} & set(echelons)
    # the counters are live: reading F completes the gauge, whose
    # kernel complements eliminate the whole deformed H_Z and H_X
    assert dcm.code.k_gauge > 0 and len(completions) == 1
    assert {dcm.code.hz.bits, dcm.code.hx.bits} <= set(echelons)


@st.composite
def pasted_memories(draw):
    """(memory, Σ): `codes_and_sigmas`, half the time in a direct sum with
    the [[5,1,2]] code on either side."""
    c, sigma = draw(codes_and_sigmas())
    if draw(st.booleans()):
        other = hgp(repetition_check(2), repetition_check(2))
        if draw(st.booleans()):
            c = direct_sum(c, other)
            rows = sigma.vectors.bits
        else:
            c = direct_sum(other, c)
            rows = [r << other.n for r in sigma.vectors.bits]
        sigma = OperatorSet("Z", Gf2Matrix(rows, c.n))
    return c, sigma


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(pasted_memories(), st.integers(2, 3))
def test_pastes_defer_the_gauge_and_keep_every_output(case, d_r):
    c, sigma = case
    pairings = []

    def counting(*args):
        pairings.append(args)
        return pairing_witness(*args)

    for kind in ("measurement", "branch"):
        pairings.clear()
        with pytest.MonkeyPatch.context() as mp:
            for name, mod in list(sys.modules.items()):
                if (name.split(".")[0] == "qsticker"
                        and vars(mod).get("pairing_witness") is pairing_witness):
                    mp.setattr(mod, "pairing_witness", counting)
            dc = deform(c, sigma, kind, d_r)
            code = dc.code
            # the joins build no transpose
            assert code.hx._t is None and code.hz._t is None
            report = verify_surgery(dc).to_report()
        # the paste proves J_X J_Z^T = E once and its verify reads the proof
        assert len(pairings) == 1
        # a transpose the verify read is the flipped matrix
        for m in (code.hx, code.hz):
            assert m._t is None or m._t == m._flip()
        # iv' by signatures and by the span agree on an unmutated paste
        assert code.proven and not pairing_witness(code.jx, code.jz)
        assert not replace(code).proven
        for rows in (dc.pad_memory_rows(c.jz), code.jz):
            assert (_same_logical_classes(code, rows)
                    == _same_logical_classes(replace(code), rows))
        # `replace` before F is read copies the F of the original matrices,
        # and F read lazily is the eager completion, bit for bit
        eager = complete_gauge(code.hx, code.hz, code.jx, code.jz)
        edited = replace(code, jz=Gf2Matrix.zeros(code.k, code.n), name="edited")
        assert (edited.fx, edited.fz) == eager
        assert (code.fx, code.fz) == eager
        # the proof changes no verdict, and no verify adds to the shared echelon
        assert verify_surgery(replace(dc, code=replace(code))).to_report() == report
        assert code.hz_echelon.pivots == RowReducer(code.hz.bits).pivots
        # a replaced field or a hand-built code proves nothing
        for f in fields(code):
            if f.init:
                assert not replace(code, **{f.name: getattr(code, f.name)}).proven
        assert not SubsystemCode(code.hx, code.hz, code.jx, code.jz,
                                 code.fx, code.fz).proven


# -- the block proof against the full products -----------------------------


def _pasted_blocks(dc):
    """The blocks `_paste` joined, read back off its deformed code."""
    code, m = dc.code, dc.memory
    n, rx, rz = m.n, m.hx.rows, m.hz.rows
    mask = (1 << n) - 1

    def left(rows):
        return Gf2Matrix([r & mask for r in rows], n)

    def right(rows):
        return Gf2Matrix([r >> n for r in rows], code.n - n)

    return _PasteBlocks(m, right(code.hx.bits[:rx]), left(code.hz.bits[rz:]),
                        right(code.hx.bits[rx:]), right(code.hz.bits[rz:]),
                        left(code.jx.bits), right(code.jx.bits), left(code.jz.bits))


def _joined(b):
    """(H_X, H_Z, J_X, J_Z) joined from a paste's blocks."""
    m, wide = b.memory, b.hx_st.cols
    return (m.hx.hstack(b.t).vstack(Gf2Matrix.zeros(b.hx_st.rows, m.n).hstack(b.hx_st)),
            m.hz.hstack(Gf2Matrix.zeros(m.hz.rows, wide)).vstack(b.s.hstack(b.hz_st)),
            b.jx_mem.hstack(b.jx_st),
            b.jz_mem.hstack(Gf2Matrix.zeros(b.jz_mem.rows, wide)))


def _flip_bit(data, m, cells):
    """m with one of `cells` (row, column) flipped, or m if there is none."""
    if not cells:
        return m
    i, j = cells[data.draw(st.integers(0, len(cells) - 1))]
    return _rows(m, lambda b: b[:i] + [b[i] ^ 1 << j] + b[i + 1:])


def _mutant_blocks(data, dc, b, part):
    """The blocks with the `part` one edited: a nonzero T row moved, an S
    bit dropped, a bit flipped in one H_G copy of the sticker, a J_X
    sticker bit flipped, or a bit flipped in the memory's H_X or H_Z."""
    n_g, r_g, d_r = dc.glue.n_g, dc.glue.r_g, dc.d_r
    if part == "t":
        moves = [(i, j) for i, r in enumerate(b.t.bits) if r
                 for j in range(b.t.rows) if b.t.bits[j] != r]
        if not moves:
            return b
        i, j = moves[data.draw(st.integers(0, len(moves) - 1))]

        def move(rows):
            rows[i], rows[j] = rows[j], rows[i]
            return rows
        return b._replace(t=_rows(b.t, move))
    if part == "s":
        cells = [(i, j) for i, r in enumerate(b.s.bits) for j in range(b.s.cols)
                 if r >> j & 1]
        return b._replace(s=_flip_bit(data, b.s, cells))
    if part == "hg":
        # H_X,st = (E ⊗ H_G | λ ⊗ E), H_Z,st = (λ^T ⊗ E | E ⊗ H_G^T)
        if data.draw(st.booleans()):
            cells = [(c * r_g + g, c * n_g + j) for c in range(d_r - 1)
                     for g in range(r_g) for j in range(n_g)]
            return b._replace(hx_st=_flip_bit(data, b.hx_st, cells))
        copies = d_r if dc.kind == "measurement" else d_r - 1
        cells = [(c * n_g + j, (d_r - 1) * n_g + c * r_g + g) for c in range(copies)
                 for g in range(r_g) for j in range(n_g)]
        return b._replace(hz_st=_flip_bit(data, b.hz_st, cells))
    if part == "jx_st":
        cells = [(i, j) for i in range(b.jx_st.rows) for j in range(b.jx_st.cols)]
        return b._replace(jx_st=_flip_bit(data, b.jx_st, cells))
    m = b.memory
    field_name = data.draw(st.sampled_from(["hx", "hz"]))
    matrix = getattr(m, field_name)
    cells = [(i, j) for i in range(matrix.rows) for j in range(matrix.cols)]
    return b._replace(memory=replace(m, **{field_name: _flip_bit(data, matrix, cells)}))


def _built(build):
    """("ok", matrices, proof and gauge) of the code `build` returns, or
    ("error", its ValueError message); an InternalError propagates."""
    try:
        code = build()
    except ValueError as exc:
        return "error", str(exc)
    return ("ok", (code.hx, code.hz, code.jx, code.jz), code.proven,
            code.hz_echelon.pivots, code.fx, code.fz)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pasted_memories(), st.integers(2, 3),
       st.sampled_from(["measurement", "branch"]), st.data())
def test_block_proof_refuses_exactly_what_the_full_products_refuse(case, d_r,
                                                                   kind, data):
    # each block of a paste edited in turn, then joined and proven two
    # ways: by the paste constructor and by `subsystem_code`
    c, sigma = case
    dc = deform(c, sigma, kind, d_r)
    blocks = _pasted_blocks(dc)
    assert _joined(blocks) == (dc.code.hx, dc.code.hz, dc.code.jx, dc.code.jz)
    for part in ("t", "s", "hg", "jx_st", "memory"):
        mutant = _mutant_blocks(data, dc, blocks, part)
        matrices = _joined(mutant)
        full = _built(lambda: subsystem_code(*matrices))
        assert _built(lambda: SubsystemCode._pasted(mutant, "mutant")) == full


def test_a_broken_logical_pairing_refuses_both_pastes():
    # J_{Z,C} with two rows swapped leaves every commutation product zero
    # but J_X J_Z^T ≠ E: the block proof of each paste refuses the code
    # itself, before any gauge is completed
    from qsticker.io import desk_code
    from qsticker.sampling import SigmaSampler

    c = desk_code(7)
    sigma = SigmaSampler(c, l_max=2, thickness=2, max_q=2, seed=5).sample(2, 0)
    split = split_logicals(c, sigma)
    rows = split.jzc.bits
    swapped = replace(split, jzc=Gf2Matrix([rows[1], rows[0], *rows[2:]],
                                           split.jzc.cols))
    for paste, glue in ((paste_measurement, finely_devised_glue(c, sigma, split=split)),
                        (paste_branch, naked_glue(c, sigma))):
        with pytest.raises(GlueError) as info:
            paste(c, swapped, glue, 2)
        assert str(info.value) == "deformed logical pairing is not the identity"


# -- statement vi's verdicts ----------------------------------------------


def _distance_verdict(monkeypatch, dc, result, cap=36):
    """(status, detail) of statement vi with `exact_distance` returning
    `result`, or never called when result is None."""
    from qsticker import stickers

    def stub(code, cap):
        assert result is not None, "the search ran above the qubit cap"
        assert code is dc.code
        return result

    monkeypatch.setattr(stickers, "exact_distance", stub)
    vi = verify_surgery(dc, distance_qubit_cap=cap).statements[-1]
    assert vi.name == "vi: distance bound"
    return vi.status, vi.detail


def test_distance_statement_verdicts(monkeypatch):
    # the [[14,1]] measurement paste of Z1 on two [[5,1,2]] blocks: bound
    # min(2/1, 2) = 2; the [[13,2]] branch paste: bound 2/1 = 2
    c = two_blocks()
    s = sigma_from_indices(c, (0,))
    dcm, dcb = (deform(c, s, kind, 2) for kind in ("measurement", "branch"))
    assert (dcm.n, dcm.k, dcb.n, dcb.k) == (14, 1, 13, 2)
    # measuring the one logical of a [[5,1,2]] block leaves k = 0
    c5 = replace(hgp(repetition_check(2), repetition_check(2)), distance=2)
    dc0 = deform(c5, sigma_from_indices(c5, (0,)), "measurement", 2)
    assert dc0.k == 0
    m_bound, b_bound = "min(d/|S|, d_r) = min(d/1, 2)=2", "d/|S| = d/1=2"
    budget = ("skipped", "bound unverified (budget)")
    # (deformed code, search result, qubit cap, verdict); a search that ran
    # out of budget after weight bound − 1 found no lighter logical error,
    # so it certifies the bound, and none runs above the qubit cap
    cases = [
        (dcm, DistanceResult(2, True, searched_weight=2), 36,
         ("pass", f"exhaustive d=2 vs {m_bound}")),
        (dcm, DistanceResult(1, True, searched_weight=1), 36,
         ("fail", f"exhaustive d=1 vs {m_bound}")),
        (dc0, DistanceResult(None, False, None, "k=0: no logical operators"), 36,
         ("pass", "k=0 deformed code: no logical errors, bound vacuous")),
        (dcm, DistanceResult(None, False, 3, searched_weight=1), 36,
         ("pass", f"no logical error up to weight 1; bound {m_bound} certified")),
        (dcb, DistanceResult(None, False, 3, searched_weight=1), 36,
         ("pass", f"no logical error up to weight 1; bound {b_bound} certified")),
        (dcm, DistanceResult(None, False, 3, searched_weight=0), 36, budget),
        (dcm, None, dcm.n - 1, budget),
        (replace(dcm, memory=replace(c, distance=None)), None, 36,
         ("skipped", "memory distance unknown")),
    ]
    for dc, result, cap, verdict in cases:
        assert _distance_verdict(monkeypatch, dc, result, cap) == verdict
