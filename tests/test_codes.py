"""Code-model checks: constructions, axioms, distance, overlap diagnostics.

Expected values marked as derived are recomputed here by independent
brute-force oracles (full codeword enumeration, coset search) rather
than by the implementation under test.
"""

import random
from functools import reduce
from operator import xor

import pytest
from hypothesis import example, given, settings, strategies as st
from test_gf2 import matrices, sparse_matrices

from qsticker import codes
from qsticker.codes import (
    OperatorSet,
    complete_gauge,
    contained_logical_count,
    crowd_numbers,
    css_code,
    derive_css_logicals,
    direct_sum,
    exact_distance,
    hgp,
    redundancy_number,
    repetition_check,
    standard_logicals,
    subsystem_code,
    support_union,
    validate_code,
)
from qsticker.gf2 import Gf2Matrix, kernel_basis, rank, row_basis, rref


# -- oracles -----------------------------------------------------------


def span_vectors(m):
    out = {0}
    for b in row_basis(m).bits:
        out |= {v ^ b for v in out}
    return out


def distance_oracle(code):
    """Exhaustive minimum over all codewords of both species."""
    best = None
    for h, j in ((code.hx, code.jx), (code.hz, code.jz)):
        for v in span_vectors(kernel_basis(h)):
            if v and j.mul_vec(v) != 0:
                w = v.bit_count()
                if best is None or w < best:
                    best = w
    return best


def redundancy_oracle(code, sigma):
    """Brute force over all logical classes and all stabiliser dressings."""
    support = 0
    for r in sigma.vectors.bits:
        support |= r
    dressings = span_vectors(code.z_stabilizer_span())
    passing = []
    for x in range(1 << code.k):
        tau = 0
        for i in range(code.k):
            if (x >> i) & 1:
                tau ^= code.jz.bits[i]
        if any((tau ^ s) & ~support == 0 for s in dressings):
            passing.append(sum(((x >> i) & 1) << i for i in range(code.k)))
    k_n = rank(Gf2Matrix(passing, code.k)) if passing else 0
    stab = code.z_stabilizer_span()
    q = rank(sigma.vectors.vstack(stab)) - rank(stab)
    return k_n - q


def random_css(rng, n, r1, r2):
    """Seeded CSS pair: random hz, then hx rows drawn from ker hz."""
    while True:
        hz = Gf2Matrix(
            [sum((1 << j) for j in range(n) if rng.random() < 0.4) for _ in range(r2)],
            n,
        )
        kx = kernel_basis(hz)
        if kx.rows == 0:
            continue
        rows = []
        for _ in range(r1):
            acc = 0
            for b in kx.bits:
                if rng.random() < 0.5:
                    acc ^= b
            rows.append(acc)
        hx = Gf2Matrix(rows, n)
        try:
            return css_code(hx, hz)
        except ValueError:
            continue


# -- repetition code ---------------------------------------------------


def test_repetition_check_matches_printed_forms():
    lam5 = repetition_check(5)
    assert lam5.to_lists() == [
        [1, 1, 0, 0, 0],
        [0, 1, 1, 0, 0],
        [0, 0, 1, 1, 0],
        [0, 0, 0, 1, 1],
    ]
    lam5t = repetition_check(5).take_cols(range(4))
    assert lam5t.to_lists() == [
        [1, 1, 0, 0],
        [0, 1, 1, 0],
        [0, 0, 1, 1],
        [0, 0, 0, 1],
    ]
    assert repetition_check(2).to_lists() == [[1, 1]]
    with pytest.raises(ValueError):
        repetition_check(1)


# -- hypergraph product ------------------------------------------------


def test_hgp_dimensions_and_parameters():
    lam3 = repetition_check(3)
    c = hgp(lam3, lam3)
    assert c.n == 9 + 4 == 13
    assert c.hx.rows == 6 and c.hz.rows == 6
    assert c.k == 1
    assert validate_code(c).ok
    assert distance_oracle(c) == 3
    assert exact_distance(c).value == 3

    c2 = hgp(repetition_check(2), repetition_check(2))
    assert (c2.n, c2.k) == (5, 1)
    assert distance_oracle(c2) == 2
    assert exact_distance(c2).value == 2


def test_hgp_zero_row_input_degenerates():
    a = Gf2Matrix.zeros(0, 3)
    b = repetition_check(3)
    c = hgp(a, b)
    assert c.hx.rows == 0
    assert c.n == 9
    assert validate_code(c).ok


def test_hgp_exact_distance_family():
    for m in (2, 3, 4):
        c = hgp(repetition_check(m), repetition_check(m))
        res = exact_distance(c)
        assert res.exact and res.value == m


def test_derive_css_logicals_trivial_code():
    e = Gf2Matrix.zeros(0, 3)
    jx, jz = derive_css_logicals(e, e)
    assert jx == Gf2Matrix.identity(3)
    assert jz == Gf2Matrix.identity(3)


def test_derive_css_logicals_pairing_random():
    rng = random.Random(42)
    for _ in range(10):
        c = random_css(rng, 10, 3, 3)
        assert validate_code(c).ok
        assert c.jx.mul_transpose(c.jz) == Gf2Matrix.identity(c.k)


def test_derive_css_logicals_rejects_noncommuting_checks():
    hx, hz = Gf2Matrix([0b011], 3), Gf2Matrix([0b110, 0b001], 3)
    with pytest.raises(ValueError,
                       match=r"check matrices do not commute: hx @ hz\^T != 0"):
        derive_css_logicals(hx, hz)


def test_standard_logicals_rejects_noncommuting_checks():
    # an H_Z row supported only on H_X pivots cannot commute with H_X
    m = Gf2Matrix([0b01], 2)
    with pytest.raises(ValueError, match="incompatible"):
        standard_logicals(m, m)


def test_standard_form_logicals_have_unit_weight_on_z_supports():
    # every jx row must meet the union of jz supports in <= 1 position
    rng = random.Random(3)
    for _ in range(10):
        c = random_css(rng, 12, 4, 4)
        zsupp = 0
        for r in c.jz.bits:
            zsupp |= r
        for r in c.jx.bits:
            assert (r & zsupp).bit_count() <= 1


def standard_logicals_per_pivot(hx, hz_like):
    """The RREF construction `standard_logicals` replaced: both RREFs, the
    second in permuted columns, read by per-(free column, pivot) loops."""
    n = hx.cols
    rx, px = rref(hx)
    other = [c for c in range(n) if c not in px]
    col_order = other + sorted(px)
    rz, pz_local = rref(hz_like.permute_cols(col_order))
    if pz_local and pz_local[-1] >= len(other):
        raise ValueError("hz reduction lost rank; hx and hz are incompatible")
    pz = [col_order[c] for c in pz_local]
    jx_rows, jz_rows = [], []
    for c in (c for c in other if c not in pz):
        vz = vx = 1 << c
        for i, p in enumerate(px):
            if rx.bits[i] & (1 << c):
                vz |= 1 << p
        for i, p in enumerate(pz):
            if rz.bits[i] & (1 << col_order.index(c)):
                vx |= 1 << p
        jx_rows.append(vx)
        jz_rows.append(vz)
    return Gf2Matrix(jx_rows, n), Gf2Matrix(jz_rows, n)


def test_standard_logicals_match_per_pivot_loops():
    rng = random.Random(12)
    codes = [random_css(rng, 12, 4, 4) for _ in range(10)]
    codes += [hgp(repetition_check(3), repetition_check(4)),
              hgp(repetition_check(4).take_cols(range(3)), repetition_check(3))]
    gauged = 0
    for c in codes:
        hz_likes = [c.hz]
        if c.k >= 2:  # keep one logical, turn the rest into gauge
            sub = subsystem_code(c.hx, c.hz, c.jx.take_rows([0]), c.jz.take_rows([0]))
            hz_likes.append(sub.z_stabilizer_span())
            gauged += 1
        for hz_like in hz_likes:
            assert (standard_logicals(c.hx, hz_like)
                    == standard_logicals_per_pivot(c.hx, hz_like))
    assert gauged >= 5


@st.composite
def logical_pairs(draw):
    """(hx, hz_like) with repeated hx rows allowed.  hz_like rows are
    combinations of ker hx rows, with repeats and zero rows, so it may
    span more than a stabiliser group as a gauged (H_Z; F_Z) does; or,
    half the time, random rows join them and may break compatibility."""
    cols = draw(st.integers(0, 12))
    row = st.integers(0, (1 << cols) - 1)
    hx_rows = draw(st.lists(row, max_size=6))
    hx_rows += draw(st.lists(st.sampled_from(hx_rows), max_size=2)) if hx_rows else []
    hx = Gf2Matrix(hx_rows, cols)
    kern = kernel_basis(hx).bits
    rows = []
    for pick in draw(st.lists(st.integers(0, (1 << len(kern)) - 1),
                              max_size=len(kern) + 2)):
        rows.append(0)
        for i, r in enumerate(kern):
            if pick >> i & 1:
                rows[-1] ^= r
    if draw(st.booleans()):
        rows += draw(st.lists(row, max_size=3))
    return hx, Gf2Matrix(rows, cols)


def _gauged_pair():
    c = direct_sum(hgp(repetition_check(3), repetition_check(2)),
                   hgp(repetition_check(2), repetition_check(3)))
    sub = subsystem_code(c.hx, c.hz, c.jx.take_rows([0]), c.jz.take_rows([0]))
    return c.hx, sub.z_stabilizer_span()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(logical_pairs())
@example((Gf2Matrix.zeros(0, 5), Gf2Matrix([0b00011, 0b00011, 0b10100], 5)))
@example((Gf2Matrix.zeros(0, 3), Gf2Matrix.zeros(0, 3)))
@example((Gf2Matrix([0b01], 2), Gf2Matrix([0b01], 2)))  # incompatible
@example(_gauged_pair())
def test_standard_logicals_match_per_pivot_oracle(pair):
    hx, hz_like = pair
    try:
        want = standard_logicals_per_pivot(hx, hz_like)
    except ValueError as exc:
        assert "incompatible" in str(exc)
        with pytest.raises(ValueError, match="incompatible"):
            standard_logicals(hx, hz_like)
        return
    assert standard_logicals(hx, hz_like) == want


def test_building_a_code_makes_no_gauss_jordan_elimination(monkeypatch):
    # the logicals come from echelons and back-substitution
    from qsticker import gf2
    from qsticker.io import desk_code

    c = random_css(random.Random(5), 12, 4, 4)
    calls = []
    real = gf2._eliminate

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(gf2, "_eliminate", counting)
    desk_code(7)
    assert css_code(c.hx, c.hz) == c
    assert calls == []
    rref(c.hx)  # the counter is live
    assert len(calls) == 1


# -- validation --------------------------------------------------------


def test_validate_flags_broken_pairing():
    from dataclasses import replace

    c = hgp(repetition_check(3), repetition_check(3))
    bad = replace(c, jz=Gf2Matrix([c.hz.bits[0]], c.n))  # stabiliser row as logical
    rep = validate_code(bad)
    assert not rep.ok
    assert any("jx @ jz^T" in f.name or "ker decomposition" in f.name
               for f in rep.failures())


@pytest.mark.parametrize("jx_rows", [1, 3], ids=["fewer", "more"])
def test_validate_flags_logical_row_count_mismatch(jx_rows):
    # J_X with fewer or more rows than J_Z fails the pairing check with
    # both counts as the witness, instead of raising
    from dataclasses import replace

    c1 = hgp(repetition_check(2), repetition_check(2))
    c = direct_sum(c1, c1)
    jx = Gf2Matrix((c.jx.bits + (0,))[:jx_rows], c.n)
    checks = {f.name: f.witness for f in validate_code(replace(c, jx=jx)).failures()}
    assert checks["jx @ jz^T = E_k"] == f"row counts: jx {jx_rows}, jz 2"


def pairing_witness_by_rows(jx, jz):
    """`pairing_witness` as one `mul_vec` per J_X row."""
    if jx.rows != jz.rows:
        return f"row counts: jx {jx.rows}, jz {jz.rows}"
    for i, r in enumerate(jx.bits):
        pairs = jz.mul_vec(r)
        if pairs != 1 << i:
            return f"jx row {i} pairs as {[pairs >> j & 1 for j in range(jz.rows)]}"
    return ""


@st.composite
def logical_pairs(draw):
    """(J_X, J_Z) of one width: random rows, often of unequal counts, or
    rows that pair, J_X = (E | 0) and J_Z = (E | ·), with bits flipped."""
    n = draw(st.integers(1, 8))
    kx = draw(st.integers(0, min(n, 4)))
    if draw(st.booleans()):
        kz = draw(st.integers(0, 4))
        rows = st.integers(0, (1 << n) - 1)
        return (Gf2Matrix(draw(st.lists(rows, min_size=kx, max_size=kx)), n),
                Gf2Matrix(draw(st.lists(rows, min_size=kz, max_size=kz)), n))
    jx = [1 << i for i in range(kx)]
    jz = [1 << i | draw(st.integers(0, (1 << n) - 1)) >> kx << kx for i in range(kx)]
    for rows in draw(st.lists(st.sampled_from([jx, jz]), max_size=2)) if kx else ():
        rows[draw(st.integers(0, kx - 1))] ^= 1 << draw(st.integers(0, n - 1))
    return Gf2Matrix(jx, n), Gf2Matrix(jz, n)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(logical_pairs())
def test_pairing_witness_reads_the_row_by_row_witness_off_one_product(pair):
    assert codes.pairing_witness(*pair) == pairing_witness_by_rows(*pair)


def test_validate_flags_noncommuting_checks():
    from qsticker.codes import SubsystemCode

    code = SubsystemCode(hx=Gf2Matrix([0b11], 2), hz=Gf2Matrix([0b01], 2),
                         jx=Gf2Matrix.zeros(0, 2), jz=Gf2Matrix.zeros(0, 2),
                         fx=Gf2Matrix.zeros(0, 2), fz=Gf2Matrix.zeros(0, 2))
    rep = validate_code(code)
    assert not rep.ok
    assert any("hx @ hz^T" in f.name and f.witness for f in rep.failures())


def test_validate_flags_logicals_that_are_not_bare():
    from dataclasses import replace

    c1 = hgp(repetition_check(2), repetition_check(2))
    c = direct_sum(c1, c1)
    sub = subsystem_code(c.hx, c.hz, c.jx.take_rows([0]), c.jz.take_rows([0]))
    assert sub.k == 1 and sub.k_gauge == 1 and validate_code(sub).ok
    # a logical part on a gauge row breaks only the bare-logical axiom:
    # spans and both pairings are unchanged
    for bad, name, witness in (
        (replace(sub, fz=sub.fz.add(sub.jz)), "jx @ fz^T = 0",
         "jx row 0 pairs with fz row 0"),
        (replace(sub, fx=sub.fx.add(sub.jx)), "fx @ jz^T = 0",
         "fx row 0 pairs with jz row 0"),
    ):
        failures = validate_code(bad).failures()
        assert [(f.name, f.witness) for f in failures] == [(name, witness)]


def _axiom_mutants():
    """Valid codes, then one mutant per way an axiom can break."""
    from dataclasses import replace

    from qsticker.io import desk_code

    c1 = hgp(repetition_check(2), repetition_check(2))
    c2 = direct_sum(c1, c1)
    sub = subsystem_code(c2.hx, c2.hz, c2.jx.take_rows([0]), c2.jz.take_rows([0]))
    s13 = hgp(repetition_check(3), repetition_check(3))
    desk = desk_code(7)
    yield from (s13, sub, desk)

    def rows(m, edit):
        return Gf2Matrix(edit(list(m.bits)), m.cols)

    for c in (s13, sub):
        yield replace(c, jz=Gf2Matrix([c.hz.bits[0]], c.n))
        yield replace(c, hz=rows(c.hz, lambda b: b[1:]))
        yield replace(c, hx=rows(c.hx, lambda b: b[1:]))
        yield replace(c, hz=rows(c.hz, lambda b: b + [b[0]]))
        yield replace(c, hz=rows(c.hz, lambda b: [b[0] ^ 1] + b[1:]))
        yield replace(c, jz=rows(c.jz, lambda b: [0] + b[1:]))
        yield replace(c, jx=Gf2Matrix.zeros(c.k, c.n))
        yield replace(c, fx=rows(c.fx, lambda b: b + [c.jx.bits[0]]))
    yield replace(sub, fz=sub.fz.add(sub.jz))
    yield replace(sub, fx=sub.fx.add(sub.jx))
    yield replace(sub, fz=Gf2Matrix.zeros(0, sub.n), fx=Gf2Matrix.zeros(0, sub.n))
    yield replace(desk, hx=rows(desk.hx, lambda b: [b[0] ^ b[1]] + b[1:]))
    yield replace(desk, hz=rows(desk.hz, lambda b: b[:-1]))


def test_validate_report_golden_digest():
    """SHA-256 of every check of `validate_code` on valid codes and axiom
    mutants.

    Recorded while dim ker h was read off a kernel basis.
    """
    import hashlib

    digest = hashlib.sha256()
    failing = 0
    for c in _axiom_mutants():
        rep = validate_code(c)
        digest.update(repr([(a.name, a.passed, a.witness)
                            for a in rep.checks]).encode())
        failing += not rep.ok
    assert failing == 18
    assert digest.hexdigest() == (
        "02d85219296af7f9e5544e39a214cd0cc27b7e98925b71a1f1ef388b9c888f5c")


def test_validate_builds_no_kernel_basis(monkeypatch):
    # dim ker h is cols - rank(h), and each rank is computed once
    import qsticker.codes as codes
    from qsticker import gf2

    calls = {"kernel_basis": 0, "rank": 0}

    def counting(name):
        real = getattr(gf2, name)

        def wrapped(*args):
            calls[name] += 1
            return real(*args)
        return wrapped

    for name in calls:
        monkeypatch.setattr(codes, name, counting(name))
    c = hgp(repetition_check(3), repetition_check(4))
    assert validate_code(c).ok
    assert calls == {"kernel_basis": 0, "rank": 4}


def test_subsystem_code_rejects_noncommuting_input():
    # the gauge completion needs rs(hz; jz) ⊆ ker hx and rs(jx) ⊆ ker hz;
    # most random inputs break it and used to come back as a code
    rng = random.Random(2718)

    def rand(rows, n):
        return Gf2Matrix([rng.getrandbits(n) for _ in range(rows)], n)

    rejected = 0
    for _ in range(40):
        n = rng.randrange(4, 9)
        k = rng.randrange(2)
        hx, hz, jx, jz = (rand(rng.randrange(1, 3), n), rand(rng.randrange(1, 3), n),
                          rand(k, n), rand(k, n))
        if (hx.mul_transpose(hz.vstack(jz)).is_zero()
                and hz.mul_transpose(jx).is_zero()):
            continue
        with pytest.raises(ValueError, match="do not commute"):
            subsystem_code(hx, hz, jx, jz)
        rejected += 1
    assert rejected >= 20
    hx, hz = Gf2Matrix([0b0011], 4), Gf2Matrix([0b1100, 0b0110], 4)
    none = Gf2Matrix.zeros(0, 4)
    with pytest.raises(ValueError, match=r"row 0 of hx @ \(hz; jz\)\^T"):
        subsystem_code(hx, hz, none, none)
    hx, hz = Gf2Matrix([0b0011], 4), Gf2Matrix([0b1100], 4)
    with pytest.raises(ValueError, match=r"row 0 of hz @ jx\^T"):
        subsystem_code(hx, hz, Gf2Matrix([0b0100], 4), Gf2Matrix([0b0011], 4))


def test_subsystem_code_rejects_at_once_what_the_completion_rejects():
    # the completion rejects mismatched gauge dimensions and a singular
    # gauge pairing; each of these inputs also breaks J_X J_Z^T = E, which
    # the constructor refuses first, naming the row as `validate_code` does
    one, none = Gf2Matrix([0b01], 2), Gf2Matrix.zeros(0, 2)
    with pytest.raises(ValueError, match="^gauge spaces have mismatched dimensions$"):
        complete_gauge(none, none, none, one)
    with pytest.raises(ValueError, match=r"^logical pairing is not the identity: "
                                         r"row counts: jx 0, jz 1$"):
        subsystem_code(none, none, none, one)
    hx, jx, jz = Gf2Matrix([0b100], 3), Gf2Matrix([0b010], 3), Gf2Matrix([0b001], 3)
    none = Gf2Matrix.zeros(0, 3)
    with pytest.raises(ValueError, match="^inverse: matrix is singular$"):
        complete_gauge(hx, none, jx, jz)
    with pytest.raises(ValueError, match=r"^logical pairing is not the identity: "
                                         r"jx row 0 pairs as \[0\]$"):
        subsystem_code(hx, none, jx, jz)


def _reversed_jx():
    """The [[10,2]] direct sum of two hgp(λ2, λ2) with J_X's rows reversed."""
    lam2 = repetition_check(2)
    c = direct_sum(hgp(lam2, lam2), hgp(lam2, lam2))
    return c.hx, c.hz, Gf2Matrix(c.jx.bits[::-1], c.n), c.jz


@st.composite
def edited_logicals(draw):
    """(H_X, H_Z, J_X, J_Z) of a small HGP or direct sum of two, with J
    rows permuted, added to one another, appended or dropped, on either
    side or, for a drop, on both."""
    def small():
        return hgp(repetition_check(draw(st.integers(2, 3))),
                   repetition_check(draw(st.integers(2, 3))))

    c = small()
    if draw(st.booleans()):
        c = direct_sum(c, small())
    sides = {"jx": list(c.jx.bits), "jz": list(c.jz.bits)}
    pool = [*c.jx.bits, *c.jz.bits, *c.hx.bits, *c.hz.bits]
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["permute", "add", "append", "drop", "drop both"]))
        side, other = draw(st.permutations(["jx", "jz"]))
        rows = sides[side]
        if edit == "permute":
            sides[side] = draw(st.permutations(rows))
        elif edit == "add" and len(rows) > 1:
            i, j = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2,
                                 max_size=2, unique=True))
            rows[i] ^= rows[j]
        elif edit == "append":
            rows.append(reduce(xor, draw(st.lists(st.sampled_from(pool),
                                                  min_size=1, max_size=3))))
        elif edit.startswith("drop") and rows:
            i = draw(st.integers(0, len(rows) - 1))
            del rows[i]
            if edit == "drop both" and i < len(sides[other]):
                del sides[other][i]
    return c.hx, c.hz, Gf2Matrix(sides["jx"], c.n), Gf2Matrix(sides["jz"], c.n)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(edited_logicals())
@example(_reversed_jx())
def test_subsystem_code_returns_only_codes_validate_accepts(matrices):
    # a broken J pairing is refused as input, never built into a code
    try:
        code = subsystem_code(*matrices)
    except ValueError:
        return
    report = validate_code(code)
    assert report.ok, report.failures()


def test_subsystem_code_completes_the_gauge_on_first_read(monkeypatch):
    c = direct_sum(hgp(repetition_check(3), repetition_check(2)),
                   hgp(repetition_check(2), repetition_check(3)))
    jx, jz = c.jx.take_rows([0]), c.jz.take_rows([0])
    fx, fz = complete_gauge(c.hx, c.hz, jx, jz)
    calls = []
    real = codes.complete_gauge
    monkeypatch.setattr(codes, "complete_gauge",
                        lambda *args: calls.append(args) or real(*args))
    sub = subsystem_code(c.hx, c.hz, jx, jz)
    assert calls == []
    assert (sub.fz, sub.fx, sub.k_gauge) == (fz, fx, fx.rows) and fx.rows > 0
    assert calls == [(c.hx, c.hz, jx, jz)]
    assert validate_code(sub).ok and len(calls) == 1


def test_k0_distance_unknown_by_convention():
    lam2 = repetition_check(2)
    c = hgp(lam2, lam2)
    from dataclasses import replace

    k0 = replace(c, jx=Gf2Matrix.zeros(0, c.n), jz=Gf2Matrix.zeros(0, c.n),
                 fx=c.jx, fz=c.jz)
    res = exact_distance(k0)
    assert res.value is None and not res.exact
    assert "k=0" in res.note


def test_distance_budget_returns_labelled_estimate():
    c = hgp(repetition_check(4), repetition_check(4))
    res = exact_distance(c, cap=2, budget=10)
    assert res.value is None and not res.exact
    assert "estimate" in res.note
    if res.upper_bound is not None:
        assert res.upper_bound >= 4  # true distance


# -- supports and crowd numbers -----------------------------------------


def test_support_union_examples():
    s = OperatorSet("Z", Gf2Matrix.from_rows([[0, 0, 1, 1, 0]]))
    assert support_union(s) == (2, 3)  # 0-based for 1-based {3,4}
    two = OperatorSet("Z", Gf2Matrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]]))
    assert len(support_union(two)) == 4
    empty = OperatorSet("Z", Gf2Matrix.zeros(0, 4))
    assert support_union(empty) == ()


def test_crowd_numbers_examples():
    s = OperatorSet("Z", Gf2Matrix.from_rows([[1, 1, 0], [0, 1, 1]]))
    counts, mx = crowd_numbers(s)
    assert counts == [1, 2, 1] and mx == 2
    single = OperatorSet("Z", Gf2Matrix.from_rows([[0, 1, 0]]))
    assert crowd_numbers(single)[1] == 1
    q = 4
    allones = OperatorSet("Z", Gf2Matrix([(1 << 3) - 1] * q, 3))
    assert crowd_numbers(allones)[1] == q


def test_max_crowd_at_least_mean():
    rng = random.Random(15)
    for _ in range(20):
        n = rng.randrange(4, 12)
        rows = [sum((1 << j) for j in range(n) if rng.random() < 0.4)
                for _ in range(rng.randrange(1, 5))]
        s = OperatorSet("Z", Gf2Matrix(rows, n))
        counts, mx = crowd_numbers(s)
        total = sum(counts)
        assert mx * n >= total  # max >= mean, the crowd lower bound


# -- redundancy number ---------------------------------------------------


def test_redundancy_single_minimum_logical_is_zero():
    c = hgp(repetition_check(3), repetition_check(3))
    s = OperatorSet("Z", c.jz)
    assert redundancy_number(c, s) == 0
    assert redundancy_oracle(c, s) == 0


def test_redundancy_full_basis_full_support():
    hx = Gf2Matrix([0b1111], 4)
    hz = Gf2Matrix.zeros(0, 4)
    c = css_code(hx, hz)
    assert c.k == 3
    s = OperatorSet("Z", c.jz)
    assert support_union(s) == (0, 1, 2, 3)
    assert redundancy_number(c, s) == 0


def test_redundancy_contained_operator():
    # k=4 HGP code from a block-diagonal classical code; one operator
    # whose support contains another logical gives rn = 1
    lam2 = repetition_check(2)
    h = Gf2Matrix([0b0011, 0b1100], 4)
    c = hgp(h, h)
    assert c.k == 4
    sigma_row = c.jz.bits[0] ^ c.jz.bits[1]
    s = OperatorSet("Z", Gf2Matrix([sigma_row], c.n))
    got = redundancy_number(c, s)
    want = redundancy_oracle(c, s)
    assert got == want == 1


def test_redundancy_rejects_non_codeword():
    c = hgp(repetition_check(3), repetition_check(3))
    bad = OperatorSet("Z", Gf2Matrix([1], c.n))
    with pytest.raises(ValueError):
        redundancy_number(c, bad)


def test_redundancy_names_the_first_row_outside_ker_hx():
    c = hgp(repetition_check(3), repetition_check(3))
    bad = OperatorSet("Z", Gf2Matrix([c.jz.bits[0], 1, 2], c.n))
    assert c.hx.mul_vec(1) and c.hx.mul_vec(2)
    with pytest.raises(ValueError, match=r"^sigma row 1 is not in ker hx$"):
        redundancy_number(c, bad)


def test_redundancy_matches_oracle_on_seeded_small_codes():
    rng = random.Random(2024)
    trials = 0
    while trials < 40:
        n = rng.randrange(5, 13)
        c = random_css(rng, n, rng.randrange(1, 4), rng.randrange(1, 4))
        if c.k == 0 or c.k > 6:
            continue
        rows = []
        for _ in range(rng.randrange(1, min(3, c.k) + 1)):
            acc = 0
            for b in c.jz.bits:
                if rng.random() < 0.5:
                    acc ^= b
            if acc:
                rows.append(acc)
        if not rows:
            continue
        s = OperatorSet("Z", Gf2Matrix(rows, c.n))
        assert redundancy_number(c, s) == redundancy_oracle(c, s)
        trials += 1


def test_direct_sum_code():
    c1 = hgp(repetition_check(2), repetition_check(2))
    c = direct_sum(c1, c1)
    assert c.n == 10 and c.k == 2
    assert validate_code(c).ok
    # the two logical blocks have disjoint supports
    assert c.jz.bits[0] & c.jz.bits[1] == 0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(matrices(max_rows=12), sparse_matrices()))
@example(Gf2Matrix([0b011, 0b110, 0b101], 3))
@example(Gf2Matrix.zeros(3, 0))
def test_hx_left_kernel_is_a_basis_of_the_left_kernel(hx):
    zero = Gf2Matrix.zeros(0, hx.cols)
    code = codes.SubsystemCode(hx, zero, zero, zero, zero, zero)
    left = code.hx_left_kernel
    assert left.cols == hx.rows and left.mul(hx).is_zero()
    assert rank(left) == left.rows == hx.rows - rank(hx)
