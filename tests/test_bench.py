"""Sampler invariants and benchmark determinism/monotonicity."""

import pytest

from qsticker.bench import bench_cost, bench_overlap
from qsticker.io import desk_code
from qsticker.codes import crowd_numbers
from qsticker.sampling import SigmaSampler


@pytest.fixture(scope="module")
def desk():
    return desk_code(7)


def check_sample_invariants(sampler, q, trial=0):
    """Assert the L and thickness invariants of a sample's logical supports."""
    picks = sampler.stream(trial)[:q]
    assert all(1 <= len(idxs) <= sampler.l_max for idxs in picks)
    t = sampler.thickness
    for i, a in enumerate(picks):
        for j, b in enumerate(picks):
            assert i // t == j // t or not set(a) & set(b), (i, j)


def test_sampler_single_operator(desk):
    s = SigmaSampler(code=desk, l_max=1, thickness=1, max_q=1, seed=4)
    sigma = s.sample(1)
    assert sigma.size == 1
    # L=1: the operator is a single stored generator row
    assert sigma.vectors.bits[0] in set(desk.jz.bits)


def test_sampler_thickness_one_gives_disjoint_logicals(desk):
    s = SigmaSampler(code=desk, l_max=3, thickness=1, max_q=4, seed=9)
    picks = s.stream(0)[:4]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not set(picks[i]) & set(picks[j])
    check_sample_invariants(s, 4)


def test_sampler_invariants_hold_per_sample(desk):
    s = SigmaSampler(code=desk, l_max=5, thickness=4, max_q=8, seed=11)
    for q in (1, 3, 8):
        check_sample_invariants(s, q)
        sigma = s.sample(q)
        assert sigma.size == q


def test_sampler_rejects_unhostable_requests(desk):
    with pytest.raises(ValueError):
        SigmaSampler(code=desk, l_max=5, thickness=1, max_q=desk.k + 1, seed=0)
    with pytest.raises(ValueError):
        # 16 cells of thickness 1 need 16 pools, fine; 17 impossible
        SigmaSampler(code=desk, l_max=5, thickness=17, max_q=8, seed=0)


def test_sampler_prefix_property(desk):
    s = SigmaSampler(code=desk, l_max=5, thickness=8, max_q=8, seed=21)
    full = s.sample(8, trial=3)
    for q in (1, 4, 7):
        part = s.sample(q, trial=3)
        assert part.vectors.bits == full.vectors.bits[:q]


def test_bench_overlap_deterministic_and_monotone(desk):
    run1 = bench_overlap(desk, [1, 2, 3, 4], trials=10, seed=5)
    run2 = bench_overlap(desk, [1, 2, 3, 4], trials=10, seed=5)
    assert run1.to_csv_text() == run2.to_csv_text()
    assert run1.to_json_text() == run2.to_json_text()
    meds = [run1.medians[str(q)]["mcn"] for q in (1, 2, 3, 4)]
    assert all(meds[i] <= meds[i + 1] for i in range(3))


def test_bench_overlap_small_code_rn_zero_at_q1():
    from dataclasses import replace

    from qsticker.codes import hgp, repetition_check

    small = replace(hgp(repetition_check(3), repetition_check(3)), distance=3)
    run = bench_overlap(small, [1], trials=10, seed=3, l_max=1)
    assert run.medians["1"]["rn"] == 0


def test_bench_overlap_crowd_lower_bound(desk):
    s = SigmaSampler(code=desk, l_max=5, thickness=4, max_q=4, seed=2)
    for trial in range(5):
        sigma = s.sample(4, trial)
        counts, mx = crowd_numbers(sigma)
        assert mx * desk.n >= sum(counts)


def test_bench_medians_recomputable_from_rows(desk):
    import statistics

    run = bench_overlap(desk, [1, 3], trials=7, seed=8)
    for q in (1, 3):
        vals = [r["mcn"] for r in run.rows if r["q"] == q]
        assert run.medians[str(q)]["mcn"] == statistics.median(vals)
        assert len(vals) == 7


def test_bench_cost_orders_and_determinism(desk):
    run1 = bench_cost(desk, [2, 4], thickness=4, trials=5, seed=3, d_r=6)
    run2 = bench_cost(desk, [2, 4], thickness=4, trials=5, seed=3, d_r=6)
    assert run1.to_csv_text() == run2.to_csv_text()
    for q in (2, 4):
        med = run1.medians[str(q)]
        assert med["ds"] <= med["bfb"]


def test_bench_cost_q1_has_no_bfb(desk):
    run = bench_cost(desk, [1, 2], thickness=1, trials=3, seed=3, d_r=6)
    q1 = [r for r in run.rows if r["q"] == 1]
    assert all(r["bfb"] is None for r in q1)
    assert run.medians["1"]["bfb"] is None
    assert run.medians["1"]["ds"] is not None


def test_bench_runs_need_a_trial(desk):
    # with no rows every median would read None
    with pytest.raises(ValueError, match="trials >= 1"):
        bench_cost(desk, [2], thickness=2, trials=0, seed=3, d_r=6)
    with pytest.raises(ValueError, match="trials >= 1"):
        bench_overlap(desk, [2], trials=0, seed=3)


@pytest.mark.parametrize("q_values", [[0, 1, 2], [2, 2], []])
def test_bench_runs_reject_a_bad_q_list(desk, q_values):
    # q = 0 is an empty Σ and a repeated q doubles its rows in the medians
    match = "need a nonempty list of distinct q >= 1"
    with pytest.raises(ValueError, match=match):
        bench_overlap(desk, q_values, trials=1, seed=3)
    with pytest.raises(ValueError, match=match):
        bench_cost(desk, q_values, trials=1, seed=3, d_r=6)


def test_bench_cost_thickness_defaults_to_largest_q(desk):
    run = bench_cost(desk, [1, 3], trials=2, seed=4, d_r=6)
    assert run.config["sampler"]["t"] == 3
    explicit = bench_cost(desk, [1, 3], trials=2, seed=4, d_r=6, thickness=3)
    assert run.to_csv_text() == explicit.to_csv_text()
    assert run.to_json_text() == explicit.to_json_text()


def test_bench_cost_thickness_tightens_ds(desk):
    thin = bench_cost(desk, [4], thickness=1, trials=5, seed=12, d_r=6)
    thick = bench_cost(desk, [4], thickness=4, trials=5, seed=12, d_r=6)
    # thickness-1 sets have disjoint logical supports: rn tends to 0 and
    # the fine glue stays close to the naked one
    assert thin.medians["4"]["ds"] <= thick.medians["4"]["ds"] * 1.5


def test_thickness_refined_glue_bound(desk):
    # sampling at thickness t tightens the fine bound to n_N + 2 rn (t+1)
    from qsticker.glue import finely_devised_glue

    for seed in range(8):
        for t, q in ((2, 6), (3, 6), (2, 8)):
            s = SigmaSampler(code=desk, l_max=5, thickness=t, max_q=q,
                             seed=300 + seed)
            sigma = s.sample(q)
            fine = finely_devised_glue(desk, sigma)
            n_n, rn = fine.meta["n_n"], fine.meta["rn"]
            assert fine.n_g <= n_n + 2 * rn * (t + 1)
            assert fine.r_g <= desk.hx.wmax() * n_n + 2 * rn * (t + 1)


def test_figure_sweep_golden_digest(desk):
    # CSV and JSON text of both figure runs on two desk codes, at the
    # default and explicit thicknesses, l_max < 5 and q = 1 cost rows
    # (bfb None): any change to a figure output changes the digest
    import hashlib

    digest = hashlib.sha256()
    for code in (desk, desk_code(3)):
        for seed in (0, 1):
            for run in (
                    bench_overlap(code, [1, 3, 5], trials=3, seed=seed),
                    bench_overlap(code, [2, 4], trials=3, seed=seed, l_max=3,
                                  thickness=2),
                    bench_cost(code, [1, 2, 4], thickness=4, trials=3,
                               seed=seed, d_r=6),
                    bench_cost(code, [1, 3], thickness=2, trials=2, seed=seed,
                               l_max=2, d_r=6)):
                digest.update(run.to_csv_text().encode())
                digest.update(run.to_json_text().encode())
    assert digest.hexdigest() == (
        "6b259fc8bffa874618c504cfc77c141225be917d688e5ba056cf5fba85e17d60")


def test_bench_cost_takes_w_max_of_h_x_once_per_code(monkeypatch):
    # the fine glue's size bounds read w_max(H_X) of the memory, a number
    # fixed by the code: one computation serves every item
    from qsticker.gf2 import Gf2Matrix

    code = desk_code(7)
    real = Gf2Matrix.wmax
    calls = []

    def counting(m):
        calls.append(m is code.hx)
        return real(m)

    monkeypatch.setattr(Gf2Matrix, "wmax", counting)
    for i in range(20):
        q = 2 + i % 7
        bench_cost(code, [q], thickness=q, trials=1, seed=i, l_max=5, d_r=6)
    assert calls.count(True) == 1
