"""Tests of the benchmark harness itself (not of qsticker).

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import program  # noqa: E402

program.load()

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from qsticker import codes, gf2  # noqa: E402
from qsticker.io import desk_code  # noqa: E402


# -- percentile selection --------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    values = [float(v) for v in reversed(range(100))]
    assert run.tail_percentile(values) == 89.0  # 10 values (90..99) beyond
    with pytest.raises(ValueError):
        run.tail_percentile(values[:99])  # only 9 beyond
    with pytest.raises(ValueError):
        run.tail_percentile([])


def test_p90_is_nearest_rank():
    values = [float(v) for v in range(1, 121)]  # ceil(0.9 * 120) = 108
    assert run.tail_percentile(values) == 108.0
    assert run.tail_percentile(values, 0.5, min_beyond=1) == 60.0


# -- self time ---------------------------------------------------------------


def span(name, start, end, parent, item=0):
    return [name, start, end, parent, item]


def test_self_time_nested_and_reentrant():
    # kernel_basis -> rank -> rref, then a second rref, inside one item;
    # rref re-enters itself once
    s = [
        span(spans.ITEM, 0.0, 12.0, None),
        span("gf2.kernel_basis", 1.0, 11.0, 0),
        span("gf2.rank", 2.0, 6.0, 1),
        span("gf2.rref", 3.0, 5.0, 2),
        span("gf2.rref", 7.0, 10.0, 1),
        span("gf2.rref", 8.0, 9.0, 4),
    ]
    selfs = spans.self_times(s)
    assert selfs == [2.0, 3.0, 2.0, 2.0, 2.0, 1.0]
    assert sum(selfs) == 12.0  # no time counted twice or lost


def test_coverage_excludes_probe_time():
    s = [
        span(spans.ITEM, 0.0, 10.0, None),
        span("bench.bench_cost", 1.0, 8.0, 0),
        span(spans.PROBE, 2.0, 3.0, 1),  # counter probe inside a layer span
        span(spans.PROBE, 8.0, 9.0, 0),
        span(spans.ITEM, 10.0, 20.0, None, item=1),
        span("bench.bench_cost", 10.0, 20.0, 4, item=1),
    ]
    # covered: (7 - 1) + 10; item time less probes: 20 - 2
    assert spans.coverage(s) == pytest.approx(16.0 / 18.0)


def test_live_spans_sum_to_the_outer_call():
    code = desk_code(7)
    support = tuple(range(0, code.n, 3))
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.item = 0
        codes.contained_logical_count(code, support)
    finally:
        tracer.item = None
        tracer.remove()
    names = [s[0] for s in tracer.spans]
    assert names[0] == "codes.contained_logical_count"
    assert {"gf2.kernel_basis", "gf2.rref", "gf2.rank", "gf2.take_cols"} <= set(names)
    selfs = spans.self_times(tracer.spans)
    assert min(selfs) >= 0.0
    root = tracer.spans[0]
    assert sum(selfs) == pytest.approx(root[2] - root[1], rel=1e-9)
    m = spans.layer_metrics(tracer, items=1)
    assert m["gf2.kernel_basis.calls"][0] == 1
    assert m["gf2.rref.calls"][0] >= 3  # kernel_basis twice, rank once
    assert m["gf2.rref.cells"][0] > 0


def test_repeat_share_counts_equal_matrices():
    m = gf2.Gf2Matrix([0b011, 0b110], 3)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.item = 0
        for _ in range(3):
            gf2.rref(gf2.Gf2Matrix(list(m.bits), 3))
        gf2.rref(gf2.Gf2Matrix([0b001], 3))
    finally:
        tracer.item = None
        tracer.remove()
    assert spans.layer_metrics(tracer, 1)["gf2.rref.repeat_share"][0] == 0.5


# -- wrapper installation and removal -----------------------------------------


def bindings():
    """Every attribute of every qsticker module and traced class."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "qsticker" or name.startswith("qsticker."):
            for attr, obj in vars(mod).items():
                out[name, attr] = obj
                if isinstance(obj, type) and obj.__module__ == name:
                    for cattr, cobj in vars(obj).items():
                        out[name, attr, cattr] = cobj
    return out


def test_every_importing_module_is_patched():
    import qsticker
    from qsticker import branching, glue, stickers, tableau

    original = gf2.solve_left
    take_cols = vars(gf2.Gf2Matrix)["take_cols"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = gf2.solve_left
        assert wrapped is not original
        for mod in (glue, codes, stickers, branching, tableau, qsticker):
            assert mod.solve_left is wrapped
        assert vars(gf2.Gf2Matrix)["take_cols"] is not take_cols
    finally:
        tracer.remove()
    assert all(mod.solve_left is original
               for mod in (gf2, glue, codes, stickers, branching, tableau, qsticker))
    assert vars(gf2.Gf2Matrix)["take_cols"] is take_cols


def test_traced_run_restores_every_binding(capsys):
    before = bindings()
    assert worker.main(["--workload", "protocol_sim", "--seed", "5",
                        "--seconds", "0.2", "--trace"]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["failed"] == 0 and report["items"] >= 1
    after = bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_layer_metric_names_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer = spans.Tracer()
    names = set(spans.layer_metrics(tracer, 1)) | {"trace.overhead_ratio"}
    assert names == {m["name"] for m in declared["per_layer"]}
