"""CLI subcommand behaviour, exit codes, and output determinism."""

import json

from qsticker.cli import main


def run_cli(args):
    return main(args)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_validate_builtin(tmp_path, capsys):
    rc = run_cli(["validate", "--code", "hgp:3,3", "--out", str(tmp_path)])
    assert rc == 0
    out = json.loads(read(tmp_path / "validate.json"))
    assert out["ok"] is True and out["n"] == 13
    assert "all axioms pass" in capsys.readouterr().out


def test_glue_and_deform_outputs(tmp_path):
    rc = run_cli(["glue", "--code", "hgp:3,3", "--logicals", "0",
                  "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads(read(tmp_path / "glue.json"))
    assert rep["fine"]["devisedness"] == "fine"
    assert rep["bound_margins"]["n_g"][0] <= rep["bound_margins"]["n_g"][1]
    assert (tmp_path / "glue_hg.alist").exists()

    rc = run_cli(["deform", "--code", "hgp:3,3", "--logicals", "0",
                  "--kind", "measurement", "--dr", "2", "--out", str(tmp_path)])
    assert rc == 0
    dep = json.loads(read(tmp_path / "deformed.json"))
    assert dep["k"] == 0 and dep["kind"] == "measurement"
    assert (tmp_path / "deformed_hx.alist").exists()


def test_verify_exit_codes(tmp_path):
    rc = run_cli(["verify", "--code", "hgp:3,3", "--logicals", "0",
                  "--kind", "measurement", "--dr", "2", "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads(read(tmp_path / "verify.json"))
    assert rep["ok"] is True


def test_input_error_exit_code(tmp_path, capsys):
    rc = run_cli(["validate", "--code", "no-such-code", "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_plan_command(tmp_path):
    rc = run_cli(["plan", "--code", "hgp:2,2", "--logicals", "0",
                  "--out", str(tmp_path)])
    assert rc == 2  # q=1 is an input error: use devised sticking
    rc = run_cli(["plan", "--code", "desk", "--q", "4", "--seed", "2",
                  "--dr", "6", "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads(read(tmp_path / "plan.json"))
    assert rep["levels"] == 2 and len(rep["nodes"]) == 10
    assert [n["kind"] for n in rep["nodes"]] == ["branch"] * 6 + ["measurement"] * 4
    assert all(n["level"] == 3 and n["d_r"] == 6
               for n in rep["nodes"] if n["kind"] == "measurement")
    assert "measure_d_r" not in rep
    assert rep["costs"]["ds"]["measured_total"] > 0


def test_plan_passes_thickness_to_both_cost_reports(tmp_path):
    rc = run_cli(["plan", "--code", "desk", "--q", "4", "--t", "2", "--seed", "2",
                  "--dr", "6", "--out", str(tmp_path)])
    assert rc == 0
    costs = json.loads(read(tmp_path / "plan.json"))["costs"]
    assert costs["ds"]["t"] == costs["bfb"]["t"] == 2
    assert costs["ds"]["bounds"]["thickness_bound_value"] == 564
    assert costs["ds"]["bounds"]["bound_value"] == 1128


def test_dr_below_two_is_input_error(tmp_path, capsys):
    for args in (["bench-cost", "--code", "hgp:3,3", "--q", "1", "--trials", "1"],
                 ["plan", "--code", "desk", "--q", "3", "--seed", "2"]):
        for dr in ("1", "0"):
            rc = run_cli(args + ["--dr", dr, "--out", str(tmp_path)])
            assert rc == 2
            assert "d_r must be at least 2" in capsys.readouterr().err


def test_simulate_command_deterministic(tmp_path):
    args = ["simulate", "--theta", "+X1Z2,-X2Z1", "--n", "2",
            "--memory", "0+", "--seed", "9", "--out", str(tmp_path)]
    assert run_cli(args) == 0
    first = read(tmp_path / "simulate.json")
    assert run_cli(args) == 0
    assert read(tmp_path / "simulate.json") == first
    rep = json.loads(first)
    assert rep["regular"] is False and len(rep["rounds"]) >= 1


def test_bench_outputs_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        rc = run_cli(["bench-overlap", "--code", "desk", "--q", "1:3",
                      "--trials", "4", "--seed", "11", "--out", str(d)])
        assert rc == 0
    assert read(d1 / "overlap.csv") == read(d2 / "overlap.csv")
    assert read(d1 / "overlap.json") == read(d2 / "overlap.json")
    header = read(d1 / "overlap.csv").decode().splitlines()[0]
    assert header == "q,trial,mcn,rn"


def test_bench_cost_outputs(tmp_path):
    rc = run_cli(["bench-cost", "--code", "desk", "--q", "2,3", "--trials",
                  "3", "--seed", "7", "--dr", "6", "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads(read(tmp_path / "cost.json"))
    assert rep["config"]["d_r"] == 6
    assert rep["medians"]["2"]["ds"] <= rep["medians"]["2"]["bfb"]


def test_zero_thickness_or_q_is_input_error(tmp_path, capsys):
    # 0 is a value, not "not given": the sampler's range check rejects it
    for args, msg in (
            (["bench-cost", "--code", "desk", "--q", "2", "--trials", "1",
              "--dr", "6", "--t", "0"], "need 1 <= thickness <= max_q"),
            (["glue", "--code", "desk", "--q", "2", "--t", "0"],
             "need 1 <= thickness <= max_q"),
            (["glue", "--code", "desk", "--q", "0"], "need 1 <= max_q <= k=16")):
        rc = run_cli(args + ["--out", str(tmp_path)])
        assert rc == 2
        assert msg in capsys.readouterr().err
    assert not (tmp_path / "cost.json").exists()
    assert not (tmp_path / "glue.json").exists()


def test_bad_q_list_is_input_error(tmp_path, capsys):
    for command in (["bench-overlap"], ["bench-cost", "--dr", "6"]):
        for q in ("0:2", "2,2", "3:2"):
            rc = run_cli(command + ["--code", "desk", "--q", q, "--trials", "1",
                                    "--out", str(tmp_path)])
            assert rc == 2
            assert ("need a nonempty list of distinct q >= 1"
                    in capsys.readouterr().err)
        rc = run_cli(command + ["--code", "desk", "--q", "x", "--trials", "1",
                                "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--q" in err and "'x'" in err
    assert list(tmp_path.iterdir()) == []


def test_zero_trials_is_input_error(tmp_path, capsys):
    rc = run_cli(["bench-cost", "--code", "desk", "--q", "2", "--trials", "0",
                  "--dr", "6", "--out", str(tmp_path)])
    assert rc == 2
    assert "need trials >= 1" in capsys.readouterr().err
    assert not (tmp_path / "cost.json").exists()


def test_sigma_file_input(tmp_path):
    from qsticker.io import load_code, save_check_matrix

    code = load_code("hgp:3,3")
    sigma_path = tmp_path / "sigma.txt"
    save_check_matrix(code.jz, str(sigma_path), "dense")
    rc = run_cli(["glue", "--code", "hgp:3,3", "--sigma", str(sigma_path),
                  "--out", str(tmp_path)])
    assert rc == 0


def test_sigma_row_outside_ker_hx_is_input_error(tmp_path, capsys):
    # a single Z on qubit 0 of hgp:3,3 meets an X check: bad input, not
    # a broken invariant of the naked glue
    sigma_path = tmp_path / "sigma.txt"
    sigma_path.write_text("1000000000000\n", encoding="utf-8")
    rc = run_cli(["glue", "--code", "hgp:3,3", "--sigma", str(sigma_path),
                  "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == "error: sigma row 0 is not in ker hx\n"
    assert not (tmp_path / "glue.json").exists()


def test_logicals_index_out_of_range_is_input_error(tmp_path, capsys):
    # hgp:3,3 has k = 1: index 5 used to raise a raw IndexError (exit 1)
    # and -1 used to measure the last logical
    for spec in ("--logicals=5", "--logicals=-1"):
        rc = run_cli(["glue", "--code", "hgp:3,3", spec, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--logicals index " + spec.split("=")[1] in err
        assert "k = 1" in err
    assert not (tmp_path / "glue.json").exists()


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    # a classifier that loses coarseness trips naked_glue's invariant
    from qsticker import glue

    monkeypatch.setattr(glue, "classify_devisedness", lambda *args: "none")
    rc = run_cli(["glue", "--code", "hgp:3,3", "--logicals", "0",
                  "--out", str(tmp_path)])
    assert rc == 3
    assert "internal error:" in capsys.readouterr().err


def test_sampler_failure_is_internal_error(tmp_path, capsys, monkeypatch):
    # a row reducer that calls every draw dependent exhausts the redraws
    from qsticker import sampling

    class Dependent:
        def add(self, row):
            return False

    monkeypatch.setattr(sampling, "RowReducer", Dependent)
    rc = run_cli(["glue", "--code", "desk", "--q", "2", "--out", str(tmp_path)])
    assert rc == 3
    assert "internal error: failed to draw" in capsys.readouterr().err


def test_simulate_memory_factor_failure_is_internal_error(tmp_path, capsys,
                                                         monkeypatch):
    # after a finished plan every ancilla is read out, so a memory that does
    # not factor is a broken invariant, not bad input
    from qsticker import cli

    def entangled(state, mem_qubits):
        raise ValueError("memory is entangled with the ancillas")

    monkeypatch.setattr(cli, "memory_factor", entangled)
    rc = run_cli(["simulate", "--theta", "+X1Z2", "--n", "2", "--memory", "0+",
                  "--seed", "1", "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "internal error: after round 1: memory is entangled" in err


def test_plan_assemble_reports_the_assembled_plan(tmp_path):
    from qsticker.branching import assemble_plan
    from qsticker.io import load_code
    from qsticker.sampling import SigmaSampler

    rc = run_cli(["plan", "--code", "desk", "--q", "3", "--seed", "2",
                  "--dr", "2", "--assemble", "--out", str(tmp_path)])
    assert rc == 0
    code = load_code("desk")
    sigma = SigmaSampler(code=code, l_max=5, thickness=3, max_q=3,
                         seed=2).sample(3, trial=0)
    plan = assemble_plan(code, sigma, 2)
    assert json.loads(read(tmp_path / "plan.json"))["assembled"] == {
        "final_n": plan.final_code.n,
        "final_k": plan.final_code.k,
        "pastes": len(plan.pastes),
        "incidence": {str(k): v for k, v in sorted(plan.incidence.items())},
    }


def test_simulate_memory_of_wrong_length_is_input_error(tmp_path, capsys):
    rc = run_cli(["simulate", "--theta", "+X1Z2", "--n", "2", "--memory", "0+-",
                  "--out", str(tmp_path)])
    assert rc == 2
    assert (capsys.readouterr().err
            == "error: memory spec length does not match --n\n")
    assert not (tmp_path / "simulate.json").exists()


def test_missing_sigma_is_input_error(tmp_path, capsys):
    for command in ("glue", "deform", "verify", "plan"):
        rc = run_cli([command, "--code", "hgp:3,3", "--out", str(tmp_path)])
        assert rc == 2
        assert (capsys.readouterr().err
                == "error: provide --sigma FILE, --logicals SPEC, or --q N\n")
    assert list(tmp_path.iterdir()) == []
