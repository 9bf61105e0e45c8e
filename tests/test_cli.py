"""CLI subcommand behaviour, exit codes, and output determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import qsticker
from qsticker.cli import main
from qsticker.io import load_code
from qsticker.sampling import SigmaSampler
from qsticker.stickers import deform, verify_surgery


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


def test_python_m_qsticker_is_the_cli(tmp_path, capsys):
    # a source checkout runs the CLI as `python -m qsticker`
    src = Path(__file__).resolve().parents[1] / "src"
    args = ["validate", "--code", "hgp:3,3", "--out", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-m", "qsticker", *args],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert run_cli(args) == 0
    want = "hgp(3,3): [[13,1]] all axioms pass\n"
    assert proc.stdout == capsys.readouterr().out == want


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
    # the envelope names the version and the inputs that rebuild the code
    assert dep["qsticker_version"] == qsticker.__version__
    assert dep["config"] == {"code": "hgp:3,3", "format": "alist",
                             "kind": "measurement", "d_r": 2,
                             "sigma": {"logicals": "0"}}


def test_verify_exit_codes(tmp_path):
    rc = run_cli(["verify", "--code", "hgp:3,3", "--logicals", "0",
                  "--kind", "measurement", "--dr", "2", "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads(read(tmp_path / "verify.json"))
    assert rep["ok"] is True


def test_verify_report_sits_beside_its_provenance(tmp_path):
    rc = run_cli(["verify", "--code", "desk", "--q", "3", "--seed", "2",
                  "--kind", "branch", "--dr", "2", "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads(read(tmp_path / "verify.json"))
    assert rep.pop("qsticker_version") == qsticker.__version__
    assert rep.pop("config") == {
        "code": "desk", "format": "alist", "kind": "branch", "d_r": 2,
        "budget": 36, "sigma": {"q": 3, "L": 5, "t": 3, "seed": 2}}
    # the rest is the report itself, unchanged
    code = load_code("desk")
    sigma = SigmaSampler(code, l_max=5, thickness=3, max_q=3, seed=2).sample(3, 0)
    want = verify_surgery(deform(code, sigma, "branch", 2)).to_report()
    assert rep == json.loads(json.dumps(want))


def test_desk_spec_takes_a_seed_and_a_size(tmp_path, capsys):
    rc = run_cli(["validate", "--code", "desk:7,8", "--out", str(tmp_path)])
    assert rc == 0
    out = json.loads(read(tmp_path / "validate.json"))
    assert out["code"] == "desk(seed=7,n1=8)" and out["n"] == 100
    for spec in ("desk:7,28,1", "desk:x", "desk:", "desk:7,30", "desk:7,0"):
        rc = run_cli(["validate", "--code", spec, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "desk spec takes desk, desk:SEED or desk:SEED,N1" in err
        assert repr(spec) in err


def test_hgp_spec_errors_name_the_form(tmp_path, capsys):
    # a non-integer length used to exit with int()'s own text, and a
    # length below 2 with repetition_check's
    for spec in ("hgp:a,3", "hgp:1,3", "hgp:3", "hgp:3,3,3"):
        rc = run_cli(["validate", "--code", spec, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: hgp spec takes hgp:M,N with repetition lengths M, N >= 2, "
            f"got {spec!r}\n")
    assert not (tmp_path / "validate.json").exists()


def test_logicals_spec_errors_name_the_form(tmp_path, capsys):
    for spec in ("x", "0|", "0,,1"):
        rc = run_cli(["glue", "--code", "hgp:3,3", "--logicals", spec,
                      "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: --logicals takes '|'-separated groups of comma-separated "
            f"logical indices, e.g. '0|1,2', got {spec!r}\n")
    assert not (tmp_path / "glue.json").exists()


def test_every_code_report_names_its_version_and_inputs(tmp_path):
    # validate, glue and plan carry the envelope deform and verify do
    runs = {
        "validate": (["--code", "hgp:3,3"], {}),
        "glue": (["--code", "desk", "--q", "2", "--seed", "4"],
                 {"sigma": {"q": 2, "L": 5, "seed": 4, "t": 2}}),
        "plan": (["--code", "desk", "--logicals", "0|1,2", "--dr", "3",
                  "--t", "2", "--assemble"],
                 {"sigma": {"logicals": "0|1,2"}, "d_r": 3, "t": 2,
                  "assemble": True}),
    }
    for command, (args, own) in runs.items():
        assert run_cli([command, *args, "--format", "dense",
                        "--out", str(tmp_path)]) == 0
        rep = json.loads(read(tmp_path / f"{command}.json"))
        assert rep["qsticker_version"] == qsticker.__version__
        assert rep["config"] == {"code": args[1], "format": "dense", **own}


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


# two sets that need regularising and three regular ones, on zero, product
# and Y-basis memories; the digest pins every plan, outcome and final memory
SIMULATE_GOLDEN_CASES = [
    ["--theta", "+X1Z2,-X2Z1", "--n", "2", "--memory", "0+", "--seed", "9"],
    ["--theta", "+Z1Z2,+X1X2", "--n", "2", "--memory", "++", "--seed", "3"],
    ["--theta=-Y1Y2,+X1X2X3X4,+Z3Z4", "--n", "4", "--memory", "0+y-",
     "--seed", "5"],
    ["--theta", "+X1Z2Z3,+Z1X2Z3,+Z1Z2X3", "--n", "3", "--seed", "11"],
    ["--theta", "+Y1,-Z2Z3", "--n", "3", "--memory", "Y1+", "--seed", "0"],
]


def test_simulate_golden_digest(tmp_path):
    import hashlib

    digest = hashlib.sha256()
    regular = []
    for i, case in enumerate(SIMULATE_GOLDEN_CASES):
        out = tmp_path / str(i)
        assert run_cli(["simulate", *case, "--out", str(out)]) == 0
        data = read(out / "simulate.json")
        regular.append(json.loads(data)["regular"])
        digest.update(data)
    assert regular == [False, True, True, False, True]
    assert digest.hexdigest() == (
        "3cf9e0301feb67acc3a025253a97a9ef4188d37e5731f9680a898f1deff09406")


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


def test_malformed_manifest_is_input_error(tmp_path, capsys):
    # each used to end in a traceback and exit 1, the code of a failed
    # statement; "distance": "x" loaded and then broke `verify`
    from test_io import MALFORMED_MANIFESTS

    for manifest, message in MALFORMED_MANIFESTS:
        mp = tmp_path / "bad.json"
        mp.write_text(json.dumps(manifest))
        for command in (["validate"], ["verify", "--logicals", "0"]):
            rc = run_cli([*command, "--code", str(mp), "--out", str(tmp_path / "out")])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.endswith(message + "\n")
    assert not (tmp_path / "out").exists()
