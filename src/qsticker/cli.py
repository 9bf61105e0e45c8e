"""Command-line surface tying the toolkit together.

Subcommands: validate, glue, deform, verify, plan, bench-overlap,
bench-cost, simulate.  Exit codes: 0 success, 1 verification failure,
2 input error, 3 internal error (a broken invariant: a bug).  All
outputs are deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .bench import bench_cost, bench_overlap
from .branching import assemble_plan, estimate_qubit_cost, plan_branching
from .codes import OperatorSet, validate_code
from .errors import InternalError
from .gf2 import Gf2Matrix
from .glue import finely_devised_glue, naked_glue
from .io import load_code, load_sigma, save_check_matrix
from .pauli import build_measurement_plan, is_regular, parse_pauli, regularise
from .sampling import SigmaSampler
from .stickers import deform, verify_surgery
from .tableau import (
    StabilizerState,
    memory_factor,
    plan_initial_state,
    simulate_plan,
)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _sigma_source(args) -> dict:
    """Where Σ comes from: a file, a logical-index spec, or the sampler."""
    if args.sigma:
        return {"sigma": args.sigma}
    if args.logicals:
        return {"logicals": args.logicals}
    if args.q is not None:
        return {"q": args.q, "L": args.L, "seed": args.seed,
                "t": args.t if args.t is not None else args.q}
    raise ValueError("provide --sigma FILE, --logicals SPEC, or --q N")


def _resolve_sigma(args, code) -> OperatorSet:
    source = _sigma_source(args)
    if "sigma" in source:
        return load_sigma(args.sigma, code)
    if "logicals" in source:
        rows = []
        for part in args.logicals.split("|"):
            acc = 0
            for tok in part.split(","):
                try:
                    i = int(tok)
                except ValueError:
                    raise ValueError(f"--logicals takes '|'-separated groups of "
                                     f"comma-separated logical indices, e.g. "
                                     f"'0|1,2', got {args.logicals!r}") from None
                if not 0 <= i < code.k:
                    raise ValueError(f"--logicals index {tok} is out of range "
                                     f"for k = {code.k}")
                acc ^= code.jz.bits[i]
            rows.append(acc)
        return OperatorSet("Z", Gf2Matrix(rows, code.n))
    sampler = SigmaSampler(code=code, l_max=args.L, thickness=source["t"],
                           max_q=args.q, seed=args.seed)
    return sampler.sample(args.q, trial=0)


def _provenance(args, **config) -> dict:
    """The envelope keys written beside a report: the package version and
    the inputs that rebuild it, the code spec and format first and then
    the command's own."""
    return {"qsticker_version": __version__,
            "config": {"code": args.code, "format": args.format, **config}}


def _parse_q_range(text: str) -> list[int]:
    lo, sep, hi = text.partition(":")
    try:
        if sep:
            return list(range(int(lo), int(hi) + 1))
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"--q takes lo:hi or a comma list of integers, "
                         f"got {text!r}") from None


def cmd_validate(args) -> int:
    code = load_code(args.code, args.format)
    rep = validate_code(code)
    payload = {
        "schema": 1,
        "code": code.name,
        "n": code.n, "k": code.k, "k_gauge": code.k_gauge,
        "ok": rep.ok,
        "checks": [{"name": c.name, "passed": c.passed, "witness": c.witness}
                   for c in rep.checks],
        **_provenance(args),
    }
    _write_json(_out_path(args, "validate.json"), payload)
    print(f"{code.name}: [[{code.n},{code.k}]] "
          f"{'all axioms pass' if rep.ok else 'AXIOM FAILURES'}")
    return 0 if rep.ok else 1


def cmd_glue(args) -> int:
    code = load_code(args.code, args.format)
    sigma = _resolve_sigma(args, code)
    nk = naked_glue(code, sigma)
    fine = finely_devised_glue(code, sigma)
    payload = {
        "schema": 1,
        "code": code.name,
        "q": sigma.size,
        "naked": nk.to_report(),
        "fine": fine.to_report(),
        "bound_margins": {
            "n_g": [fine.n_g, fine.meta["bound_n_g"]],
            "r_g": [fine.r_g, fine.meta["bound_r_g"]],
            "wmax_hg": [fine.hg.wmax(), fine.meta["bound_wmax_hg"]],
        },
        **_provenance(args, sigma=_sigma_source(args)),
    }
    _write_json(_out_path(args, "glue.json"), payload)
    save_check_matrix(fine.hg, _out_path(args, "glue_hg." + args.format),
                      args.format)
    print(f"fine glue: n_g={fine.n_g} r_g={fine.r_g} "
          f"wmax={fine.hg.wmax()} rn={fine.meta['rn']}")
    return 0


def cmd_deform(args) -> int:
    code = load_code(args.code, args.format)
    sigma = _resolve_sigma(args, code)
    dc = deform(code, sigma, args.kind, args.dr)
    payload = {
        "schema": 1,
        "kind": dc.kind,
        "memory": code.name,
        "memory_n": code.n, "memory_k": code.k,
        "n": dc.n, "k": dc.k, "d_r": dc.d_r, "d_t": dc.d_t,
        "glue": dc.glue.to_report(),
        "provenance": dc.provenance,
        **_provenance(args, kind=args.kind, d_r=args.dr,
                      sigma=_sigma_source(args)),
    }
    _write_json(_out_path(args, "deformed.json"), payload)
    save_check_matrix(dc.code.hx, _out_path(args, "deformed_hx." + args.format),
                      args.format)
    save_check_matrix(dc.code.hz, _out_path(args, "deformed_hz." + args.format),
                      args.format)
    print(f"deformed code: [[{dc.n},{dc.k}]] from [[{code.n},{code.k}]] "
          f"({dc.kind}, d_r={dc.d_r})")
    return 0


def cmd_verify(args) -> int:
    code = load_code(args.code, args.format)
    sigma = _resolve_sigma(args, code)
    dc = deform(code, sigma, args.kind, args.dr)
    rep = verify_surgery(dc, distance_qubit_cap=args.budget)
    _write_json(_out_path(args, "verify.json"),
                {**rep.to_report(),
                 **_provenance(args, kind=args.kind, d_r=args.dr,
                               sigma=_sigma_source(args), budget=args.budget)})
    for st in rep.statements:
        print(f"  [{st.status:>7}] {st.name}" +
              (f" ({st.detail})" if st.detail else ""))
    return 0 if rep.ok else 1


def cmd_plan(args) -> int:
    code = load_code(args.code, args.format)
    sigma = _resolve_sigma(args, code)
    tree = plan_branching(code, sigma, args.dr)
    payload = {
        "schema": 1,
        "code": code.name,
        "q": tree.q,
        "levels": tree.levels,
        "nodes": [{"id": n.node_id, "level": n.level, "parent": n.parent,
                   "ops": list(n.ops), "kind": n.kind, "d_r": n.d_r}
                  for n in tree.nodes],
        "costs": {
            scheme: estimate_qubit_cost(code, sigma, scheme, thickness=args.t,
                                        d_r=args.dr).to_report()
            for scheme in ("ds", "bfb")
        },
        **_provenance(args, sigma=_sigma_source(args), d_r=args.dr, t=args.t,
                      assemble=args.assemble),
    }
    if args.assemble:
        plan = assemble_plan(code, sigma, args.dr)
        payload["assembled"] = {
            "final_n": plan.final_code.n,
            "final_k": plan.final_code.k,
            "pastes": len(plan.pastes),
            "incidence": {str(k): v for k, v in sorted(plan.incidence.items())},
        }
    _write_json(_out_path(args, "plan.json"), payload)
    print(f"branch tree: q={tree.q} levels={tree.levels} "
          f"nodes={len(tree.nodes)}")
    return 0


def _write_bench(args, run) -> int:
    for ext, text in (("csv", run.to_csv_text()), ("json", run.to_json_text())):
        with open(_out_path(args, f"{run.kind}.{ext}"), "w",
                  encoding="utf-8") as fh:
            fh.write(text)
    for q, med in run.medians.items():
        print(f"  q={q}: median " + " ".join(f"{c}={v}" for c, v in med.items()))
    return 0


def cmd_bench_overlap(args) -> int:
    code = load_code(args.code, args.format)
    return _write_bench(args, bench_overlap(
        code, _parse_q_range(args.q_range), args.trials, args.seed,
        l_max=args.L, thickness=args.t))


def cmd_bench_cost(args) -> int:
    code = load_code(args.code, args.format)
    return _write_bench(args, bench_cost(
        code, _parse_q_range(args.q_range), args.trials, args.seed,
        l_max=args.L, thickness=args.t, d_r=args.dr))


def cmd_simulate(args) -> int:
    n = args.n
    theta = [parse_pauli(tok, n) for tok in args.theta.split(",")]
    memory = (StabilizerState.product_state(args.memory) if args.memory
              else StabilizerState.zero_state(n))
    if memory.n != n:
        raise ValueError("memory spec length does not match --n")
    groups = [theta] if is_regular(theta) else [g for g in regularise(theta) if g]
    rounds = []
    state = memory
    for group in groups:
        plan = build_measurement_plan(group)
        initial = plan_initial_state(plan, state)
        res = simulate_plan(plan, initial, outcome_seed=args.seed)
        rounds.append({
            "plan": plan.to_report(),
            "raw_outcomes": list(res.raw_outcomes),
            "operator_outcomes": list(res.op_outcomes),
            "corrections_applied": list(res.corrections_applied),
        })
        try:
            state = memory_factor(res.final, n)
        except ValueError as exc:
            # every ancilla has been read out, so the memory must factor
            raise InternalError(f"after round {len(rounds)}: {exc} (bug)") from exc
    payload = {
        "schema": 1,
        "n": n,
        "theta": [str(op) for op in theta],
        "regular": len(groups) == 1,
        "rounds": rounds,
        "final_memory_stabilizers": [str(g) for g in state.gens],
    }
    _write_json(_out_path(args, "simulate.json"), payload)
    for i, rnd in enumerate(rounds):
        outs = rnd["operator_outcomes"]
        print(f"  round {i + 1}: outcomes {outs}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qsticker",
        description="glue codes, stickers and deformed codes for "
                    "simultaneous logical Pauli measurements")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, code=True):
        if code:
            sp.add_argument("--code", required=True,
                            help="builtin (desk[:SEED[,N1]], hgp:m,n) or manifest path")
            sp.add_argument("--format", default="alist",
                            choices=["alist", "dense"])
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=0)

    def sigma_opts(sp):
        sp.add_argument("--sigma", help="dense-text file of Z operator rows")
        sp.add_argument("--logicals",
                        help="inline spec: '0|1,2' = {Z_0, Z_1 Z_2}")
        sp.add_argument("--q", type=int, help="sample q operators instead")
        sp.add_argument("--L", type=int, default=5,
                        help="max logical qubits per sampled operator")
        sp.add_argument("--t", type=int, help="logical thickness")

    sp = sub.add_parser("validate", help="check the subsystem-code axioms")
    common(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("glue", help="build naked and finely devised glue codes")
    common(sp)
    sigma_opts(sp)
    sp.set_defaults(func=cmd_glue)

    sp = sub.add_parser("deform", help="paste a sticker onto the memory")
    common(sp)
    sigma_opts(sp)
    sp.add_argument("--kind", choices=["measurement", "branch"],
                    default="measurement")
    sp.add_argument("--dr", type=int, default=2, help="repetition length")
    sp.set_defaults(func=cmd_deform)

    sp = sub.add_parser("verify", help="run the lattice-surgery statement suite")
    common(sp)
    sigma_opts(sp)
    sp.add_argument("--kind", choices=["measurement", "branch"],
                    default="measurement")
    sp.add_argument("--dr", type=int, default=2)
    sp.add_argument("--budget", type=int, default=36,
                    help="qubit cap for exhaustive distance checks")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("plan", help="plan (and optionally assemble) branching")
    common(sp)
    sigma_opts(sp)
    sp.add_argument("--dr", type=int, help="measurement sticker length")
    sp.add_argument("--assemble", action="store_true",
                    help="paste the whole tree (toy scale)")
    sp.set_defaults(func=cmd_plan)

    sp = sub.add_parser("bench-overlap", help="crowd/redundancy medians per q")
    common(sp)
    sp.add_argument("--q", dest="q_range", required=True,
                    help="range lo:hi or comma list")
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--L", type=int, default=5)
    sp.add_argument("--t", type=int, help="logical thickness (default: max q)")
    sp.set_defaults(func=cmd_bench_overlap)

    sp = sub.add_parser("bench-cost", help="ds vs bfb qubit-cost medians per q")
    common(sp)
    sp.add_argument("--q", dest="q_range", required=True)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--L", type=int, default=5)
    sp.add_argument("--t", type=int, help="logical thickness (default: max q)")
    sp.add_argument("--dr", type=int, help="measurement sticker length")
    sp.set_defaults(func=cmd_bench_cost)

    sp = sub.add_parser("simulate", help="simulate a general Pauli measurement")
    common(sp, code=False)
    sp.add_argument("--theta", required=True,
                    help="comma list of Pauli texts, e.g. '+X1Z2,-Z1'")
    sp.add_argument("--n", type=int, required=True, help="memory qubits")
    sp.add_argument("--memory", help="product state spec, e.g. '0+y'")
    sp.set_defaults(func=cmd_simulate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
