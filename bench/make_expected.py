#!/usr/bin/env python3
"""Regenerate ``bench/expected.json``: the references of the pinned cases.

For every pinned case of ``compile-heuristic``, ``compile-exact`` and
``remap-kill`` the file records

* ``pinned_tmax`` / ``pinned_optimal`` — what the workload's own call
  returns at the commit that ran this script (the ``tmax <= expected``
  check: an improvement may lower it, nothing may raise it);
* ``best_known`` — the smallest ``tmax`` anyone has found for the case:
  the minimum over the workload's answer, the ``default`` tier and the
  ``ample``-tier portfolio (which also carries any proven optimum), the
  latter cut off after 60 s per case.  ``tmax_vs_ref`` divides by it.

Running this is a change to the benchmark, never part of a performance
change.  It writes ``bench/out/expected.json`` unless ``--out`` says
otherwise; copy the result over ``bench/expected.json`` to commit it.

    PYTHONPATH=src python bench/make_expected.py
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != BENCH_DIR]
sys.path[0:0] = [ROOT, os.path.join(ROOT, "src")]

AMPLE_TIMEOUT_S = 60


def solve(app: str, n: int, machine: str, tier: str) -> dict:
    """One front-door compile of a case at ``tier``."""
    from repro.apps import build_app
    from repro.flow import map_stream_graph
    from repro.mapping import SolveBudget

    from bench.cases import Case

    case = Case(app, n, machine)
    mapping = map_stream_graph(
        build_app(app, n), mapper="portfolio",
        solve_budget=SolveBudget.tier(tier), **case.machine_kwargs(),
    ).mapping
    return {"tmax": mapping.tmax, "optimal": mapping.optimal}


def solve_ample(case) -> dict:
    """The ample tier in a child process, abandoned after the cap."""
    try:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--solve",
             case.app, str(case.n), case.machine],
            capture_output=True, text=True, timeout=AMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {}
    if done.returncode != 0:
        raise RuntimeError(done.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


def compile_entries() -> dict:
    from bench.lib_workloads import COMPILE

    by_id = {c.id: c for _t, cs, _d in COMPILE.values() for c in cs}
    answers = {}  # (case id, tier) -> {"tmax", "optimal"}
    for case_id, case in sorted(by_id.items()):
        tiers = {tier for tier, cs, _d in COMPILE.values() if case in cs}
        for tier in sorted(tiers | {"default"}):
            answers[(case_id, tier)] = solve(
                case.app, case.n, case.machine, tier)
        answers[(case_id, "ample")] = ample = solve_ample(case)
        note = "proved" if ample.get("optimal") else (
            "unproved" if ample else "timeout")
        print(f"{case_id}: ample {note}", file=sys.stderr)

    def best(case_id):
        found = [(a["tmax"], tier) for (cid, tier), a in answers.items()
                 if cid == case_id and a]
        return min(found)

    return {
        workload: {
            case.id: {
                "pinned_tmax": answers[(case.id, tier)]["tmax"],
                "pinned_optimal": answers[(case.id, tier)]["optimal"],
                "best_known": best(case.id)[0],
                "best_source": best(case.id)[1],
                "why": case.why,
            }
            for case in cases
        }
        for workload, (tier, cases, _draws) in COMPILE.items()
    }


def remap_entries() -> dict:
    from repro.apps import build_app
    from repro.flow import remap_stream_graph
    from repro.gpu.delta import PlatformDelta
    from repro.mapping import SolveBudget, build_mapping_problem
    from repro.service import solve_portfolio
    from repro.sweep import StageCache

    from bench import cases
    from bench.lib_workloads import deploy_baselines, remap_cases, remap_id, remap_ops

    budget = SolveBudget.tier(cases.REMAP_BUDGET)
    graphs = {(c.app, c.n): build_app(c.app, c.n) for c in remap_cases()}
    cache = StageCache()
    deployed = deploy_baselines(graphs, cache, budget)
    out = {}
    for case, gpu in sorted(remap_ops(0), key=lambda op: remap_id(*op)):
        result = remap_stream_graph(
            graphs[(case.app, case.n)], case.platform,
            [PlatformDelta.kill_gpu(gpu)], old_assignment=deployed[case],
            solve_budget=budget, cache=cache,
        )
        mapping = result.repair.mapping
        problem = build_mapping_problem(
            result.pdg, result.degraded.topology.num_gpus,
            topology=result.degraded.topology,
        )
        scratch = solve_portfolio(
            problem, budget="default",
            topo_order=result.pdg.topological_order(),
        ).mapping
        best = min(mapping.tmax, scratch.tmax)
        out[remap_id(case, gpu)] = {
            "pinned_tmax": mapping.tmax,
            "pinned_optimal": mapping.optimal,
            "best_known": best,
            "best_source": "repair" if best == mapping.tmax
            else "default-from-scratch",
        }
        print(f"{remap_id(case, gpu)}: repair {mapping.tmax:.6g} "
              f"best {best:.6g}", file=sys.stderr)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=os.path.join(
        BENCH_DIR, "out", "expected.json"))
    parser.add_argument("--solve", nargs=3, metavar=("APP", "N", "MACHINE"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.solve:
        app, n, machine = args.solve
        print(json.dumps(solve(app, int(n), machine, "ample")))
        return 0
    workloads = compile_entries()
    workloads["remap-kill"] = remap_entries()
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump({"workloads": workloads}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
