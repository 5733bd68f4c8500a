"""Benchmark: incremental repair vs full re-solve after a kill-GPU delta.

Measures, and records into ``BENCH_repair.json`` at the repo root:

* per-case wall times for :func:`repro.mapping.repair.solve_repair`
  (seeded from the deployed mapping) and for a from-scratch
  :func:`repro.mapping.portfolio.solve_portfolio` on the same degraded
  machine, plus their ratio — the headline "repair is cheaper than
  re-solving" number, recorded for the trajectory and never asserted
  (wall clock is load-sensitive on the CI box);
* the repair-vs-resolve quality gap (``repaired_tmax /
  from_scratch_tmax``, 1.0 = repair matched) and the churn the repair
  paid (migrated / evicted partitions, bytes moved).

What *is* asserted is correctness, which is load-insensitive: every
repaired mapping must be valid, bit-exact under the shared evaluator
(``mapping.tmax == MappingProblem.tmax(assignment)``), no worse than
the greedy-from-scratch floor, and deterministic back to back.
"""

import json
import time
from pathlib import Path

from repro.apps import build_app
from repro.flow import partition_stage, pdg_stage, profile_stage
from repro.gpu.delta import PlatformDelta, apply_deltas
from repro.gpu.platforms import build_platform
from repro.mapping.problem import build_mapping_problem
from repro.mapping.repair import solve_repair
from repro.mapping.portfolio import solve_portfolio

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_repair.json"

#: (app, n, platform, gpu to kill) — one small, one mid-size bundled
#: benchmark and one synthetic DAG, on three different catalog machines
CASES = (
    ("Bitonic", 8, "host-star", 1),
    ("DES", 8, "two-island", 2),
    ("synth:dag;layers=3;width=2", 1, "deep-tree-8", 3),
)

#: both sides solve under the same deterministic tier, so the wall
#: ratio compares algorithms, not budgets
BUDGET = "small"


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _front_half(app, n):
    graph = build_app(app, n)
    engine = profile_stage(graph)
    partitions, partitioning = partition_stage(graph, engine)
    return pdg_stage(graph, partitions, engine, partitioning=partitioning)


def test_bench_repair(benchmark):
    prepared = []
    for app, n, platform, gpu in CASES:
        pdg = _front_half(app, n)
        topo_order = pdg.topological_order()
        base = build_platform(platform)
        base_problem = build_mapping_problem(
            pdg, base.num_gpus, topology=base
        )
        baseline = solve_portfolio(
            base_problem, budget=BUDGET, topo_order=topo_order
        ).mapping
        hit = apply_deltas(base, [PlatformDelta.kill_gpu(gpu)])
        problem = build_mapping_problem(
            pdg, hit.topology.num_gpus, topology=hit.topology
        )
        label = f"{app}@{n}/{platform}-kill{gpu}"
        prepared.append(
            (label, problem, baseline.assignment, hit.gpu_map, topo_order)
        )

    cases = {}
    for label, problem, old, gpu_map, topo_order in prepared:
        def do_repair():
            return solve_repair(
                problem, old, gpu_map=gpu_map, budget=BUDGET,
                topo_order=topo_order,
            )

        def do_resolve():
            return solve_portfolio(
                problem, budget=BUDGET, topo_order=topo_order
            )

        repair = do_repair()
        resolve = do_resolve().mapping

        # -- asserted: the repair guarantees (load-insensitive) ---------
        assignment = repair.mapping.assignment
        assert len(assignment) == problem.num_partitions, label
        assert all(0 <= g < problem.num_gpus for g in assignment), label
        assert repair.mapping.tmax == problem.tmax(assignment), label
        assert repair.mapping.tmax <= repair.greedy_tmax * (1 + 1e-9), label
        again = do_repair()
        assert again.mapping.assignment == assignment, label
        assert again.mapping.tmax == repair.mapping.tmax, label

        # -- recorded: wall ratio and quality gap -----------------------
        repair_s = _best_of(do_repair)
        resolve_s = _best_of(do_resolve)
        cases[label] = {
            "repair_ms": repair_s * 1e3,
            "resolve_ms": resolve_s * 1e3,
            "resolve_vs_repair_wall": resolve_s / repair_s,
            "quality_gap": repair.mapping.tmax / resolve.tmax,
            "fallback": repair.fallback,
            "migrated": len(repair.migrated),
            "evicted": len(repair.evicted),
            "migration_bytes": repair.migration_bytes,
            "moves": repair.moves,
        }

    def repair_sweep():
        for _label, problem, old, gpu_map, topo_order in prepared:
            solve_repair(
                problem, old, gpu_map=gpu_map, budget=BUDGET,
                topo_order=topo_order,
            )

    benchmark.pedantic(repair_sweep, rounds=1, iterations=1)

    record = {
        "schema": "bench-repair/v1",
        "budget": BUDGET,
        "cases": cases,
    }
    BENCH_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print()
    for label, row in cases.items():
        print(f"{label:38s} repair {row['repair_ms']:7.1f}ms  "
              f"resolve {row['resolve_ms']:7.1f}ms  "
              f"(x{row['resolve_vs_repair_wall']:.1f})  "
              f"gap {row['quality_gap']:.3f}"
              f"{'  [fallback]' if row['fallback'] else ''}")
