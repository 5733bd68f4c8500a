"""The incremental repair solver: exactness, determinism, guardrails.

Pins the repair guarantees the scenario harness and the service rely
on: repaired mappings are rescored bit-exactly through the shared
evaluator, repair is deterministic back to back, dead-GPU actors are
evicted (and only placed on live GPUs), the answer never loses to
greedy-from-scratch, ``alpha`` actually prices migration, and a
destructive delta falls back to the portfolio.
"""

import pytest

from repro.apps import build_app
from repro.flow import partition_stage, pdg_stage, profile_stage
from repro.gpu import (
    PLATFORM_NAMES,
    PlatformDelta,
    apply_deltas,
    build_platform,
)
from repro.mapping import (
    REPAIR_ALPHA,
    build_mapping_problem,
    migration_cost_bytes,
    solve_repair,
    translate_assignment,
)
from repro.mapping.portfolio import solve_portfolio


def _pdg(app="Bitonic", n=8):
    graph = build_app(app, n)
    engine = profile_stage(graph)
    partitions, partitioning = partition_stage(graph, engine)
    return pdg_stage(graph, partitions, engine, partitioning=partitioning)


def _degraded(pdg, platform, deltas, budget="instant"):
    base = build_platform(platform)
    base_problem = build_mapping_problem(pdg, base.num_gpus, topology=base)
    baseline = solve_portfolio(
        base_problem, budget=budget, topo_order=pdg.topological_order()
    ).mapping
    hit = apply_deltas(base, deltas)
    problem = build_mapping_problem(
        pdg, hit.topology.num_gpus, topology=hit.topology
    )
    return problem, baseline.assignment, hit.gpu_map


class TestTranslateAssignment:
    def test_identity_without_a_map(self):
        assert translate_assignment((0, 1, 2), None) == [0, 1, 2]

    def test_dead_gpus_become_none(self):
        assert translate_assignment(
            (0, 1, 2, 1), (0, None, 1, 2)
        ) == [0, None, 1, None]


class TestRepairGuarantees:
    def test_rescore_is_bit_exact_and_deterministic(self):
        pdg = _pdg()
        problem, old, gpu_map = _degraded(
            pdg, "host-star", [PlatformDelta.kill_gpu(1)]
        )
        first = solve_repair(
            problem, old, gpu_map=gpu_map,
            topo_order=pdg.topological_order(),
        )
        # exact equality, not approx: the repair result must be rescored
        # through the same evaluator as every other solver
        assert first.mapping.tmax == problem.tmax(first.mapping.assignment)
        again = solve_repair(
            problem, old, gpu_map=gpu_map,
            topo_order=pdg.topological_order(),
        )
        assert again.mapping.assignment == first.mapping.assignment
        assert again.mapping.tmax == first.mapping.tmax
        assert again.migration_bytes == first.migration_bytes

    def test_evicts_exactly_the_dead_gpus_actors(self):
        pdg = _pdg()
        problem, old, gpu_map = _degraded(
            pdg, "host-star", [PlatformDelta.kill_gpu(1)]
        )
        repair = solve_repair(
            problem, old, gpu_map=gpu_map,
            topo_order=pdg.topological_order(),
        )
        expected = tuple(
            pid for pid, gpu in enumerate(old) if gpu_map[gpu] is None
        )
        assert repair.evicted == expected
        assert all(
            0 <= g < problem.num_gpus for g in repair.mapping.assignment
        )

    def test_never_worse_than_greedy_across_platforms(self):
        pdg = _pdg()
        for platform in PLATFORM_NAMES:
            base = build_platform(platform)
            for gpu in range(base.num_gpus):
                problem, old, gpu_map = _degraded(
                    pdg, platform, [PlatformDelta.kill_gpu(gpu)]
                )
                repair = solve_repair(
                    problem, old, gpu_map=gpu_map,
                    topo_order=pdg.topological_order(),
                )
                assert repair.mapping.tmax <= repair.greedy_tmax * (
                    1 + 1e-9
                ), (platform, gpu)

    def test_throttle_repair_keeps_every_actor_placed(self):
        pdg = _pdg("DES", 8)
        problem, old, gpu_map = _degraded(
            pdg, "two-island", [PlatformDelta.throttle_link("sw1", 0.25)]
        )
        repair = solve_repair(
            problem, old, gpu_map=gpu_map,
            topo_order=pdg.topological_order(),
        )
        assert repair.evicted == ()
        assert len(repair.mapping.assignment) == problem.num_partitions


class TestAlphaSemantics:
    def test_higher_alpha_never_moves_more_bytes(self):
        pdg = _pdg("DES", 8)
        problem, old, gpu_map = _degraded(
            pdg, "two-island", [PlatformDelta.kill_gpu(2)], budget="small"
        )
        free = solve_repair(
            problem, old, gpu_map=gpu_map, alpha=0.0,
            budget="small", topo_order=pdg.topological_order(),
        )
        sticky = solve_repair(
            problem, old, gpu_map=gpu_map, alpha=1e3,
            budget="small", topo_order=pdg.topological_order(),
        )
        assert sticky.migration_bytes <= free.migration_bytes
        assert free.alpha == 0.0 and sticky.alpha == 1e3

    def test_negative_alpha_rejected(self):
        pdg = _pdg()
        problem, old, gpu_map = _degraded(
            pdg, "host-star", [PlatformDelta.kill_gpu(1)]
        )
        with pytest.raises(ValueError):
            solve_repair(problem, old, gpu_map=gpu_map, alpha=-1.0)


class TestFallback:
    def test_destructive_delta_falls_back_to_portfolio(self):
        pdg = _pdg()
        deltas = [PlatformDelta.kill_gpu(g) for g in (0, 1, 2)]
        problem, old, gpu_map = _degraded(pdg, "host-star", deltas)
        repair = solve_repair(
            problem, old, gpu_map=gpu_map,
            topo_order=pdg.topological_order(),
        )
        assert repair.fallback
        # the fallback answer still honours every repair guarantee
        assert repair.mapping.tmax == problem.tmax(repair.mapping.assignment)
        assert repair.mapping.tmax <= repair.greedy_tmax * (1 + 1e-9)


class TestMigrationCost:
    def test_cost_counts_host_io_and_cut_edges(self):
        pdg = _pdg()
        base = build_platform("host-star")
        problem = build_mapping_problem(pdg, base.num_gpus, topology=base)
        for pid in range(problem.num_partitions):
            assert migration_cost_bytes(problem, pid) >= 0.0
        # a stream graph moves data: at least one partition costs > 0
        assert any(
            migration_cost_bytes(problem, pid) > 0
            for pid in range(problem.num_partitions)
        )

    def test_alpha_default_matches_module_constant(self):
        pdg = _pdg()
        problem, old, gpu_map = _degraded(
            pdg, "host-star", [PlatformDelta.kill_gpu(1)]
        )
        repair = solve_repair(
            problem, old, gpu_map=gpu_map,
            topo_order=pdg.topological_order(),
        )
        assert repair.alpha == REPAIR_ALPHA
