"""Tests for mapping extensions: broadcasts, heterogeneous GPUs,
contiguous splitting."""

import itertools
from dataclasses import replace

import pytest

from repro.gpu.specs import LinkSpec
from repro.gpu.topology import default_topology
from repro.mapping.budget import SolveBudget
from repro.mapping.greedy import contiguous_mapping, lpt_mapping
from repro.mapping.problem import Broadcast, MappingProblem
from repro.mapping.solver_bb import solve_branch_and_bound
from repro.mapping.solver_milp import solve_milp

#: the default node cap with a zero gap: brute-force comparisons want
#: the optimum, not an answer within 1% of it
GAP_FREE = replace(SolveBudget.tier("default"), mip_rel_gap=0.0)


def _problem(times, edges=None, broadcasts=None, gpus=4, slowdown=None,
             host_io=None):
    return MappingProblem(
        times=list(times),
        edges=dict(edges or {}),
        host_io=list(host_io or [(0.0, 0.0)] * len(times)),
        topology=default_topology(gpus, LinkSpec(6.0, 10_000.0)),
        broadcasts=list(broadcasts or []),
        gpu_slowdown=slowdown,
    )


def _brute_force(problem):
    best, best_assign = float("inf"), None
    for assign in itertools.product(
        range(problem.num_gpus), repeat=problem.num_partitions
    ):
        t = problem.tmax(assign)
        if t < best:
            best, best_assign = t, assign
    return best, best_assign


class TestBroadcastSemantics:
    def test_one_copy_per_destination_gpu(self):
        group = Broadcast(src=0, nbytes=6000.0, destinations=(1, 2, 3))
        p = _problem([1.0] * 4, broadcasts=[group], gpus=2)
        # all destinations on gpu1: one copy crosses, not three
        loads = p.link_loads([0, 1, 1, 1])
        crossing = [v for v in loads if v > 0]
        assert all(v == pytest.approx(6000.0) for v in crossing)

    def test_local_destinations_free(self):
        group = Broadcast(src=0, nbytes=6000.0, destinations=(1, 2))
        p = _problem([1.0] * 3, broadcasts=[group], gpus=2)
        assert all(v == 0.0 for v in p.link_loads([0, 0, 0]))

    def test_two_gpu_destinations_two_copies(self):
        group = Broadcast(src=0, nbytes=6000.0, destinations=(1, 2))
        p = _problem([1.0] * 3, broadcasts=[group], gpus=4)
        # src gpu0, dests on gpu1 and gpu2: gpu0's uplink carries 2 copies
        loads = p.link_loads([0, 1, 2])
        assert max(loads) == pytest.approx(12000.0)

    def test_broadcast_validation(self):
        with pytest.raises(ValueError):
            _problem([1.0], broadcasts=[Broadcast(5, 1.0, (0,))])
        with pytest.raises(ValueError):
            _problem([1.0], broadcasts=[Broadcast(0, 1.0, (9,))])

    def test_milp_matches_brute_force_with_broadcasts(self):
        group = Broadcast(src=0, nbytes=500_000.0, destinations=(1, 2, 3))
        times = [80_000.0, 50_000.0, 50_000.0, 50_000.0]
        p = _problem(times, broadcasts=[group], gpus=2)
        res = solve_milp(p, budget=GAP_FREE)
        best, _ = _brute_force(p)
        assert res.tmax == pytest.approx(best, rel=1e-6)

    def test_bb_matches_brute_force_with_broadcasts(self):
        group = Broadcast(src=0, nbytes=400_000.0, destinations=(1, 2))
        times = [60_000.0, 90_000.0, 90_000.0]
        p = _problem(times, broadcasts=[group], gpus=3)
        res = solve_branch_and_bound(p)
        best, _ = _brute_force(p)
        assert res.tmax == pytest.approx(best, rel=1e-6)

    def test_broadcast_cheaper_than_private_edges(self):
        """Dedup must make wide fan-out cheaper than per-edge charging."""
        times = [10.0] * 5
        bcast = _problem(
            times, broadcasts=[Broadcast(0, 60_000.0, (1, 2, 3, 4))], gpus=2
        )
        private = _problem(
            times, edges={(0, j): 60_000.0 for j in range(1, 5)}, gpus=2
        )
        assignment = [0, 1, 1, 1, 1]
        assert max(bcast.link_loads(assignment)) < max(
            private.link_loads(assignment)
        )


class TestHeterogeneous:
    def test_validation(self):
        with pytest.raises(ValueError):
            _problem([1.0], gpus=2, slowdown=[1.0])
        with pytest.raises(ValueError):
            _problem([1.0], gpus=2, slowdown=[1.0, -1.0])

    def test_time_on_scales(self):
        p = _problem([100.0], gpus=2, slowdown=[1.0, 2.0])
        assert p.time_on(0, 0) == 100.0
        assert p.time_on(0, 1) == 200.0

    def test_solver_prefers_fast_gpu(self):
        p = _problem([100.0, 10.0], gpus=2, slowdown=[1.0, 4.0])
        res = solve_milp(p, budget=GAP_FREE)
        assert res.assignment[0] == 0  # heavy partition on the fast GPU

    def test_milp_matches_brute_force_heterogeneous(self):
        times = [70_000.0, 50_000.0, 30_000.0, 20_000.0]
        edges = {(0, 1): 120_000.0, (1, 2): 60_000.0, (2, 3): 90_000.0}
        p = _problem(times, edges=edges, gpus=3, slowdown=[1.0, 1.5, 2.0])
        res = solve_milp(p, budget=GAP_FREE)
        best, _ = _brute_force(p)
        assert res.tmax == pytest.approx(best, rel=1e-6)

    def test_bb_matches_brute_force_heterogeneous(self):
        times = [70_000.0, 50_000.0, 30_000.0]
        p = _problem(times, gpus=2, slowdown=[1.0, 3.0])
        res = solve_branch_and_bound(p)
        best, _ = _brute_force(p)
        assert res.tmax == pytest.approx(best, rel=1e-6)
        assert res.optimal

    def test_lpt_accounts_for_slowdown(self):
        p = _problem([100.0, 100.0, 100.0, 100.0], gpus=2,
                     slowdown=[1.0, 100.0])
        res = lpt_mapping(p)
        # the slow GPU should receive at most one partition
        assert sum(1 for g in res.assignment if g == 1) <= 1


class TestContiguous:
    def test_chain_gets_exactly_g_blocks(self):
        times = [10.0] * 12
        edges = {(i, i + 1): 1000.0 for i in range(11)}
        p = _problem(times, edges=edges, gpus=4)
        res = contiguous_mapping(p)
        # blocks must be contiguous and in order
        assert list(res.assignment) == sorted(res.assignment)
        assert len(set(res.assignment)) <= 4

    def test_balances_heavy_chain(self):
        times = [30.0, 1.0, 1.0, 30.0, 1.0, 1.0, 30.0]
        p = _problem(times, gpus=3)
        res = contiguous_mapping(p)
        assert max(p.gpu_times(res.assignment)) <= 35.0

    def test_cuts_cost_fewer_links_than_lpt(self):
        times = [10_000.0] * 16
        edges = {(i, i + 1): 500_000.0 for i in range(15)}
        p = _problem(times, edges=edges, gpus=4)
        cont = contiguous_mapping(p)
        lpt = lpt_mapping(p)
        assert max(p.link_loads(cont.assignment)) <= max(
            p.link_loads(lpt.assignment)
        )

    def test_custom_order(self):
        p = _problem([5.0, 1.0, 5.0], gpus=2)
        res = contiguous_mapping(p, order=[2, 1, 0])
        assert len(res.assignment) == 3

    def test_rejects_non_permutation(self):
        p = _problem([1.0, 1.0], gpus=2)
        with pytest.raises(ValueError):
            contiguous_mapping(p, order=[0, 0])
