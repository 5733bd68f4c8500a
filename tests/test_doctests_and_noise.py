"""Doctest execution and statistical checks on the simulator's noise."""

import doctest
import importlib
import statistics

import pytest

from repro.graph.builder import linear_pipeline_graph
from repro.gpu.kernel import KernelConfig
from repro.gpu.simulator import KernelSimulator, SimCosts, _hash01, _signed
from repro.gpu.specs import M2090

#: every module whose public API carries executable examples; the
#: docs-check target (tools/docs_check.py) keeps this honest for the
#: top-level exports
DOCTEST_MODULES = [
    "repro.apps.registry",
    "repro.flow",
    "repro.frontend.parser",
    "repro.gpu.delta",
    "repro.gpu.topology",
    "repro.graph.builder",
    "repro.graph.fingerprint",
    "repro.graph.flatten",
    "repro.gpu.memory",
    "repro.gpu.platforms",
    "repro.mapping.batch",
    "repro.mapping.budget",
    "repro.mapping.greedy",
    "repro.mapping.kernel",
    "repro.mapping.portfolio",
    "repro.mapping.problem",
    "repro.mapping.refine",
    "repro.mapping.repair",
    "repro.mapping.solver_bb",
    "repro.mapping.solver_milp",
    "repro.partition.heuristic",
    "repro.service",
    "repro.service.admission",
    "repro.service.api",
    "repro.service.http",
    "repro.service.jobs",
    "repro.service.queue",
    "repro.service.remap",
    "repro.service.server",
    "repro.sweep",
    "repro.sweep.cache",
    "repro.sweep.runner",
    "repro.sweep.spec",
    "repro.synth",
    "repro.synth.corpus",
    "repro.synth.diffcheck",
    "repro.synth.families",
    "repro.synth.rng",
    "repro.synth.scenarios",
]


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_public_api_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module)
    assert results.failed == 0
    assert results.attempted > 0


class TestNoiseStatistics:
    def test_hash01_is_roughly_uniform(self):
        samples = [_hash01("u", i) for i in range(4000)]
        mean = statistics.fmean(samples)
        assert 0.47 < mean < 0.53
        assert min(samples) >= 0.0 and max(samples) < 1.0
        # spread across deciles
        deciles = [0] * 10
        for s in samples:
            deciles[int(s * 10)] += 1
        assert min(deciles) > 4000 / 10 * 0.7

    def test_signed_is_centered(self):
        samples = [_signed("s", i) for i in range(4000)]
        assert abs(statistics.fmean(samples)) < 0.05
        assert all(-1.0 <= s < 1.0 for s in samples)

    def test_conflict_rate_matches_probability(self):
        """Across many distinct kernels, the severe-conflict fraction
        should track conflict_probability."""
        costs = SimCosts(conflict_probability=0.05)
        sim = KernelSimulator(M2090, costs=costs)
        severe = 0
        total = 300
        lo, _ = costs.conflict_scale
        for i in range(total):
            g = linear_pipeline_graph(f"noise{i}", stages=2, rate=64,
                                      work=50.0)
            members = [n.node_id for n in g.nodes]
            m = sim.measure(g, members, KernelConfig(1, 2, 64))
            overlap = min(m.t_comp, m.t_dt)
            if overlap > 0 and m.conflict_penalty >= lo * overlap * 0.99:
                severe += 1
        assert 0.01 <= severe / total <= 0.12  # ~5% +/- sampling noise

    def test_instruction_mix_is_stable_per_filter(self):
        sim = KernelSimulator(M2090)
        a = sim.firing_time_ns("alpha", 100.0)
        b = sim.firing_time_ns("alpha", 100.0)
        c = sim.firing_time_ns("beta", 100.0)
        assert a == b
        assert a != c

    def test_mix_spread_bounded(self):
        costs = SimCosts()
        sim = KernelSimulator(M2090, costs=costs)
        base = 100.0 * costs.op_ns_at_1ghz * M2090.compute_scale
        for i in range(200):
            t = sim.firing_time_ns(f"f{i}", 100.0) - costs.firing_overhead_ns
            assert abs(t - base) <= costs.instruction_mix_spread * base + 1e-9
