"""The traced run's view of each layer, from outside the program.

Nothing under ``src/`` is edited.  The traced pipeline calls the public
``repro.flow`` stage functions itself, in ``map_stream_graph``'s order,
with one span per layer boundary; the collaborators it instruments are
benchmark-owned subclasses handed in through public parameters
(``engine=``, ``cache=``, ``MappingService(store=, cache=, solve_fn=)``).
Solver-stage numbers are *probes*: independent calls of the public
solvers on the same ``MappingProblem`` the portfolio solved.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.flow import (
    FlowResult,
    execute_stage,
    mapping_stage,
    measure_stage,
    partition_stage,
    pdg_stage,
    profile_stage,
)
from repro.graph.fingerprint import graph_fingerprint
from repro.mapping import (
    MODEL_CACHE,
    BatchEvaluator,
    DeltaEvaluator,
    EvalKernel,
    MilpNoIncumbent,
    SolveBudget,
    build_mapping_problem,
    refine_mapping,
    solve_branch_and_bound,
    solve_milp,
)
from repro.mapping.greedy import (
    contiguous_assignment,
    lpt_assignment,
    round_robin_assignment,
)
from repro.mapping.result import make_result
from repro.perf import PerformanceEstimationEngine
from repro.service.jobs import JobStore
from repro.sweep import StageCache

from bench.checks import machine_topology
from bench.trace import Tracer


class _RewrappedEngine(PerformanceEstimationEngine):
    """A benchmark-owned engine standing in for the one ``profile_stage``
    built: same graph, device, simulator, constants and profile."""

    def __init__(self, plain: PerformanceEstimationEngine) -> None:
        super().__init__(
            plain.graph, spec=plain.spec, simulator=plain.simulator,
            params=plain.params, profile=plain.profile,
        )


class TracedEngine(_RewrappedEngine):
    """The performance engine with every ``estimate`` call folded into
    the trace (thousands per case: too hot for a span each)."""

    def __init__(self, tracer: Tracer, plain: PerformanceEstimationEngine):
        super().__init__(plain)
        self._tracer = tracer

    def estimate(self, members):
        # timed inline, not through Tracer.timed: at ~70k calls a pass the
        # extra frame alone is a point of tracing overhead
        start = time.perf_counter()
        try:
            return super().estimate(members)
        finally:
            self._tracer.fold("perf.estimate", time.perf_counter() - start)


class SlowEngine(_RewrappedEngine):
    """The sensitivity demo's engine (``bench/compare.py --demo``): every
    ``estimate`` call takes ``share`` longer than it really did."""

    def __init__(self, plain: PerformanceEstimationEngine, share: float):
        super().__init__(plain)
        self._share = share

    def estimate(self, members):
        start = time.perf_counter()
        out = super().estimate(members)
        end = time.perf_counter()
        until = end + self._share * (end - start)
        while time.perf_counter() < until:
            pass
        return out


class TracedStageCache(StageCache):
    """The stage cache with reads and writes folded into the trace."""

    def __init__(self, tracer: Tracer, path: Optional[str] = None) -> None:
        super().__init__(path)
        self._tracer = tracer
        #: cleared while an untraced call borrows the (warm) cache
        self.live = True

    def get(self, key: str):
        if not self.live:
            return super().get(key)
        return self._tracer.timed("sweep.cache_get", super().get, key)

    def put(self, key: str, value) -> None:
        if not self.live:
            return super().put(key, value)
        return self._tracer.timed("sweep.cache_put", super().put, key, value)


class TracedJobStore(JobStore):
    """The job store with reads and writes folded into the trace
    (``update`` persists, so it counts as a write)."""

    def __init__(self, tracer: Tracer, path: Optional[str] = None) -> None:
        self._tracer = tracer
        super().__init__(path)

    def get(self, key: str):
        return self._tracer.timed("service.store_get", super().get, key)

    def put(self, job) -> None:
        return self._tracer.timed("service.store_put", super().put, job)

    def update(self, key: str, **fields):
        return self._tracer.timed("service.store_put", super().update, key,
                                  **fields)


def traced_engine(tracer: Tracer, graph, cache=None,
                  graph_fp: Optional[str] = None) -> TracedEngine:
    """``profile_stage`` under a span, its engine re-wrapped for tracing."""
    with tracer.span("perf.profile"):
        plain = profile_stage(graph, cache=cache, graph_fp=graph_fp)
    return TracedEngine(tracer, plain)


def traced_front_half(tracer: Tracer, graph, engine, cache=None,
                      graph_fp: Optional[str] = None):
    """Partition + PDG under spans; returns (partitions, partitioning,
    pdg) and counts what they produced."""
    with tracer.span("partition.heuristic"):
        partitions, partitioning = partition_stage(
            graph, engine, cache=cache, graph_fp=graph_fp
        )
    with tracer.span("partition.pdg"):
        pdg = pdg_stage(graph, partitions, engine, partitioning=partitioning)
    tracer.count("graph.nodes", len(graph.nodes))
    tracer.count("partition.count", len(partitions))
    tracer.count("partition.pdg_edges", len(pdg.edges))
    return partitions, partitioning, pdg


def traced_map(
    tracer: Tracer,
    graph,
    num_gpus: int = 1,
    platform: Optional[str] = None,
    mapper: str = "portfolio",
    solve_budget: Optional[SolveBudget] = None,
    cache=None,
    graph_fp: Optional[str] = None,
    engine: Optional[PerformanceEstimationEngine] = None,
) -> FlowResult:
    """``repro.flow.map_stream_graph``, stage by stage, under spans.

    Must return the untraced call's assignment and ``tmax`` exactly; the
    workloads check that it does.
    """
    with tracer.span("gpu.platform_build"):
        topology = machine_topology(num_gpus=num_gpus, platform=platform)
    num_gpus = topology.num_gpus
    if graph_fp is None and cache is not None:
        with tracer.span("graph.fingerprint"):
            graph_fp = graph_fingerprint(graph)
    if engine is None:
        engine = traced_engine(tracer, graph, cache=cache, graph_fp=graph_fp)
    partitions, partitioning, pdg = traced_front_half(
        tracer, graph, engine, cache=cache, graph_fp=graph_fp
    )
    with tracer.span("mapping.portfolio"):
        mapping = mapping_stage(
            pdg, num_gpus, engine, mapper=mapper, topology=topology,
            solve_budget=solve_budget, cache=cache, graph_fp=graph_fp,
        )
    with tracer.span("gpu.measure"):
        measurements = measure_stage(pdg, engine, cache=cache,
                                     graph_fp=graph_fp)
    with tracer.span("runtime.execute"):
        report = execute_stage(pdg, mapping, engine, measurements, topology)
    return FlowResult(
        graph=graph, num_gpus=num_gpus, partitions=list(partitions),
        partitioning=partitioning, pdg=pdg, mapping=mapping,
        measurements=measurements, report=report, engine=engine,
    )


def _stat(result, name: str) -> float:
    return dict(result.solve_stats).get(name, 0.0)


def probe_solvers(tracer: Tracer, pdg, topology,
                  budget: SolveBudget) -> None:
    """Time each public solver alone on the problem the portfolio saw.

    The stages run in the portfolio's order and feed each other the way
    it does (greedy seeds -> refine -> B&B incumbent -> MILP start), so
    their work counts are the portfolio's; their times are probes — the
    portfolio shares one kernel and skips stages these do not.
    """
    with tracer.span("mapping.problem_build"):
        problem = build_mapping_problem(
            pdg, topology.num_gpus, topology=topology
        )
    with tracer.span("mapping.kernel_compile"):
        kernel = EvalKernel(problem)
    with tracer.span("mapping.greedy"):
        seeds = [
            lpt_assignment(problem),
            round_robin_assignment(problem),
            contiguous_assignment(problem, list(pdg.topological_order())),
        ]
        scores = kernel.batch_tmax(seeds)
        best = seeds[min(range(len(seeds)), key=scores.__getitem__)]
    with tracer.span("mapping.refine"):
        refined = refine_mapping(
            problem, best, max_steps=budget.refine_steps, use_swaps=False,
            kernel=kernel,
        )
    tracer.count("mapping.refine_steps", _stat(refined, "refine_steps"))
    incumbent = list(min(
        (refined.assignment, best),
        key=lambda a: kernel.full_tmax(list(a)),
    ))
    proven = False
    if budget.use_bb:
        with tracer.span("mapping.bb"):
            bb = solve_branch_and_bound(
                problem, budget=budget, incumbent=incumbent, kernel=kernel
            )
        tracer.count("mapping.bb_nodes", _stat(bb, "nodes"))
        if bb.tmax <= kernel.full_tmax(incumbent):
            incumbent = list(bb.assignment)
        proven = bb.optimal
    if budget.use_milp and not proven:
        before = MODEL_CACHE.stats()
        with tracer.span("mapping.milp"):
            try:
                milp = solve_milp(problem, budget=budget,
                                  incumbent=incumbent)
            except MilpNoIncumbent:
                milp = None
        after = MODEL_CACHE.stats()
        tracer.count("mapping.milp_model_hits",
                     after["hits"] - before["hits"])
        tracer.count("mapping.milp_model_misses",
                     after["misses"] - before["misses"])
        if milp is not None:
            tracer.count("mapping.milp_nodes", _stat(milp, "milp_nodes"))
            if milp.tmax <= kernel.full_tmax(incumbent):
                incumbent = list(milp.assignment)
    with tracer.span("mapping.rescore"):
        make_result(problem, incumbent, "probe", optimal=False,
                    kernel=kernel)


def _rate(fn, window_s: float) -> float:
    """Calls per second of ``fn`` over one window of ``window_s``."""
    calls = 0
    start = time.perf_counter()
    deadline = start + window_s
    while True:
        fn()
        calls += 1
        now = time.perf_counter()
        if now >= deadline:
            return calls / (now - start)


def probe_evaluators(window_s: float = 0.15) -> Dict[str, float]:
    """Evaluator throughput on the pinned ``quick_corpus()`` problems
    (geometric mean over the three), per evaluator tier."""
    import random

    from repro.mapping.perfprobe import quick_corpus

    from bench.stats import geometric_mean

    rates: Dict[str, list] = {
        "mapping.kernel_full_per_s": [],
        "mapping.delta_move_per_s": [],
        "mapping.batch_cand_per_s": [],
    }
    population = 256
    for _label, problem in quick_corpus():
        kernel = EvalKernel(problem)
        assignment = lpt_assignment(problem)
        state = DeltaEvaluator(kernel, assignment)
        moves = [
            (pid, gpu)
            for pid in range(problem.num_partitions)
            for gpu in range(problem.num_gpus)
            if gpu != assignment[pid]
        ]
        rng = random.Random(0)
        matrix = [
            [rng.randrange(problem.num_gpus)
             for _ in range(problem.num_partitions)]
            for _ in range(population)
        ]
        batch = BatchEvaluator(kernel)

        def scan():
            for pid, gpu in moves:
                state.score_move(pid, gpu)

        rates["mapping.kernel_full_per_s"].append(
            _rate(lambda: kernel.full_tmax(assignment), window_s))
        rates["mapping.delta_move_per_s"].append(
            _rate(scan, window_s) * len(moves))
        rates["mapping.batch_cand_per_s"].append(
            _rate(lambda: batch.batch_tmax(matrix), window_s) * population)
    return {name: geometric_mean(values) for name, values in rates.items()}
