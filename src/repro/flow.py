"""End-to-end mapping flow (Figure 3.1).

``map_stream_graph`` chains the whole pipeline: profile -> partition ->
PDG -> ILP mapping -> kernel measurement -> pipelined execution, and
returns everything an experiment needs.  The strategy knobs select the
paper's technique or the baselines it compares against:

=================  ==========================  ===========================
``partitioner``    ``"ours"``                  Algorithm 1 (default)
                   ``"previous"``              [7]'s SM-threshold sweep
                   ``"single"``                SPSG: whole graph, 1 kernel
                   ``"perfilter"``             one kernel per filter [5]
``mapper``         ``"ilp"``                   Section 3.2 ILP (default)
                   ``"ilp-nocomm"``            ILP without link constraints
                   ``"lpt"``                   workload-only balancing [7]
                   ``"roundrobin"``            topological round-robin
                   ``"portfolio"``             anytime solver escalation
                                               (:mod:`repro.service.portfolio`)
=================  ==========================  ===========================

``peer_to_peer=False`` additionally reroutes all inter-GPU traffic through
the host, matching [7]'s execution model.

The pipeline is exposed both as the one-call facade and as explicit
stages (:func:`profile_stage`, :func:`partition_stage`, :func:`pdg_stage`,
:func:`mapping_stage`, :func:`measure_stage`, :func:`execute_stage`).
Every expensive stage accepts a ``cache`` — any object with
``get(key) -> value | None`` and ``put(key, value)`` over JSON values,
such as :class:`repro.sweep.StageCache` — keyed on the graph fingerprint
plus every knob the stage reads, so sweeps over many strategies compute
each shared prefix once (see :mod:`repro.sweep`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.graph.fingerprint import graph_fingerprint
from repro.graph.stream_graph import StreamGraph
from repro.gpu.kernel import KernelConfig
from repro.gpu.simulator import KernelMeasurement, KernelSimulator
from repro.gpu.specs import GpuSpec, M2090
from repro.gpu.topology import GpuTopology, default_topology
from repro.mapping.budget import SolveBudget
from repro.mapping.kernel import EvalKernel
from repro.mapping.greedy import (
    contiguous_mapping,
    lpt_mapping,
    round_robin_mapping,
)
from repro.mapping.refine import refine_mapping
from repro.mapping.problem import MappingProblem, build_mapping_problem
from repro.mapping.result import MappingResult
from repro.mapping.milp_model import MODEL_CACHE
from repro.mapping.solver_milp import MilpNoIncumbent, solve_milp
from repro.partition.baseline import (
    one_kernel_per_filter,
    previous_work_partition,
    single_partition,
)
from repro.partition.heuristic import PartitioningResult, partition_stream_graph
from repro.partition.pdg import PartitionDependenceGraph, build_pdg
from repro.perf.engine import PerformanceEstimationEngine
from repro.runtime.executor import (
    ExecutionReport,
    PipelinedExecutor,
    measure_partitions,
)
from repro.runtime.fragments import FragmentPlan

PARTITIONERS = ("ours", "previous", "single", "perfilter")
MAPPERS = (
    "ilp", "ilp-nocomm", "lpt", "roundrobin", "portfolio",
)


@dataclass
class FlowResult:
    """Everything produced by one end-to-end mapping run."""

    graph: StreamGraph
    num_gpus: int
    partitions: List[FrozenSet[int]]
    partitioning: Optional[PartitioningResult]
    pdg: PartitionDependenceGraph
    mapping: MappingResult
    measurements: List[KernelMeasurement]
    report: ExecutionReport
    engine: PerformanceEstimationEngine

    @property
    def throughput(self) -> float:
        return self.report.throughput

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)


# ----------------------------------------------------------------------
# cache keys
# ----------------------------------------------------------------------
def stage_key(stage: str, **parts: object) -> str:
    """Content-addressed cache key for one stage invocation.

    The key digests the stage name plus every knob the stage reads; two
    invocations share a key iff they are guaranteed to produce identical
    results (all stages are deterministic functions of their knobs).
    """
    payload = json.dumps(
        {"stage": stage, **parts}, sort_keys=True, separators=(",", ":"),
        default=str,
    )
    return f"{stage}.{hashlib.sha256(payload.encode()).hexdigest()}"


def engine_key_parts(engine: PerformanceEstimationEngine) -> Dict[str, object]:
    """The engine-identity knobs every PEE-derived stage result depends
    on: target device, simulator cost constants and noise seed, and the
    model's regression constants."""
    return _engine_parts(engine.spec, engine.simulator, engine.params)


def _engine_parts(
    spec: GpuSpec, simulator: KernelSimulator, params=None
) -> Dict[str, object]:
    from repro.perf.model import ModelParams

    return {
        "spec": asdict(spec),
        "costs": asdict(simulator.costs),
        "seed": simulator.seed,
        "params": asdict(params or ModelParams()),
    }


def topology_key_parts(topology: GpuTopology) -> Dict[str, object]:
    """The interconnect-identity knobs mapping/execution depend on.

    Platform identity is *content-addressed*: the tree shape, every
    per-link spec, and any per-leaf GPU specs all enter the key, so two
    named platforms can never share a cached mapping unless they are
    byte-identical machines.  Uniform homogeneous topologies keep the
    original compact form (and hence their pre-existing cache entries).
    """
    parts: Dict[str, object] = {
        "parents": topology.tree_edges(),
        "num_gpus": topology.num_gpus,
        "link_spec": asdict(topology.link_spec),
    }
    if not topology.uniform_links:
        # only uplinks: both directions of an edge share one spec
        parts["edge_specs"] = {
            link.child: asdict(link.spec)
            for link in topology.links
            if link.up and link.spec != topology.link_spec
        }
    if topology.gpu_specs is not None:
        parts["gpu_specs"] = [asdict(spec) for spec in topology.gpu_specs]
    return parts


def _cache_get(cache, key: str):
    return cache.get(key) if cache is not None else None


def _cache_put(cache, key: str, value) -> None:
    if cache is not None:
        cache.put(key, value)


# ----------------------------------------------------------------------
# stages
# ----------------------------------------------------------------------
def profile_stage(
    graph: StreamGraph,
    spec: GpuSpec = M2090,
    simulator: Optional[KernelSimulator] = None,
    seed: int = 0,
    cache=None,
    graph_fp: Optional[str] = None,
) -> PerformanceEstimationEngine:
    """Profile every filter and build the Performance Estimation Engine.

    This is the per-filter measurement step of Figure 3.1 (the ``t_i``
    annotation).  With a ``cache``, the profile of a previously-seen
    (graph, device, seed) triple is replayed instead of re-measured.
    """
    simulator = simulator or KernelSimulator(spec, seed=seed)
    key = None
    if cache is not None:
        key = stage_key(
            "profile",
            graph=graph_fp or graph_fingerprint(graph),
            engine=_engine_parts(spec, simulator),
        )
        hit = _cache_get(cache, key)
        if hit is not None:
            profile = {int(nid): t for nid, t in hit.items()}
            return PerformanceEstimationEngine(
                graph, spec=spec, simulator=simulator, profile=profile
            )
    engine = PerformanceEstimationEngine(graph, spec=spec, simulator=simulator)
    if key is not None:
        _cache_put(cache, key, {str(nid): t for nid, t in engine.profile.items()})
    return engine


def partition_stage(
    graph: StreamGraph,
    engine: PerformanceEstimationEngine,
    partitioner: str = "ours",
    spec: GpuSpec = M2090,
    phases: Tuple[int, ...] = (1, 2, 3, 4),
    cache=None,
    graph_fp: Optional[str] = None,
) -> Tuple[List[FrozenSet[int]], Optional[PartitioningResult]]:
    """Partition the graph with the selected strategy.

    Returns the partition list plus, for ``"ours"``, the full
    :class:`~repro.partition.heuristic.PartitioningResult`.  A cache hit
    skips the heuristic's thousands of candidate-merge probes and only
    re-estimates the final partitions (memoized on the engine).
    """
    if partitioner not in PARTITIONERS:
        raise ValueError(f"unknown partitioner {partitioner!r}")
    key = None
    if cache is not None:
        key = stage_key(
            "partition",
            graph=graph_fp or graph_fingerprint(graph),
            engine=engine_key_parts(engine),
            # spec is keyed separately from the engine: the baseline
            # partitioners read it directly (shared-memory fit) and do
            # not consult the engine at all
            spec=asdict(spec),
            partitioner=partitioner,
            phases=sorted(phases),
        )
        hit = _cache_get(cache, key)
        if hit is not None:
            partitions = [frozenset(members) for members in hit["partitions"]]
            partitioning = None
            if hit["phase_counts"] is not None:
                partitioning = PartitioningResult(
                    graph=graph,
                    partitions=partitions,
                    estimates=[engine.estimate(m) for m in partitions],
                    phase_counts=dict(hit["phase_counts"]),
                )
            return partitions, partitioning

    partitioning: Optional[PartitioningResult] = None
    if partitioner == "ours":
        partitioning = partition_stream_graph(
            graph, engine=engine, spec=spec, phases=phases
        )
        partitions = partitioning.partitions
    elif partitioner == "previous":
        partitions = previous_work_partition(graph, spec=spec)
    elif partitioner == "perfilter":
        partitions = one_kernel_per_filter(graph)
    else:
        partitions = single_partition(graph)
    if key is not None:
        _cache_put(cache, key, {
            "partitions": [sorted(members) for members in partitions],
            "phase_counts": (
                dict(partitioning.phase_counts) if partitioning else None
            ),
        })
    return list(partitions), partitioning


def pdg_stage(
    graph: StreamGraph,
    partitions: Sequence[FrozenSet[int]],
    engine: PerformanceEstimationEngine,
    executions_per_fragment: int = 128,
    partitioning: Optional[PartitioningResult] = None,
) -> PartitionDependenceGraph:
    """Assemble the Partition Dependence Graph (cheap, never cached)."""
    estimates = partitioning.estimates if partitioning is not None else None
    return build_pdg(
        graph,
        partitions,
        engine,
        executions_per_fragment=executions_per_fragment,
        estimates=estimates,
    )


def mapping_stage(
    pdg: PartitionDependenceGraph,
    num_gpus: int,
    engine: PerformanceEstimationEngine,
    mapper: str = "ilp",
    topology: Optional[GpuTopology] = None,
    peer_to_peer: bool = True,
    static_workload_balance: bool = False,
    gpu_slowdown: Optional[Sequence[float]] = None,
    solve_budget: Optional[SolveBudget] = None,
    cache=None,
    graph_fp: Optional[str] = None,
) -> MappingResult:
    """Assign partitions to GPUs with the selected mapper.

    The ILP solve dominates sweep runtimes on large graphs, so its result
    (assignment + score breakdown) is cacheable like the other stages.

    ``solve_budget`` injects a :class:`~repro.mapping.SolveBudget` into
    the ``ilp`` and ``portfolio`` mappers.  A
    non-default budget enters
    the cache key (a small-budget incumbent and an ample-budget optimum
    are different results); the deterministic default tier keys like
    the historical no-budget form, so existing cache entries stay
    valid.  The resolution happens *after* applying the
    ``REPRO_MILP_TIME_LIMIT_S`` opt-in, so entries written since this
    refactor are never replayed across the wall-clock/deterministic
    divide.  (Entries a *pre-refactor* run left in a cache directory
    were solved under the historical 10 s wall clock and replay under
    the default key — purge ``mapping`` entries from old caches if
    that matters: ``repro cache purge --stage mapping``.)
    """
    if mapper not in MAPPERS:
        raise ValueError(f"unknown mapper {mapper!r}")
    topology = topology or default_topology(num_gpus)
    key = None
    if cache is not None:
        budget_parts = {}
        if mapper in ("ilp", "ilp-nocomm", "portfolio"):
            resolved = (
                solve_budget if solve_budget is not None
                else SolveBudget.default()  # env opt-in applied here
            )
            if resolved != SolveBudget.tier("default"):
                budget_parts = {"solve_budget": resolved.key_parts()}
        key = stage_key(
            "mapping",
            graph=graph_fp or graph_fingerprint(pdg.graph),
            engine=engine_key_parts(engine),
            partitions=[sorted(node.members) for node in pdg.nodes],
            executions_per_fragment=pdg.executions_per_fragment,
            num_gpus=num_gpus,
            mapper=mapper,
            topology=topology_key_parts(topology),
            peer_to_peer=peer_to_peer,
            static_workload_balance=static_workload_balance,
            gpu_slowdown=list(gpu_slowdown) if gpu_slowdown else None,
            **budget_parts,
        )
        hit = _cache_get(cache, key)
        if hit is not None:
            return MappingResult(
                assignment=tuple(hit["assignment"]),
                tmax=hit["tmax"],
                gpu_times=tuple(hit["gpu_times"]),
                link_times=tuple(hit["link_times"]),
                solver=hit["solver"],
                optimal=hit["optimal"],
                solve_stats=tuple(
                    (name, value) for name, value in hit["solve_stats"]
                ),
            )
    problem = build_mapping_problem(
        pdg, num_gpus, topology=topology, peer_to_peer=peer_to_peer,
        gpu_slowdown=list(gpu_slowdown) if gpu_slowdown else None,
    )
    mapping = _solve(
        problem, mapper, pdg.graph,
        [node.members for node in pdg.nodes],
        static_workload_balance, pdg, solve_budget,
    )
    if key is not None:
        _cache_put(cache, key, {
            "assignment": list(mapping.assignment),
            "tmax": mapping.tmax,
            "gpu_times": list(mapping.gpu_times),
            "link_times": list(mapping.link_times),
            "solver": mapping.solver,
            "optimal": mapping.optimal,
            "solve_stats": [list(item) for item in mapping.solve_stats],
        })
    return mapping


def measure_stage(
    pdg: PartitionDependenceGraph,
    engine: PerformanceEstimationEngine,
    cache=None,
    graph_fp: Optional[str] = None,
) -> List[KernelMeasurement]:
    """Measure every partition's kernel on the simulator (the "run the
    generated code" step the paper's evaluation performs per mapping)."""
    key = None
    if cache is not None:
        key = stage_key(
            "measure",
            graph=graph_fp or graph_fingerprint(pdg.graph),
            engine=engine_key_parts(engine),
            partitions=[sorted(node.members) for node in pdg.nodes],
        )
        hit = _cache_get(cache, key)
        if hit is not None:
            return [
                KernelMeasurement(
                    t_comp=m["t_comp"],
                    t_dt=m["t_dt"],
                    t_db=m["t_db"],
                    conflict_penalty=m["conflict_penalty"],
                    spill_penalty=m["spill_penalty"],
                    launch_ns=m["launch_ns"],
                    config=KernelConfig(*m["config"]),
                )
                for m in hit
            ]
    measurements = measure_partitions(pdg, engine.simulator, engine)
    if key is not None:
        _cache_put(cache, key, [
            {
                "t_comp": m.t_comp,
                "t_dt": m.t_dt,
                "t_db": m.t_db,
                "conflict_penalty": m.conflict_penalty,
                "spill_penalty": m.spill_penalty,
                "launch_ns": m.launch_ns,
                "config": [m.config.s, m.config.w, m.config.f],
            }
            for m in measurements
        ])
    return measurements


def execute_stage(
    pdg: PartitionDependenceGraph,
    mapping: MappingResult,
    engine: PerformanceEstimationEngine,
    measurements: Sequence[KernelMeasurement],
    topology: GpuTopology,
    peer_to_peer: bool = True,
    plan: Optional[FragmentPlan] = None,
) -> ExecutionReport:
    """Simulate the pipelined multi-GPU execution (Figure 3.5)."""
    executor = PipelinedExecutor(
        pdg,
        mapping.assignment,
        topology,
        engine.simulator,
        list(measurements),
        peer_to_peer=peer_to_peer,
    )
    return executor.run(plan)


# ----------------------------------------------------------------------
# facade
# ----------------------------------------------------------------------
def map_stream_graph(
    graph: StreamGraph,
    num_gpus: int = 1,
    spec: GpuSpec = M2090,
    partitioner: str = "ours",
    mapper: str = "ilp",
    peer_to_peer: bool = True,
    topology: Optional[GpuTopology] = None,
    platform: Optional[str] = None,
    plan: Optional[FragmentPlan] = None,
    engine: Optional[PerformanceEstimationEngine] = None,
    executions_per_fragment: int = 128,
    static_workload_balance: bool = False,
    gpu_slowdown: Optional[Sequence[float]] = None,
    solve_budget: Optional[SolveBudget] = None,
    seed: int = 0,
    cache=None,
    graph_fp: Optional[str] = None,
) -> FlowResult:
    """Run the full mapping flow and simulate the pipelined execution.

    ``solve_budget`` bounds the mapping solve with a deterministic
    :class:`~repro.mapping.SolveBudget` (``ilp`` and ``portfolio``
    mappers); omitted, the solvers use their default
    budget — a
    deterministic node cap, wall-clock only via the
    ``REPRO_MILP_TIME_LIMIT_S`` opt-in.

    ``static_workload_balance`` makes the LPT mapper balance static work
    (Σ firing · work) instead of PEE times — the previous work has no
    performance model, so its emulation sets this.

    ``platform`` selects a named machine from the catalog of
    :mod:`repro.gpu.platforms` (``"two-island"``, ``"mixed-box"``, ...);
    it fixes both the interconnect tree and the GPU count, so
    ``num_gpus`` is taken from the platform.  Passing both ``platform``
    and an explicit ``topology`` is an error.

    ``gpu_slowdown`` activates the heterogeneous extension of the ILP
    (Section 3.2.2): one factor per GPU, applied to partition times at
    mapping time.  Platforms with per-leaf GPU specs (e.g.
    ``"mixed-box"``) derive the factors automatically; an explicit
    ``gpu_slowdown`` overrides them.  The runtime simulator remains
    homogeneous (kernels are measured on ``spec``), so with slowdowns
    the mapping is exercised but the reported execution assumes uniform
    devices.

    ``cache`` plugs a stage cache (e.g. :class:`repro.sweep.StageCache`)
    into the profile, partition, mapping, and measurement stages; every
    stage is a deterministic function of its knobs, so cached replays are
    bit-identical to fresh runs.  ``graph_fp`` optionally supplies the
    graph's precomputed fingerprint so batch callers (the sweep runner)
    hash each graph once instead of once per strategy point.

    >>> from repro.apps import build_app
    >>> result = map_stream_graph(build_app("Bitonic", 8), num_gpus=2)
    >>> result.num_partitions >= 1 and result.throughput > 0
    True
    >>> hetero = map_stream_graph(build_app("Bitonic", 8),
    ...                           platform="two-island")
    >>> hetero.num_gpus
    4
    """
    if partitioner not in PARTITIONERS:
        raise ValueError(f"unknown partitioner {partitioner!r}")
    if mapper not in MAPPERS:
        raise ValueError(f"unknown mapper {mapper!r}")
    if platform is not None:
        if topology is not None:
            raise ValueError("pass either platform or topology, not both")
        from repro.gpu.platforms import build_platform

        topology = build_platform(platform)
        num_gpus = topology.num_gpus
    if graph_fp is None and cache is not None:
        graph_fp = graph_fingerprint(graph)
    if engine is None:
        engine = profile_stage(
            graph, spec=spec, seed=seed, cache=cache, graph_fp=graph_fp
        )
    topology = topology or default_topology(num_gpus)

    partitions, partitioning = partition_stage(
        graph, engine, partitioner=partitioner, spec=spec,
        cache=cache, graph_fp=graph_fp,
    )
    pdg = pdg_stage(
        graph, partitions, engine,
        executions_per_fragment=executions_per_fragment,
        partitioning=partitioning,
    )
    mapping = mapping_stage(
        pdg, num_gpus, engine, mapper=mapper, topology=topology,
        peer_to_peer=peer_to_peer,
        static_workload_balance=static_workload_balance,
        gpu_slowdown=gpu_slowdown, solve_budget=solve_budget,
        cache=cache, graph_fp=graph_fp,
    )
    measurements = measure_stage(pdg, engine, cache=cache, graph_fp=graph_fp)
    report = execute_stage(
        pdg, mapping, engine, measurements, topology,
        peer_to_peer=peer_to_peer, plan=plan,
    )
    return FlowResult(
        graph=graph,
        num_gpus=num_gpus,
        partitions=list(partitions),
        partitioning=partitioning,
        pdg=pdg,
        mapping=mapping,
        measurements=measurements,
        report=report,
        engine=engine,
    )


@dataclass
class RemapFlowResult:
    """Everything produced by one end-to-end re-mapping run."""

    graph: StreamGraph
    pdg: PartitionDependenceGraph
    #: the degraded machine plus the base->degraded GPU translation
    degraded: "DegradedTopology"
    #: the pristine-platform mapping the repair started from; ``None``
    #: when the caller supplied ``old_assignment`` directly
    baseline: Optional[MappingResult]
    #: the repaired mapping with its migration provenance
    repair: "RepairResult"

    @property
    def num_partitions(self) -> int:
        return len(self.pdg.nodes)


def remap_stream_graph(
    graph: StreamGraph,
    platform: str,
    deltas: Sequence["PlatformDelta"],
    old_assignment: Optional[Sequence[int]] = None,
    spec: GpuSpec = M2090,
    partitioner: str = "ours",
    mapper: str = "portfolio",
    peer_to_peer: bool = True,
    alpha: Optional[float] = None,
    solve_budget: Optional[SolveBudget] = None,
    seed: int = 0,
    cache=None,
    graph_fp: Optional[str] = None,
) -> RemapFlowResult:
    """Repair a deployed mapping after ``platform`` degrades by ``deltas``.

    The front half of the flow (profile, partition, PDG) runs exactly as
    :func:`map_stream_graph` — cached stages replay.  The *baseline*
    mapping on the pristine platform is solved (and cached) with
    ``mapper`` unless the caller hands in the deployed ``old_assignment``
    directly; the degraded machine is derived with
    :func:`repro.gpu.delta.apply_deltas` (its ``topology_key_parts``
    reflect every delta, so nothing ever aliases a pristine cache
    entry); and :func:`repro.mapping.repair.solve_repair` carries the
    old assignment across the GPU renumbering and repairs it under
    ``solve_budget``.

    ``alpha`` prices migration bytes in the repair objective
    (default :data:`repro.mapping.repair.REPAIR_ALPHA`).

    >>> from repro.apps import build_app
    >>> from repro.gpu.delta import PlatformDelta
    >>> out = remap_stream_graph(
    ...     build_app("Bitonic", 8), "host-star",
    ...     [PlatformDelta.kill_gpu(1)],
    ...     solve_budget=SolveBudget.tier("instant"))
    >>> out.degraded.topology.num_gpus
    3
    >>> out.repair.mapping.tmax > 0
    True
    """
    from repro.gpu.delta import degrade_platform
    from repro.gpu.platforms import build_platform
    from repro.mapping.repair import REPAIR_ALPHA, solve_repair

    if partitioner not in PARTITIONERS:
        raise ValueError(f"unknown partitioner {partitioner!r}")
    if mapper not in MAPPERS:
        raise ValueError(f"unknown mapper {mapper!r}")
    if alpha is None:
        alpha = REPAIR_ALPHA
    if graph_fp is None and cache is not None:
        graph_fp = graph_fingerprint(graph)
    engine = profile_stage(
        graph, spec=spec, seed=seed, cache=cache, graph_fp=graph_fp
    )
    partitions, partitioning = partition_stage(
        graph, engine, partitioner=partitioner, spec=spec,
        cache=cache, graph_fp=graph_fp,
    )
    pdg = pdg_stage(graph, partitions, engine, partitioning=partitioning)

    baseline: Optional[MappingResult] = None
    if old_assignment is None:
        base_topology = build_platform(platform)
        baseline = mapping_stage(
            pdg, base_topology.num_gpus, engine, mapper=mapper,
            topology=base_topology, peer_to_peer=peer_to_peer,
            solve_budget=solve_budget, cache=cache, graph_fp=graph_fp,
        )
        old_assignment = baseline.assignment
    degraded = degrade_platform(platform, deltas)
    problem = build_mapping_problem(
        pdg, degraded.topology.num_gpus, topology=degraded.topology,
        peer_to_peer=peer_to_peer,
    )
    repair = solve_repair(
        problem, old_assignment, gpu_map=degraded.gpu_map, alpha=alpha,
        budget=solve_budget, topo_order=pdg.topological_order(),
    )
    return RemapFlowResult(
        graph=graph, pdg=pdg, degraded=degraded, baseline=baseline,
        repair=repair,
    )


def _solve(
    problem: MappingProblem,
    mapper: str,
    graph: StreamGraph,
    partitions: Sequence[FrozenSet[int]],
    static_workload_balance: bool,
    pdg: PartitionDependenceGraph,
    solve_budget: Optional[SolveBudget] = None,
) -> MappingResult:
    if mapper == "portfolio":
        from repro.service.portfolio import solve_portfolio

        answer = solve_portfolio(
            problem, budget=solve_budget,
            topo_order=pdg.topological_order(),
        )
        return answer.mapping
    if mapper == "ilp":
        try:
            # the process-wide compiled-model cache: sweep grids repeat
            # (graph-shape x platform) signatures, so only the first
            # solve of each shape pays the model assembly
            result = solve_milp(
                problem, budget=solve_budget, model_cache=MODEL_CACHE
            )
        except MilpNoIncumbent:
            # budget exhausted before any incumbent: fall back to the
            # heuristic chain below with an empty starting point
            result = lpt_mapping(problem)
        if not result.optimal:
            # the solver hit its work limit; never return worse than the
            # cheap heuristics (greedy balance, contiguous chain split),
            # then polish the winner with local search — all scored
            # through one compiled kernel (bit-identical, much faster)
            kernel = EvalKernel(problem)
            for fallback in (
                lpt_mapping(problem, kernel=kernel),
                contiguous_mapping(
                    problem, pdg.topological_order(), kernel=kernel
                ),
            ):
                if fallback.tmax < result.tmax:
                    result = fallback
            refined = refine_mapping(
                problem, result.assignment, max_steps=64, use_swaps=False,
                kernel=kernel,
            )
            if refined.tmax < result.tmax:
                result = refined
        return result
    if mapper == "ilp-nocomm":
        return solve_milp(
            problem, include_comm=False, budget=solve_budget,
            model_cache=MODEL_CACHE,
        )
    if mapper == "lpt":
        workloads = None
        if static_workload_balance:
            workloads = [graph.total_work(members) for members in partitions]
        return lpt_mapping(problem, workloads=workloads)
    return round_robin_mapping(problem)
