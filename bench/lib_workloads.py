"""The four library workloads: compile-heuristic, compile-exact,
sweep-warm, remap-kill.

Each runs through the program's real front door (``map_stream_graph``,
``SweepRunner.run``, ``remap_stream_graph``) with tracing off for the
end-to-end numbers, and — under ``--trace 1`` — once more stage by stage
under spans for the per-layer numbers (see ``bench/layers.py``).
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps import build_app
from repro.flow import map_stream_graph, profile_stage, remap_stream_graph
from repro.gpu.delta import PlatformDelta, degrade_platform
from repro.gpu.platforms import PLATFORM_NAMES
from repro.graph.fingerprint import graph_fingerprint
from repro.mapping import (
    REPAIR_ALPHA,
    SolveBudget,
    build_mapping_problem,
    solve_repair,
)
from repro.sweep import StageCache, SweepRunner, SweepSpec
from repro.synth import generate_scenario, replay_scenario

from bench import cases, layers
from bench.checks import (
    Expected,
    check_answer,
    machine_topology,
    oracle_problem,
    topology_for,
)
from bench.report import Report, overhead_share, passes_for, peak_rss_mb
from bench.trace import Tracer

now = time.perf_counter

#: how often the cheap set-ups (graph construction) are repeated
SETUP_REPEATS = 5

#: seconds one pass takes at the commit that defined the benchmark;
#: with ``--seconds`` they fix the pass count (see ``passes_for``)
NOMINAL_PASS_S = {
    "compile-heuristic": 3.1,
    "compile-exact": 7.7,
    "sweep-warm": 2.4,
    "remap-kill": 5.9,
}

Answer = Tuple[Tuple[int, ...], float, bool]


def _answer(mapping) -> Answer:
    return tuple(mapping.assignment), mapping.tmax, mapping.optimal


# ----------------------------------------------------------------------
# compile-heuristic / compile-exact
# ----------------------------------------------------------------------
COMPILE = {
    "compile-heuristic": ("instant", cases.HEURISTIC_CASES, True),
    "compile-exact": ("default", cases.EXACT_CASES, False),
}


#: set only by ``bench/compare.py --demo`` (see ``layers.SlowEngine``)
DEMO_SLOW_ENV = "BENCH_DEMO_SLOW_ESTIMATE"


def _compile(graph, case: cases.Case, budget: SolveBudget):
    engine = None
    slow = os.environ.get(DEMO_SLOW_ENV)
    if slow:
        engine = layers.SlowEngine(profile_stage(graph), float(slow))
    return map_stream_graph(
        graph, mapper="portfolio", solve_budget=budget, engine=engine,
        **case.machine_kwargs(),
    )


def seeded_draws(seed: int) -> List[cases.Case]:
    """One up-sized synth draw per family.  A candidate the generator
    itself rejects (its firing guard, a documented limit) is redrawn:
    making valid inputs is the benchmark's job, not an operation."""
    from repro.synth import SynthError

    draws = []
    for family in sorted(cases.SYNTH_UPSIZE):
        for attempt in range(16):
            case = cases.synth_draw(seed, family, attempt)
            try:
                build_app(case.app, case.n)
            except SynthError:
                continue
            draws.append(case)
            break
    return draws


def _build_graphs(all_cases: Sequence[cases.Case]) -> Dict[cases.Case, object]:
    return {case: build_app(case.app, case.n) for case in all_cases}


class _PassLog:
    """What the timed passes of a compile workload produced, per case."""

    def __init__(self) -> None:
        self.flows: Dict[cases.Case, object] = {}  # first pass only
        self.answers: Dict[cases.Case, List[Optional[Answer]]] = {}
        self.walls: Dict[cases.Case, List[float]] = {}


def _timed_block(order, graphs, budget, log: _PassLog, report) -> float:
    """One closed-loop pass over ``order``; returns its wall."""
    start = now()
    for case in order:
        t0 = now()
        try:
            flow = _compile(graphs[case], case, budget)
        except Exception as exc:  # the run must survive one bad case
            answer = None
            report.tally.record(f"error-{type(exc).__name__}", case.id)
        else:
            answer = _answer(flow.mapping)
            log.flows.setdefault(case, flow)
            report.tally.record()
        log.walls.setdefault(case, []).append(now() - t0)
        log.answers.setdefault(case, []).append(answer)
    return now() - start


def _check_compile(report, workload, case, log: _PassLog, expected,
                   pinned: bool) -> List[float]:
    """Check every pass's answer of one case; returns its tmax ratios."""
    problem = oracle_problem(log.flows[case].pdg, topology_for(case))
    answers = [a for a in log.answers[case] if a is not None]
    ratios = []
    for assignment, tmax, optimal in answers:
        reason = check_answer(problem, assignment, tmax)
        if reason is None and (assignment, tmax) != answers[0][:2]:
            reason = "nondeterministic"
        if reason is None and pinned:
            reason = expected.check(workload, case.id, tmax, optimal)
        if reason is not None:
            report.tally.fail(reason, case.id)
        elif pinned:
            ratios.append(expected.ratio(workload, case.id, tmax))
    return ratios


def run_compile(workload: str, seed: int, seconds: float,
                setup_base_s: float) -> Report:
    tier, pinned_cases, with_draws = COMPILE[workload]
    report = Report(workload)
    budget = SolveBudget.tier(tier)
    expected = Expected()
    draws = seeded_draws(seed) if with_draws else []
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = now()
        graphs = _build_graphs(list(pinned_cases) + draws)
        setup.append(now() - t0)
    order = cases.shuffled(pinned_cases, seed, workload)

    log = _PassLog()
    rates, draw_rates = [], []
    for _ in range(passes_for(seconds, NOMINAL_PASS_S[workload])):
        rates.append(
            len(order) / _timed_block(order, graphs, budget, log, report))
        if draws:
            draw_rates.append(
                len(draws) / _timed_block(draws, graphs, budget, log, report))
    rss = peak_rss_mb()

    ratios: List[float] = []
    for case in order + draws:
        if case in log.flows:
            ratios += _check_compile(report, workload, case, log, expected,
                                     pinned=case in pinned_cases)
    latencies = [wall for case in order for wall in log.walls[case]]
    report.set_end_to_end(setup_base_s, setup, rates, latencies, ratios, rss)
    proved = [a[2] for case in order for a in log.answers[case] if a]
    report.notes["proved_share"] = sum(proved) / max(1, len(proved))
    if draw_rates:
        # seeded draws differ in size from seed to seed, so their rate is
        # kept out of cases_per_s (which must repeat across seeds)
        report.notes["synth_cases_per_s"] = statistics.median(draw_rates)
    return report


def trace_compile(workload: str, seed: int) -> Tuple[Report, Tracer]:
    tier, pinned_cases, with_draws = COMPILE[workload]
    report = Report(workload)
    tracer = Tracer()
    budget = SolveBudget.tier(tier)
    order = cases.shuffled(pinned_cases, seed, workload)
    if with_draws:
        order += seeded_draws(seed)
    graphs = {}
    for case in order:
        with tracer.span("graph.build", trace_id=case.id):
            graphs[case] = build_app(case.app, case.n)
        with tracer.span("graph.fingerprint", trace_id=case.id):
            graph_fingerprint(graphs[case])  # probe: no cache, no call

    untraced, traced, wins, proved = [], [], {}, 0

    def plain_side(case):
        t0 = now()
        plain = _compile(graphs[case], case, budget)
        untraced.append(now() - t0)
        return plain

    def traced_side(case):
        t0 = now()
        with tracer.span("case", trace_id=case.id):
            flow = layers.traced_map(
                tracer, graphs[case], mapper="portfolio",
                solve_budget=budget, **case.machine_kwargs(),
            )
        traced.append(now() - t0)
        return flow

    for index, case in enumerate(order):
        # alternate which side runs first: the second one finds the
        # process-wide caches (compiled MILP models) warm
        if index % 2:
            flow = traced_side(case)
            plain = plain_side(case)
        else:
            plain = plain_side(case)
            flow = traced_side(case)
        tracer.count("perf.estimate_unique", flow.engine.cache_size)
        report.tally.record(
            None if _answer(flow.mapping) == _answer(plain.mapping)
            else "trace-mismatch", case.id,
        )
        stage = flow.mapping.solver.split("[", 1)[-1].rstrip("]")
        wins[stage] = wins.get(stage, 0) + 1
        proved += flow.mapping.optimal
        with tracer.span("probe", trace_id=case.id):
            layers.probe_solvers(
                tracer, flow.pdg, topology_for(case), budget
            )

    report.set_layers_from(tracer)
    layer = report.per_layer
    for stage, metric in (("greedy", "mapping.wins_greedy"),
                          ("refine", "mapping.wins_refine"),
                          ("branch-and-bound", "mapping.wins_bb"),
                          ("milp", "mapping.wins_milp")):
        layer[metric] = float(wins.get(stage, 0))
    if layer.get("mapping.bb_ms"):
        layer["mapping.bb_nodes_per_s"] = (
            layer.get("mapping.bb_nodes", 0.0) / (layer["mapping.bb_ms"] / 1e3)
        )
    layer["mapping.proved_share"] = proved / len(order)
    if workload == "compile-exact":
        layer.update(layers.probe_evaluators())
    layer["bench.trace_overhead_share"] = overhead_share(traced, untraced)
    layer["bench.span_coverage_share"] = tracer.coverage("case")
    return report, tracer


# ----------------------------------------------------------------------
# sweep-warm
# ----------------------------------------------------------------------
def sweep_points(seed: int):
    """The ~70-point grid: every app on five machines under two greedy
    mappers, plus the portfolio where its default tier proves fast."""
    apps = cases.shuffled(cases.SWEEP_APPS, seed, "sweep-warm")
    greedy = SweepSpec(
        cases=apps, gpu_counts=cases.SWEEP_TREE_GPUS,
        platforms=(None,) + cases.SWEEP_PLATFORMS,
        mappers=("lpt", "roundrobin"),
    )
    portfolio = SweepSpec(
        cases=apps, gpu_counts=cases.SWEEP_PORTFOLIO_GPUS,
        mappers=("portfolio",),
    )
    return greedy.expand() + portfolio.expand()


def _check_sweep(report, result, reference, with_flows: bool) -> None:
    """One warm pass: all hits, every record equal to the cold run's;
    with flows kept, every answer re-scored by the oracle."""
    stats = result.cache_stats
    for record in result.records:
        reason = None
        if stats.misses:
            reason = "cache-miss"
        elif (record.assignment, record.tmax) != reference[record.point]:
            reason = "nondeterministic"
        elif with_flows:
            flow = result.flow(record.point)
            problem = oracle_problem(flow.pdg, machine_topology(
                num_gpus=record.point.num_gpus,
                platform=record.point.platform))
            reason = check_answer(problem, record.assignment, record.tmax)
        report.tally.record(reason, record.point.label())


def run_sweep(seed: int, seconds: float, setup_base_s: float,
              workdir: str) -> Report:
    report = Report("sweep-warm")
    points = sweep_points(seed)
    setup = []
    for attempt in range(2):  # a cold fill costs seconds: two, not five
        directory = os.path.join(workdir, f"stage-cache-{attempt}")
        t0 = now()
        cold = SweepRunner(cache=StageCache(directory)).run(points)
        setup.append(now() - t0)
    reference = {r.point: (r.assignment, r.tmax) for r in cold.records}

    passes = passes_for(seconds, NOMINAL_PASS_S["sweep-warm"])
    rates, latencies, results = [], [], []
    for index in range(passes):
        # a fresh cache object per pass: every read comes off the disk
        runner = SweepRunner(cache=StageCache(directory))
        t0 = now()
        result = runner.run(points, keep_flows=index == passes - 1)
        rates.append(len(points) / (now() - t0))
        latencies += [record.wall_s for record in result.records]
        results.append(result)
    rss = peak_rss_mb()
    for index, result in enumerate(results):
        _check_sweep(report, result, reference, index == passes - 1)
    report.set_end_to_end(setup_base_s, setup, rates, latencies, [], rss)
    return report


def trace_sweep(seed: int, workdir: str) -> Tuple[Report, Tracer]:
    report = Report("sweep-warm")
    tracer = Tracer()
    points = sweep_points(seed)
    directory = os.path.join(workdir, "stage-cache")
    cold_cache = layers.TracedStageCache(tracer, directory)
    with tracer.span("sweep.cold_fill"):
        cold = SweepRunner(cache=cold_cache).run(points)
    puts = dict(tracer.folded).get("sweep.cache_put", [0, 0.0])
    put_calls, put_s = puts[0], puts[1]

    # the runner's own bookkeeping: run wall minus what the points took
    t0 = now()
    warm = SweepRunner(cache=StageCache(directory)).run(points)
    untraced_wall = now() - t0
    overhead_ms = (untraced_wall - sum(r.wall_s for r in warm.records)) * 1e3

    # the same points, stage by stage, in the runner's group order
    tracer.folded.clear()
    cache = layers.TracedStageCache(tracer, directory)
    groups: Dict[tuple, dict] = {}
    t0 = now()
    for point in points:
        with tracer.span("case", trace_id=point.label()):
            shared = groups.get(point.group_key())
            if shared is None:
                with tracer.span("graph.build"):
                    graph = build_app(point.app, point.n)
                with tracer.span("graph.fingerprint"):
                    graph_fp = graph_fingerprint(graph)
                engine = layers.traced_engine(
                    tracer, graph, cache=cache, graph_fp=graph_fp
                )
                shared = groups[point.group_key()] = {
                    "graph": graph, "fp": graph_fp, "engine": engine,
                }
            flow = layers.traced_map(
                tracer, shared["graph"], num_gpus=point.num_gpus,
                platform=point.platform, mapper=point.mapper, cache=cache,
                graph_fp=shared["fp"], engine=shared["engine"],
            )
        record = warm.record(point)
        report.tally.record(
            None if (tuple(flow.mapping.assignment), flow.mapping.tmax)
            == (record.assignment, record.tmax) else "trace-mismatch",
            point.label(),
        )
    traced_wall = now() - t0
    for shared in groups.values():
        tracer.count("perf.estimate_unique", shared["engine"].cache_size)

    report.set_layers_from(tracer)
    layer = report.per_layer
    stats = cache.stats()
    layer["sweep.cache_hit_share"] = stats.hit_rate
    layer["sweep.cache_puts"] = float(put_calls)
    layer["sweep.cache_put_ms"] = put_s * 1e3
    layer["sweep.cache_bytes"] = float(
        sum(size for _stage, _key, size in cache.disk_entries())
    )
    layer["sweep.runner_overhead_ms"] = overhead_ms
    layer["bench.trace_overhead_share"] = overhead_share(
        [traced_wall], [untraced_wall])
    layer["bench.span_coverage_share"] = tracer.coverage("case")
    report.notes["cold_fill_s"] = cold.wall_s
    return report, tracer


# ----------------------------------------------------------------------
# remap-kill
# ----------------------------------------------------------------------
def remap_cases() -> List[cases.Case]:
    out = [
        cases.Case(app, n, platform)
        for app, n in cases.REMAP_APPS for platform in PLATFORM_NAMES
    ]
    out += [cases.Case(app, n, platform)
            for app, n, platform in cases.REMAP_EXTRA]
    return out


def remap_ops(seed: int) -> List[Tuple[cases.Case, int]]:
    """Every single-GPU kill of every remap case, in seeded order."""
    ops = [
        (case, gpu)
        for case in remap_cases()
        for gpu in range(topology_for(case).num_gpus)
    ]
    return cases.shuffled(ops, seed, "remap-kill")


def remap_id(case: cases.Case, gpu: int) -> str:
    return f"{case.id}/kill{gpu}"


def deploy_baselines(graphs, cache, budget) -> Dict[cases.Case, Tuple[int, ...]]:
    """Set-up: solve the pristine baselines (this also warms ``cache``)."""
    return {
        case: tuple(map_stream_graph(
            graphs[(case.app, case.n)], platform=case.platform,
            mapper="portfolio", solve_budget=budget, cache=cache,
        ).mapping.assignment)
        for case in remap_cases()
    }


def _replay_scenario(report: Report, seed: int) -> None:
    """One seeded degradation script through the program's own replay
    harness: untimed (its length varies with the seed), checked."""
    platform = PLATFORM_NAMES[seed % len(PLATFORM_NAMES)]
    replay = replay_scenario(generate_scenario(platform, seed=seed))
    repairs = sum(len(outcomes) for _event, outcomes in replay.steps)
    for _ in range(max(1, repairs)):
        report.tally.record()
    for violation in replay.violations:
        report.tally.fail("scenario-violation", violation)


def run_remap(seed: int, seconds: float, setup_base_s: float) -> Report:
    report = Report("remap-kill")
    budget = SolveBudget.tier(cases.REMAP_BUDGET)
    expected = Expected()
    t0 = now()
    graphs = {
        (c.app, c.n): build_app(c.app, c.n) for c in remap_cases()
    }
    cache = StageCache()
    deployed = deploy_baselines(graphs, cache, budget)
    setup = [now() - t0]  # seconds of solves: done once
    ops = remap_ops(seed)

    rates, latencies = [], []
    outs: Dict[Tuple[cases.Case, int], list] = {}
    for _ in range(passes_for(seconds, NOMINAL_PASS_S["remap-kill"])):
        start = now()
        for case, gpu in ops:
            t0 = now()
            try:
                out = remap_stream_graph(
                    graphs[(case.app, case.n)], case.platform,
                    [PlatformDelta.kill_gpu(gpu)],
                    old_assignment=deployed[case], solve_budget=budget,
                    cache=cache,
                )
            except Exception as exc:
                out = None
                report.tally.record(f"error-{type(exc).__name__}",
                                    remap_id(case, gpu))
            else:
                report.tally.record()
            latencies.append(now() - t0)
            outs.setdefault((case, gpu), []).append(out)
        rates.append(len(ops) / (now() - start))
    rss = peak_rss_mb()

    ratios, fallbacks = [], 0
    for (case, gpu), results in outs.items():
        first = next((o for o in results if o is not None), None)
        for out in results:
            if out is None:
                continue
            mapping = out.repair.mapping
            problem = oracle_problem(out.pdg, out.degraded.topology)
            reason = check_answer(problem, mapping.assignment, mapping.tmax)
            if reason is None and out.degraded.gpu_map[gpu] is not None:
                reason = "dead-gpu-alive"
            if reason is None and (
                mapping.assignment != first.repair.mapping.assignment
            ):
                reason = "nondeterministic"
            if reason is None:
                reason = expected.check("remap-kill", remap_id(case, gpu),
                                        mapping.tmax, mapping.optimal)
            if reason is not None:
                report.tally.fail(reason, remap_id(case, gpu))
            else:
                ratios.append(expected.ratio(
                    "remap-kill", remap_id(case, gpu), mapping.tmax))
            fallbacks += out.repair.fallback
    _replay_scenario(report, seed)
    report.set_end_to_end(setup_base_s, setup, rates, latencies, ratios, rss)
    report.notes["fallback_share"] = fallbacks / max(1, len(latencies))
    return report


def traced_remap(tracer: Tracer, graph, case: cases.Case, gpu: int,
                 old_assignment, budget: SolveBudget, cache):
    """``repro.flow.remap_stream_graph`` with ``old_assignment`` given,
    stage by stage, under spans."""
    with tracer.span("graph.fingerprint"):
        graph_fp = graph_fingerprint(graph)
    engine = layers.traced_engine(tracer, graph, cache=cache,
                                  graph_fp=graph_fp)
    _parts, _partitioning, pdg = layers.traced_front_half(
        tracer, graph, engine, cache=cache, graph_fp=graph_fp
    )
    with tracer.span("gpu.degrade"):
        degraded = degrade_platform(
            case.platform, [PlatformDelta.kill_gpu(gpu)]
        )
    with tracer.span("mapping.problem_build"):
        problem = build_mapping_problem(
            pdg, degraded.topology.num_gpus, topology=degraded.topology
        )
    with tracer.span("mapping.repair"):
        repair = solve_repair(
            problem, old_assignment, gpu_map=degraded.gpu_map,
            alpha=REPAIR_ALPHA, budget=budget,
            topo_order=pdg.topological_order(),
        )
    tracer.count("perf.estimate_unique", engine.cache_size)
    tracer.count("mapping.repair_evicted", len(repair.evicted))
    tracer.count("mapping.repair_moves", repair.moves)
    tracer.count("mapping.repair_fallbacks", int(repair.fallback))
    tracer.count("mapping.repair_migration_bytes", repair.migration_bytes)
    return repair


def trace_remap(seed: int) -> Tuple[Report, Tracer]:
    report = Report("remap-kill")
    tracer = Tracer()
    budget = SolveBudget.tier(cases.REMAP_BUDGET)
    graphs = {}
    for case in remap_cases():
        if (case.app, case.n) not in graphs:
            with tracer.span("graph.build", trace_id=case.id):
                graphs[(case.app, case.n)] = build_app(case.app, case.n)
    cache = layers.TracedStageCache(tracer)
    with tracer.span("remap.deploy"):
        deployed = deploy_baselines(graphs, cache, budget)
    tracer.folded.clear()  # set-up's cache traffic is not the repair's
    warm = cache.stats().to_json()

    untraced, traced = [], []
    for case, gpu in remap_ops(seed):
        graph = graphs[(case.app, case.n)]
        cache.live = False
        t0 = now()
        plain = remap_stream_graph(
            graph, case.platform, [PlatformDelta.kill_gpu(gpu)],
            old_assignment=deployed[case], solve_budget=budget, cache=cache,
        )
        untraced.append(now() - t0)
        cache.live = True
        t0 = now()
        with tracer.span("case", trace_id=remap_id(case, gpu)):
            repair = traced_remap(tracer, graph, case, gpu, deployed[case],
                                  budget, cache)
        traced.append(now() - t0)
        report.tally.record(
            None if _answer(repair.mapping) == _answer(plain.repair.mapping)
            else "trace-mismatch", remap_id(case, gpu),
        )
    report.set_layers_from(tracer)
    layer = report.per_layer
    layer["sweep.cache_hit_share"] = cache.stats().since(warm).hit_rate
    layer["bench.trace_overhead_share"] = overhead_share(traced, untraced)
    layer["bench.span_coverage_share"] = tracer.coverage("case")
    return report, tracer
