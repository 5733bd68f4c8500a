"""Seedable platform-degradation scenarios and the repair-vs-resolve harness.

The repair solver (:mod:`repro.mapping.repair`) claims three things: it
never returns an invalid assignment, its reported objective is
bit-exact, and it never answers worse than solving greedily from
scratch.  Hand-picked deltas would not stress those claims; this module
generates *degradation scripts* — seeded sequences of kill / throttle /
slow / restore platform events plus arrive / depart workload events —
over the named-platform catalog, and replays them step by step, at each
step repairing the previous step's mapping *and* solving from scratch,
so the repair-vs-resolve quality gap is measured rather than assumed.

Three consumers:

* :func:`replay_scenario` — the diffcheck-style harness: validity,
  bit-exactness, and the greedy floor are asserted on every step, and
  the per-step gap ``repaired_tmax / resolved_tmax`` is recorded;
* :func:`repair_check` — the ``make remap-check`` gate: kill each GPU of
  every catalog platform under three pinned corpus graphs and assert the
  repair guarantees hold;
* :func:`scenario_request_lines` — renders a scenario as JSONL ``remap``
  request lines for :func:`repro.service.serve_stream` replay.

Like every generator in :mod:`repro.synth`, scenarios are deterministic
functions of ``(platform, seed, length)`` via :class:`SynthRng` — the
same script on every machine, forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.gpu.delta import (
    DegradedTopology,
    PlatformDelta,
    apply_deltas,
    relative_gpu_map,
)
from repro.gpu.platforms import PLATFORM_NAMES, build_platform
from repro.mapping.portfolio import solve_portfolio
from repro.mapping.problem import build_mapping_problem
from repro.mapping.repair import solve_repair
from repro.synth.rng import SynthRng

#: scenario event vocabulary: platform events wrap a
#: :class:`~repro.gpu.delta.PlatformDelta`; workload events name a graph
EVENT_KINDS: Tuple[str, ...] = (
    "kill", "throttle", "slow", "restore", "arrive", "depart",
)

#: the workload every scenario starts with (a tiny pinned synth graph)
DEFAULT_WORKLOAD: Tuple[Tuple[str, int], ...] = (
    ("synth:pipeline;depth=4", 1),
)

__all__ = [
    "DEFAULT_WORKLOAD",
    "EVENT_KINDS",
    "RepairCheckReport",
    "Scenario",
    "ScenarioEvent",
    "ScenarioReport",
    "StepOutcome",
    "generate_scenario",
    "repair_check",
    "replay_scenario",
    "scenario_request_lines",
]

#: graphs the ``arrive`` event draws from (TINY_CORPUS as app names)
_ARRIVALS: Tuple[Tuple[str, int], ...] = (
    ("synth:splitjoin;nest=1;width=2", 1),
    ("synth:dag;layers=3;width=2", 1),
    ("synth:pipeline;depth=4", 2),
)

_THROTTLE_FACTORS = (0.5, 0.25)
_SLOW_FACTORS = (2.0, 4.0)


@dataclass(frozen=True)
class ScenarioEvent:
    """One step of a degradation script."""

    #: one of :data:`EVENT_KINDS`
    kind: str
    #: the platform delta (kill/throttle/slow/restore events)
    delta: Optional[PlatformDelta] = None
    #: arriving/departing app name (workload events)
    app: Optional[str] = None
    #: the app's seed argument (workload events)
    n: Optional[int] = None

    def describe(self) -> str:
        """A compact human-readable rendering of the event."""
        if self.delta is not None:
            d = self.delta
            if d.kind == "kill-gpu":
                return f"kill gpu{d.gpu}"
            if d.kind == "throttle-link":
                return f"throttle {d.link} x{d.factor}"
            if d.kind == "slow-gpu":
                return f"slow gpu{d.gpu} /{d.factor}"
            return "restore"
        return f"{self.kind} {self.app}@{self.n}"


@dataclass(frozen=True)
class Scenario:
    """A seeded degradation script over one named platform."""

    platform: str
    seed: int
    events: Tuple[ScenarioEvent, ...]
    #: graphs already deployed when the script starts
    workload: Tuple[Tuple[str, int], ...] = DEFAULT_WORKLOAD


def generate_scenario(
    platform: str, seed: int, length: int = 4
) -> Scenario:
    """Generate a legal degradation script, deterministic in its inputs.

    Every script is *simulatable by construction*: a kill always targets
    a currently-alive GPU and never the last one, ``slow`` only appears
    on platforms carrying per-leaf GPU specs, ``restore`` only after a
    platform delta, ``depart`` only when an earlier ``arrive`` left
    something to remove.

    >>> s = generate_scenario("two-island", seed=3)
    >>> s == generate_scenario("two-island", seed=3)
    True
    >>> len(s.events)
    4
    """
    base = build_platform(platform)
    rng = SynthRng(f"scenario|{platform}|{seed}|{length}")
    alive = set(range(base.num_gpus))
    edges = sorted(child for child, _parent in base.tree_edges())
    degraded = False  # any platform delta since the last restore
    arrivals: List[Tuple[str, int]] = []
    events: List[ScenarioEvent] = []
    for _step in range(length):
        feasible = ["throttle", "arrive"]
        if len(alive) > 1:
            feasible.append("kill")
        if base.gpu_specs is not None:
            feasible.append("slow")
        if degraded:
            feasible.append("restore")
        if arrivals:
            feasible.append("depart")
        kind = rng.choice(sorted(feasible))
        if kind == "kill":
            gpu = rng.choice(sorted(alive))
            alive.discard(gpu)
            degraded = True
            events.append(
                ScenarioEvent(kind="kill", delta=PlatformDelta.kill_gpu(gpu))
            )
        elif kind == "throttle":
            child = rng.choice(edges)
            factor = rng.choice(_THROTTLE_FACTORS)
            degraded = True
            events.append(
                ScenarioEvent(
                    kind="throttle",
                    delta=PlatformDelta.throttle_link(child, factor),
                )
            )
        elif kind == "slow":
            gpu = rng.choice(sorted(alive))
            factor = rng.choice(_SLOW_FACTORS)
            degraded = True
            events.append(
                ScenarioEvent(
                    kind="slow", delta=PlatformDelta.slow_gpu(gpu, factor)
                )
            )
        elif kind == "restore":
            alive = set(range(base.num_gpus))
            degraded = False
            events.append(
                ScenarioEvent(kind="restore", delta=PlatformDelta.restore())
            )
        elif kind == "arrive":
            app, n = rng.choice(_ARRIVALS)
            arrivals.append((app, n))
            events.append(ScenarioEvent(kind="arrive", app=app, n=n))
        else:  # depart
            app, n = arrivals.pop(rng.randint(0, len(arrivals) - 1))
            events.append(ScenarioEvent(kind="depart", app=app, n=n))
    return Scenario(platform=platform, seed=seed, events=tuple(events))


# ----------------------------------------------------------------------
# replay harness
# ----------------------------------------------------------------------
@dataclass
class StepOutcome:
    """Repair-vs-resolve numbers for one graph at one scenario step."""

    app: str
    n: int
    repaired_tmax: float
    resolved_tmax: float
    greedy_tmax: float
    migrated: int
    evicted: int
    fallback: bool

    @property
    def gap(self) -> float:
        """``repaired_tmax / resolved_tmax`` (1.0 = repair matched)."""
        if self.resolved_tmax <= 0:
            return 1.0
        return self.repaired_tmax / self.resolved_tmax


@dataclass
class ScenarioReport:
    """Replay result: per-step outcomes plus invariant violations."""

    platform: str
    seed: int
    steps: List[Tuple[str, List[StepOutcome]]] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    skips: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def worst_gap(self) -> float:
        gaps = [
            out.gap for _event, outs in self.steps for out in outs
        ]
        return max(gaps, default=1.0)

    def render(self) -> str:
        lines = [f"scenario {self.platform} seed={self.seed}:"]
        for event, outs in self.steps:
            summary = ", ".join(
                f"{out.app}@{out.n} gap={out.gap:.3f}"
                f"{' (fallback)' if out.fallback else ''}"
                for out in outs
            ) or "no active workload"
            lines.append(f"  {event}: {summary}")
        status = "ok" if self.ok else f"{len(self.violations)} VIOLATIONS"
        for violation in self.violations:
            lines.append(f"  VIOLATION: {violation}")
        lines.append(
            f"  {len(self.steps)} steps, worst gap {self.worst_gap:.3f}, "
            f"{status}"
        )
        return "\n".join(lines)


def _front_half(app: str, n: int, cache=None):
    """Profile/partition/PDG for one workload (platform-independent)."""
    from repro.apps import build_app
    from repro.flow import partition_stage, pdg_stage, profile_stage

    graph = build_app(app, n)
    engine = profile_stage(graph, cache=cache)
    partitions, partitioning = partition_stage(graph, engine, cache=cache)
    pdg = pdg_stage(graph, partitions, engine, partitioning=partitioning)
    return pdg


def _check_repair(
    report: ScenarioReport,
    label: str,
    problem,
    repair,
) -> None:
    """The three repair guarantees, asserted on one answer."""
    assignment = repair.mapping.assignment
    if len(assignment) != problem.num_partitions:
        report.violations.append(
            f"{label}: assignment length {len(assignment)} != "
            f"{problem.num_partitions}"
        )
        return
    bad = [g for g in assignment if not (0 <= g < problem.num_gpus)]
    if bad:
        report.violations.append(f"{label}: GPU ids out of range: {bad}")
        return
    rescored = problem.tmax(assignment)
    if repair.mapping.tmax != rescored:
        report.violations.append(
            f"{label}: reported tmax {repair.mapping.tmax!r} != "
            f"evaluator {rescored!r} (bit-exactness broken)"
        )
    if repair.mapping.tmax > repair.greedy_tmax:
        report.violations.append(
            f"{label}: repair {repair.mapping.tmax:.6g} worse than "
            f"greedy-from-scratch {repair.greedy_tmax:.6g}"
        )


def replay_scenario(
    scenario: Scenario,
    budget: str = "instant",
    cache=None,
) -> ScenarioReport:
    """Replay a degradation script, repairing at every platform step.

    Each platform event derives the cumulative degraded machine; every
    active graph is repaired from *its previous step's assignment*
    (carried across GPU renumbering with
    :func:`repro.gpu.delta.relative_gpu_map`) **and** re-solved from
    scratch with the portfolio under the same budget.  Validity,
    bit-exactness, and the greedy floor are asserted on every repair;
    the repair-vs-resolve gap is recorded per step.  Workload events
    (``arrive``/``depart``) solve the newcomer from scratch on the
    *current* degraded machine / drop the leaver — graphs map
    independently, so neighbors need no repair.

    >>> report = replay_scenario(generate_scenario("host-star", seed=1))
    >>> report.ok
    True
    """
    base = build_platform(scenario.platform)
    report = ScenarioReport(platform=scenario.platform, seed=scenario.seed)

    pdgs: Dict[Tuple[str, int], object] = {}

    def pdg_for(app: str, n: int):
        if (app, n) not in pdgs:
            pdgs[(app, n)] = _front_half(app, n, cache=cache)
        return pdgs[(app, n)]

    def solve_on(pdg, degraded: Optional[DegradedTopology]):
        topology = degraded.topology if degraded is not None else base
        problem = build_mapping_problem(
            pdg, topology.num_gpus, topology=topology
        )
        answer = solve_portfolio(
            problem, budget=budget, topo_order=pdg.topological_order()
        )
        return problem, answer.mapping

    # deploy the initial workload on the pristine machine
    assignments: Dict[Tuple[str, int], Tuple[int, ...]] = {}
    for app, n in scenario.workload:
        _problem, mapping = solve_on(pdg_for(app, n), None)
        assignments[(app, n)] = mapping.assignment

    deltas: List[PlatformDelta] = []
    prev: Optional[DegradedTopology] = None
    for event in scenario.events:
        outcomes: List[StepOutcome] = []
        if event.delta is not None:
            deltas.append(event.delta)
            cur = apply_deltas(base, deltas)
            gpu_map = (
                relative_gpu_map(prev, cur) if prev is not None
                else cur.gpu_map
            )
            for (app, n), old in sorted(assignments.items()):
                pdg = pdg_for(app, n)
                problem = build_mapping_problem(
                    pdg, cur.topology.num_gpus, topology=cur.topology
                )
                repair = solve_repair(
                    problem, old, gpu_map=gpu_map, budget=budget,
                    topo_order=pdg.topological_order(),
                )
                resolved = solve_portfolio(
                    problem, budget=budget,
                    topo_order=pdg.topological_order(),
                ).mapping
                label = f"{event.describe()} / {app}@{n}"
                _check_repair(report, label, problem, repair)
                assignments[(app, n)] = repair.mapping.assignment
                outcomes.append(
                    StepOutcome(
                        app=app, n=n,
                        repaired_tmax=repair.mapping.tmax,
                        resolved_tmax=resolved.tmax,
                        greedy_tmax=repair.greedy_tmax,
                        migrated=len(repair.migrated),
                        evicted=len(repair.evicted),
                        fallback=repair.fallback,
                    )
                )
            prev = cur
        elif event.kind == "arrive":
            key = (event.app, event.n)
            if key in assignments:
                report.skips.append(
                    f"{event.describe()}: already deployed, skipped"
                )
            else:
                _problem, mapping = solve_on(pdg_for(*key), prev)
                assignments[key] = mapping.assignment
        else:  # depart
            assignments.pop((event.app, event.n), None)
        report.steps.append((event.describe(), outcomes))
    return report


# ----------------------------------------------------------------------
# the make remap-check gate
# ----------------------------------------------------------------------
@dataclass
class RepairCheckReport:
    """Aggregated kill-GPU repair results across the platform catalog."""

    checks: int = 0
    fallbacks: int = 0
    violations: List[str] = field(default_factory=list)
    worst_gap: float = 1.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        status = (
            "ok" if self.ok else f"{len(self.violations)} VIOLATIONS"
        )
        lines = [
            f"remap-check: {self.checks} kill-GPU repairs across "
            f"{len(PLATFORM_NAMES)} platforms, "
            f"{self.fallbacks} fallbacks, "
            f"worst repair/greedy gap {self.worst_gap:.3f}, {status}"
        ]
        lines.extend(f"  VIOLATION: {v}" for v in self.violations)
        return "\n".join(lines)


def repair_check(
    budget: str = "instant", cache=None
) -> RepairCheckReport:
    """Kill every GPU of every catalog platform under pinned graphs.

    For each (platform, pinned graph, GPU) triple: solve the pristine
    baseline, kill the GPU, repair — then assert the repaired mapping is
    valid, bit-exact under the shared evaluator, and never worse than
    greedy-from-scratch.  This is the ``make remap-check`` gate.

    >>> report = repair_check()  # doctest: +SKIP
    >>> report.ok                # doctest: +SKIP
    True
    """
    report = RepairCheckReport()
    pdgs = {
        (app, n): _front_half(app, n, cache=cache)
        for app, n in DEFAULT_WORKLOAD + _ARRIVALS[:2]
    }
    for platform in PLATFORM_NAMES:
        base = build_platform(platform)
        for (app, n), pdg in sorted(pdgs.items()):
            base_problem = build_mapping_problem(
                pdg, base.num_gpus, topology=base
            )
            baseline = solve_portfolio(
                base_problem, budget=budget,
                topo_order=pdg.topological_order(),
            ).mapping
            for gpu in range(base.num_gpus):
                hit = apply_deltas(base, [PlatformDelta.kill_gpu(gpu)])
                problem = build_mapping_problem(
                    pdg, hit.topology.num_gpus, topology=hit.topology
                )
                repair = solve_repair(
                    problem, baseline.assignment, gpu_map=hit.gpu_map,
                    budget=budget, topo_order=pdg.topological_order(),
                )
                label = f"{platform} kill gpu{gpu} / {app}@{n}"
                scratch = ScenarioReport(platform=platform, seed=0)
                _check_repair(scratch, label, problem, repair)
                report.violations.extend(scratch.violations)
                report.checks += 1
                if repair.fallback:
                    report.fallbacks += 1
                if repair.greedy_tmax > 0:
                    report.worst_gap = max(
                        report.worst_gap,
                        repair.mapping.tmax / repair.greedy_tmax,
                    )
    return report


# ----------------------------------------------------------------------
# serve_stream replay
# ----------------------------------------------------------------------
def scenario_request_lines(
    scenario: Scenario, budget: str = "instant"
) -> List[str]:
    """Render a scenario as JSONL request lines for ``serve_stream``.

    Platform events become ``remap`` lines carrying the *cumulative*
    delta list for the scenario's primary workload (the service seeds
    each repair from the pristine baseline it solves — the stream
    protocol is stateless, so no old assignment rides along); ``arrive``
    events become plain solve lines for the newcomer on the pristine
    platform; ``depart`` events emit nothing.

    >>> lines = scenario_request_lines(generate_scenario("host-star", 1))
    >>> all(line.startswith("{") for line in lines)
    True
    """
    import json

    app, n = scenario.workload[0]
    deltas: List[PlatformDelta] = []
    lines: List[str] = []
    for event in scenario.events:
        if event.delta is not None:
            deltas.append(event.delta)
            payload = {
                "remap": {
                    "app": app,
                    "n": n,
                    "platform": scenario.platform,
                    "budget": budget,
                    "deltas": [d.to_json() for d in deltas],
                }
            }
            lines.append(json.dumps(payload, sort_keys=True))
        elif event.kind == "arrive":
            lines.append(json.dumps({
                "app": event.app, "n": event.n,
                "platform": scenario.platform, "budget": budget,
            }, sort_keys=True))
    return lines
