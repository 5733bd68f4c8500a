"""Differential solver-correctness harness.

Hand-picked benchmarks hide solver pathologies; generated corpora expose
them — but only if there is an oracle.  Lacking ground truth, we use the
solvers against each other: greedy (LPT and round-robin), the MILP
backend, and the from-scratch branch-and-bound all solve the *same*
:class:`~repro.mapping.problem.MappingProblem` built from one generated
instance, and the harness checks cross-solver invariants that must hold
if each solver is correct:

* every solver returns a *valid* assignment (one GPU per partition, all
  GPUs in range) whose reported ``tmax`` matches the shared evaluator;
* the partitions are a true partition of the graph's nodes (disjoint
  cover) and the graph itself passes structural validation;
* an *optimal* solve is never beaten: ``tmax(MILP) <= tmax(greedy)``
  and ``tmax(B&B) <= tmax(any heuristic)`` (within the MILP gap);
* two independent optimal solvers agree: ``tmax(MILP) == tmax(B&B)``
  within the configured relative gap.

Comparisons against a solver that did *not* prove optimality (MILP hit
its work limit, B&B exhausted its node budget) are recorded as
*skips*, not violations — a limit hit is not a wrong answer.  Since the
:class:`~repro.mapping.SolveBudget` refactor the MILP runs under a
deterministic node cap by default; wall-clock limits
(``milp_time_limit_s``) are an explicit opt-in for callers that need
bounded latency more than reproducibility (the wide slow-corpus sweeps
pass one).

>>> from repro.synth.families import generate
>>> report = diffcheck_graph(generate("splitjoin", 7))
>>> report.ok, report.violations
(True, [])
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.flow import partition_stage, pdg_stage, profile_stage
from repro.gpu.platforms import build_platform
from repro.gpu.specs import GpuSpec, M2090
from repro.gpu.topology import GpuTopology
from repro.graph.stream_graph import StreamGraph
from repro.graph.validate import collect_problems
from repro.mapping.budget import SolveBudget
from repro.mapping.greedy import lpt_mapping, round_robin_mapping
from repro.mapping.problem import MappingProblem, build_mapping_problem
from repro.mapping.result import MappingResult
from repro.mapping.solver_bb import solve_branch_and_bound
from repro.mapping.milp_model import MODEL_CACHE
from repro.mapping.solver_milp import solve_milp
from repro.synth.corpus import PINNED_CORPUS, generate_corpus
from repro.synth.families import SynthGraph

#: relative slack for float comparisons between solver objectives
REL_TOL = 1e-6

#: heuristic solvers: never assumed optimal, always assumed valid
_HEURISTICS = ("greedy-lpt", "round-robin")


@dataclass
class SolverOutcome:
    """One solver's answer on one instance."""

    solver: str
    tmax: float
    optimal: bool
    assignment: Tuple[int, ...]


@dataclass
class InstanceReport:
    """Differential-check result for one generated instance."""

    label: str
    num_partitions: int
    num_gpus: int
    outcomes: Dict[str, SolverOutcome] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    skips: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        """One human-readable line per instance."""
        status = "ok" if self.ok else f"{len(self.violations)} VIOLATIONS"
        skip = f" ({len(self.skips)} skipped)" if self.skips else ""
        return (
            f"{self.label}: P={self.num_partitions} g={self.num_gpus} "
            f"{status}{skip}"
        )


@dataclass
class CorpusReport:
    """Aggregated differential-check results."""

    instances: List[InstanceReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(inst.ok for inst in self.instances)

    @property
    def violations(self) -> List[str]:
        return [
            f"{inst.label}: {violation}"
            for inst in self.instances
            for violation in inst.violations
        ]

    @property
    def skips(self) -> List[str]:
        return [
            f"{inst.label}: {skip}"
            for inst in self.instances
            for skip in inst.skips
        ]

    def render(self) -> str:
        lines = [inst.render() for inst in self.instances]
        lines.append(
            f"{len(self.instances)} instances, "
            f"{len(self.violations)} violations, {len(self.skips)} skips"
        )
        return "\n".join(lines)


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def _check_outcome(
    report: InstanceReport,
    problem: MappingProblem,
    result: MappingResult,
) -> None:
    """Validity invariants every solver must satisfy."""
    name = result.solver
    assignment = result.assignment
    if len(assignment) != problem.num_partitions:
        report.violations.append(
            f"{name}: assignment length {len(assignment)} != "
            f"{problem.num_partitions} partitions"
        )
        return
    bad = [g for g in assignment if not (0 <= g < problem.num_gpus)]
    if bad:
        report.violations.append(f"{name}: GPU ids out of range: {bad}")
        return
    rescored = problem.tmax(assignment)
    if not _rel_close(result.tmax, rescored, REL_TOL):
        report.violations.append(
            f"{name}: reported tmax {result.tmax:.6g} != evaluator "
            f"{rescored:.6g}"
        )
    report.outcomes[name] = SolverOutcome(
        solver=name,
        tmax=result.tmax,
        optimal=result.optimal,
        assignment=assignment,
    )


def _check_partitions(
    report: InstanceReport,
    graph: StreamGraph,
    partitions: Sequence[frozenset],
) -> None:
    """The partition list must cover every node exactly once."""
    seen: Dict[int, int] = {}
    for pid, members in enumerate(partitions):
        if not members:
            report.violations.append(f"partition {pid} is empty")
        for nid in members:
            if nid in seen:
                report.violations.append(
                    f"node {nid} in partitions {seen[nid]} and {pid}"
                )
            seen[nid] = pid
    missing = set(range(len(graph.nodes))) - set(seen)
    if missing:
        report.violations.append(
            f"nodes not covered by any partition: {sorted(missing)}"
        )


def _milp_timed_out(result: MappingResult) -> bool:
    """Whether a MILP result is a limit artifact rather than a proof.

    HiGHS status 0 means proven optimal; any other status with a
    feasible incumbent (time limit, iteration limit) yields a usable but
    unproven assignment, which must not be held to optimality
    invariants.
    """
    return not result.optimal


def diffcheck_problem(
    problem: MappingProblem,
    label: str,
    num_partitions: int,
    milp_time_limit_s: Optional[float] = None,
    mip_rel_gap: float = 0.0,
    bb_max_nodes: int = 2_000_000,
    report: Optional[InstanceReport] = None,
) -> InstanceReport:
    """Run all solvers on one mapping problem and cross-check them.

    ``bb_max_nodes`` bounds the branch-and-bound search; an exhausted
    budget downgrades B&B to a heuristic (skip, not violation), exactly
    like a MILP time-limit hit.

    >>> from repro.gpu.topology import default_topology
    >>> problem = MappingProblem(
    ...     times=[4.0, 3.0, 2.0], edges={(0, 1): 64.0, (1, 2): 64.0},
    ...     host_io=[(64.0, 0.0), (0.0, 0.0), (0.0, 64.0)],
    ...     topology=default_topology(2),
    ... )
    >>> diffcheck_problem(problem, "tiny", 3).ok
    True
    """
    if report is None:
        report = InstanceReport(
            label=label,
            num_partitions=num_partitions,
            num_gpus=problem.num_gpus,
        )
    greedy = lpt_mapping(problem)
    rr = round_robin_mapping(problem)
    bb = solve_branch_and_bound(problem, max_nodes=bb_max_nodes)
    _check_outcome(report, problem, greedy)
    _check_outcome(report, problem, rr)
    _check_outcome(report, problem, bb)
    try:
        # the differential check wants *proofs*, so the MILP runs under
        # the ample tier's large deterministic node cap (the default
        # tier trades proofs on search-heavy instances for latency),
        # with the caller's gap and opt-in wall clock
        # the shared compiled-model cache pays off here too: the check
        # solves every corpus instance on the same platform, so the
        # per-signature model assembly is amortized across instances
        # that share a shape
        budget = replace(
            SolveBudget.tier("ample"), mip_rel_gap=mip_rel_gap,
            time_limit_s=milp_time_limit_s,
        )
        milp = solve_milp(problem, budget=budget, model_cache=MODEL_CACHE)
    except RuntimeError as exc:  # solver found nothing inside the limit
        report.skips.append(f"milp: no solution within limit ({exc})")
        milp = None
    if milp is not None:
        _check_outcome(report, problem, milp)

    heuristic_best = min(
        (
            report.outcomes[name].tmax
            for name in _HEURISTICS
            if name in report.outcomes
        ),
        default=None,
    )
    slack = max(mip_rel_gap, REL_TOL)

    milp_out = report.outcomes.get("milp")
    if milp_out is not None and _milp_timed_out(milp):
        report.skips.append(
            "milp: hit its limit without proving optimality; "
            "optimality comparisons skipped"
        )
        milp_out = None
    bb_out = report.outcomes.get("branch-and-bound")
    if bb_out is not None and not bb_out.optimal:
        report.skips.append(
            "branch-and-bound: node budget exhausted; "
            "optimality comparisons skipped"
        )
        bb_out = None

    for name, out in (("milp", milp_out), ("branch-and-bound", bb_out)):
        if out is None or heuristic_best is None:
            continue
        if out.tmax > heuristic_best * (1.0 + slack):
            report.violations.append(
                f"{name} claims optimality but a heuristic beats it: "
                f"{out.tmax:.6g} > {heuristic_best:.6g}"
            )
    if milp_out is not None and bb_out is not None:
        if not _rel_close(milp_out.tmax, bb_out.tmax, slack):
            report.violations.append(
                "optimal solvers disagree: "
                f"milp {milp_out.tmax:.6g} vs b&b {bb_out.tmax:.6g}"
            )
    return report


def diffcheck_graph(
    instance: SynthGraph,
    num_gpus: int = 2,
    spec: GpuSpec = M2090,
    partitioner: str = "ours",
    peer_to_peer: bool = True,
    milp_time_limit_s: Optional[float] = None,
    mip_rel_gap: float = 0.0,
    bb_max_nodes: int = 2_000_000,
    cache=None,
    platform: Optional[str] = None,
    topology: Optional[GpuTopology] = None,
) -> InstanceReport:
    """Differential check of one generated instance, end to end.

    Runs the front half of the Figure 3.1 flow (profile, partition,
    PDG), builds the mapping problem, and cross-checks every solver.
    A :class:`~repro.sweep.StageCache` may be passed to reuse
    profile/partition results across repeated corpus runs.

    ``platform`` (or an explicit ``topology``) targets a named machine
    from :mod:`repro.gpu.platforms` instead of the uniform reference
    tree — the heterogeneous per-link specs then flow into every solver
    under check, and ``num_gpus`` is taken from the machine.

    >>> from repro.synth.families import generate
    >>> diffcheck_graph(generate("pipeline", 1)).ok
    True
    >>> diffcheck_graph(generate("pipeline", 1), platform="two-island").ok
    True
    """
    if platform is not None:
        if topology is not None:
            raise ValueError("pass either platform or topology, not both")
        topology = build_platform(platform)
    if topology is not None:
        num_gpus = topology.num_gpus
    graph = instance.graph
    label = instance.spec.instance_name
    if platform is not None:
        label = f"{label}@{platform}"
    report = InstanceReport(
        label=label,
        num_partitions=0,
        num_gpus=num_gpus,
    )
    problems = collect_problems(graph)
    if problems:
        report.violations.extend(f"graph invalid: {p}" for p in problems)
        return report
    fp = instance.fingerprint
    engine = profile_stage(graph, spec=spec, cache=cache, graph_fp=fp)
    partitions, partitioning = partition_stage(
        graph, engine, partitioner=partitioner, spec=spec,
        cache=cache, graph_fp=fp,
    )
    report.num_partitions = len(partitions)
    _check_partitions(report, graph, partitions)
    if report.violations:
        return report
    pdg = pdg_stage(graph, partitions, engine, partitioning=partitioning)
    problem = build_mapping_problem(
        pdg, num_gpus, topology=topology, peer_to_peer=peer_to_peer
    )
    return diffcheck_problem(
        problem,
        label=label,
        num_partitions=len(partitions),
        milp_time_limit_s=milp_time_limit_s,
        mip_rel_gap=mip_rel_gap,
        bb_max_nodes=bb_max_nodes,
        report=report,
    )


def diffcheck_corpus(
    entries=None,
    num_gpus: int = 2,
    spec: GpuSpec = M2090,
    milp_time_limit_s: Optional[float] = None,
    mip_rel_gap: float = 0.0,
    cache=None,
    progress: Optional[Callable[[str], None]] = None,
    platform: Optional[str] = None,
) -> CorpusReport:
    """Differential check of a whole corpus (default: the pinned 30).

    ``platform`` runs every instance against a named machine from
    :mod:`repro.gpu.platforms` instead of the uniform reference tree.
    A shared :class:`~repro.sweep.StageCache` pays off across platforms:
    profile/partition results are machine-independent, so only the
    mapping work repeats.

    >>> from repro.synth.corpus import TINY_CORPUS
    >>> diffcheck_corpus(TINY_CORPUS).ok
    True
    >>> diffcheck_corpus(TINY_CORPUS, platform="host-star").ok
    True
    """
    if entries is None:
        entries = PINNED_CORPUS
    corpus = generate_corpus(entries)
    report = CorpusReport()
    for instance in corpus:
        inst_report = diffcheck_graph(
            instance,
            num_gpus=num_gpus,
            spec=spec,
            milp_time_limit_s=milp_time_limit_s,
            mip_rel_gap=mip_rel_gap,
            cache=cache,
            platform=platform,
        )
        report.instances.append(inst_report)
        if progress is not None:
            progress(inst_report.render())
    return report
