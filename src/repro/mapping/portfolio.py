"""Anytime solver portfolio: greedy -> refine -> branch-and-bound -> MILP.

The mapping service must answer every request with a *valid* mapping no
matter how little budget the caller grants, and must never answer worse
for a *larger* budget.  The portfolio delivers both by escalating
through the solver ladder under a :class:`~repro.mapping.SolveBudget`:

1. **greedy** — LPT, round-robin, and contiguous-blocks heuristics
   (:func:`~repro.mapping.greedy.greedy_seeds`): microseconds, always
   feasible;
2. **refine** — a local-search polish of the greedy winner, capped at
   ``budget.refine_steps`` steps;
3. **branch-and-bound** — the from-scratch exact solver, seeded with the
   best incumbent so far and capped at ``budget.bb_node_limit`` nodes;
4. **MILP** — the HiGHS backend under ``budget.milp_node_limit``.

Every stage runs on the *same* :class:`~repro.mapping.MappingProblem`
and the best-so-far assignment is tracked across stages, so the answer
is the minimum over everything computed — a later stage can only improve
it.  One compiled :class:`~repro.mapping.kernel.EvalKernel` is built per
solve and shared by every stage: greedy seeds are ranked in a single
kernel batch, the refine stage scores moves through the delta evaluator,
and the branch-and-bound stage searches on the kernel's route tables —
the interpreted evaluator is never touched on the hot path (kernel
scores are bit-identical to it, so answers are unchanged).  Budget
tiers form strict supersets of work (see :mod:`repro.mapping.budget`),
which gives the *anytime monotonicity* guarantee the service tests pin:
``tmax(tier k) >= tmax(tier k+1)``.

The repair path (:mod:`repro.mapping.repair`) is built from the same
rungs: its quality floor is these greedy seeds, its polish is refine's
move loop, and its fallback is this portfolio.

``deadline_s`` adds an opt-in wall-clock stop checked *between* stages:
the portfolio never abandons a stage midway, it just stops escalating.
Deadline-truncated answers are still valid and still best-so-far, but
which stages ran then depends on machine speed — deterministic callers
leave ``deadline_s`` unset.

>>> from repro.gpu.topology import default_topology
>>> from repro.mapping.problem import MappingProblem
>>> problem = MappingProblem(
...     times=[400e3, 300e3, 200e3, 100e3],
...     edges={(0, 1): 64.0, (1, 2): 64.0},
...     host_io=[(64.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 64.0)],
...     topology=default_topology(2),
... )
>>> answer = solve_portfolio(problem, budget="ample")
>>> answer.status, answer.mapping.tmax <= solve_portfolio(
...     problem, budget="instant").mapping.tmax
('optimal', True)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.mapping.budget import SolveBudget
from repro.mapping.greedy import greedy_seeds
from repro.mapping.kernel import EvalKernel
from repro.mapping.problem import MappingProblem
from repro.mapping.refine import refine_mapping
from repro.mapping.result import MappingResult, make_result
from repro.mapping.solver_bb import solve_branch_and_bound
from repro.mapping.solver_milp import MilpNoIncumbent, solve_milp

@dataclass(frozen=True)
class StageOutcome:
    """One portfolio stage's contribution."""

    stage: str  #: "greedy", "refine", "branch-and-bound", or "milp"
    solver: str  #: the winning backend's name for this stage
    tmax: float  #: the stage's own best objective (inf if it failed)
    optimal: bool  #: whether this stage *proved* optimality
    ran: bool  #: False when the stage was skipped
    note: str = ""  #: why skipped / how it ended


@dataclass(frozen=True)
class PortfolioResult:
    """The portfolio's answer: best-so-far mapping plus its provenance."""

    #: the best valid mapping found; ``solver`` is ``portfolio[<stage>]``
    mapping: MappingResult
    #: ``"optimal"`` when a proving stage certified the answer (modulo
    #: the budget's MIP gap), else ``"feasible"``
    status: str
    #: name of the budget tier the solve ran under
    budget: str
    #: every stage in escalation order, including skipped ones
    stages: Tuple[StageOutcome, ...]
    #: wall-clock seconds the whole portfolio spent
    wall_s: float

    @property
    def winner(self) -> str:
        """The stage that produced the returned mapping."""
        return self.mapping.solver.split("[", 1)[1].rstrip("]")

    def stage(self, name: str) -> StageOutcome:
        """The outcome of stage ``name`` (KeyError if unknown)."""
        for outcome in self.stages:
            if outcome.stage == name:
                return outcome
        raise KeyError(name)


def solve_portfolio(
    problem: MappingProblem,
    budget: Union[SolveBudget, str, None] = None,
    topo_order: Optional[Sequence[int]] = None,
    deadline_s: Optional[float] = None,
) -> PortfolioResult:
    """Solve ``problem`` anytime-style under ``budget`` (see module doc).

    ``budget`` is a :class:`~repro.mapping.SolveBudget` or a tier name;
    omitted, the deterministic default tier.  ``topo_order`` feeds the
    contiguous-blocks heuristic a topological order of the partitions
    (the flow passes the PDG's); omitted, index order is used.
    ``deadline_s`` is a *relative* wall-clock allowance for the whole
    portfolio, checked between stages.

    >>> from repro.gpu.topology import default_topology
    >>> from repro.mapping.problem import MappingProblem
    >>> p = MappingProblem(times=[5.0, 4.0], edges={}, host_io=[(0, 0)] * 2,
    ...                    topology=default_topology(2))
    >>> solve_portfolio(p, budget="instant").mapping.assignment in ((0, 1), (1, 0))
    True
    """
    if budget is None:
        budget = SolveBudget.default()
    elif isinstance(budget, str):
        budget = SolveBudget.tier(budget)
    start = time.perf_counter()
    deadline = start + deadline_s if deadline_s is not None else None
    kernel = EvalKernel(problem)  # compiled once, shared by every stage

    stages: List[StageOutcome] = []
    best: Optional[MappingResult] = None
    best_stage = ""
    # the smallest tmax any stage *certified* (proved optimal, modulo
    # that stage's mip_rel_gap).  The portfolio's answer is only
    # "optimal" when the returned best equals a certified tmax: a
    # budget-capped stage can hold an incumbent strictly better than a
    # gap-optimal MILP answer, and stamping `optimal=True` on that
    # incumbent would claim a proof nothing produced.
    proven_tmax: Optional[float] = None

    def consider(result: MappingResult, stage: str) -> None:
        nonlocal best, best_stage, proven_tmax
        if best is None or result.tmax < best.tmax:
            best = result
            best_stage = stage
        if result.optimal:
            proven_tmax = (
                result.tmax
                if proven_tmax is None
                else min(proven_tmax, result.tmax)
            )

    def certified() -> bool:
        return proven_tmax is not None and best.tmax == proven_tmax

    def expired() -> bool:
        return deadline is not None and time.perf_counter() > deadline

    # -- stage 1: greedy heuristics (always run; instant) ---------------
    # seeds are built unscored and ranked in one kernel batch; only the
    # winner is materialized into a MappingResult (kernel-scored too)
    seeds = greedy_seeds(problem, topo_order)
    scores = kernel.batch_tmax(assignment for _name, assignment in seeds)
    winner = min(range(len(seeds)), key=scores.__getitem__)
    stage_best = make_result(
        problem, seeds[winner][1], seeds[winner][0], optimal=False,
        kernel=kernel,
    )
    consider(stage_best, "greedy")
    stages.append(
        StageOutcome(
            stage="greedy", solver=stage_best.solver, tmax=stage_best.tmax,
            optimal=False, ran=True,
        )
    )

    # -- stage 2: local-search polish ------------------------------------
    if budget.refine_steps > 0 and not expired():
        refined = refine_mapping(
            problem, best.assignment, max_steps=budget.refine_steps,
            use_swaps=False, kernel=kernel,
        )
        consider(refined, "refine")
        stages.append(
            StageOutcome(
                stage="refine", solver="refined", tmax=refined.tmax,
                optimal=False, ran=True,
            )
        )
    else:
        stages.append(
            StageOutcome(
                stage="refine", solver="refined", tmax=float("inf"),
                optimal=False, ran=False,
                note="skipped: no steps budgeted" if budget.refine_steps <= 0
                else "skipped: deadline",
            )
        )

    # -- stage 3: branch-and-bound incumbent improvement -----------------
    if budget.use_bb and not expired():
        bb = solve_branch_and_bound(
            problem, budget=budget, incumbent=best.assignment, kernel=kernel
        )
        consider(bb, "branch-and-bound")
        stages.append(
            StageOutcome(
                stage="branch-and-bound", solver=bb.solver, tmax=bb.tmax,
                optimal=bb.optimal, ran=True,
                note="" if bb.optimal else "node budget exhausted",
            )
        )
    else:
        stages.append(
            StageOutcome(
                stage="branch-and-bound", solver="branch-and-bound",
                tmax=float("inf"), optimal=False, ran=False,
                note="skipped: budget" if not budget.use_bb
                else "skipped: deadline",
            )
        )

    # -- stage 4: MILP ----------------------------------------------------
    if budget.use_milp and not certified() and not expired():
        try:
            # warm-start HiGHS from the best incumbent so far (a MIP
            # start), instead of letting it rediscover the mapping the
            # earlier stages already paid for
            milp = solve_milp(
                problem, budget=budget, incumbent=list(best.assignment)
            )
        except MilpNoIncumbent as exc:
            stages.append(
                StageOutcome(
                    stage="milp", solver="milp", tmax=float("inf"),
                    optimal=False, ran=True, note=f"no incumbent: {exc}",
                )
            )
        else:
            consider(milp, "milp")
            stages.append(
                StageOutcome(
                    stage="milp", solver="milp", tmax=milp.tmax,
                    optimal=milp.optimal, ran=True,
                    note="" if milp.optimal else "work limit hit",
                )
            )
    else:
        note = (
            "skipped: budget" if not budget.use_milp
            else "skipped: already proven optimal" if certified()
            else "skipped: deadline"
        )
        stages.append(
            StageOutcome(
                stage="milp", solver="milp", tmax=float("inf"),
                optimal=False, ran=False, note=note,
            )
        )

    # `optimal` only when a proving stage certified *this* tmax.  Note
    # the mip_rel_gap caveat: an "optimal" MILP stage certifies its
    # answer modulo the budget's relative gap (nonzero in every tier but
    # "ample"), so portfolio-level "optimal" inherits that tolerance.
    proven = certified()
    mapping = make_result(
        problem,
        list(best.assignment),
        f"portfolio[{best_stage}]",
        optimal=proven,
        stats=best.solve_stats,
        kernel=kernel,
    )
    return PortfolioResult(
        mapping=mapping,
        status="optimal" if proven else "feasible",
        budget=budget.name,
        stages=tuple(stages),
        wall_s=time.perf_counter() - start,
    )
