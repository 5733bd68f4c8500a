"""Incremental mapping repair after a platform delta.

A serving system holding a deployed mapping should not pay a from-scratch
portfolio solve — nor migrate every actor — each time the machine
degrades.  :func:`solve_repair` takes the *old* assignment (translated
through the delta's GPU renumbering), keeps the survivors home, LPT-fills
the actors stranded on dead GPUs, and runs refine's move loop
(:func:`repro.mapping.refine.first_improving_move`) from that seed on
the composite repair objective

    ``J = tmax + alpha * migration_bytes``

where ``migration_bytes`` prices moving a partition off its old home by
its resident state (host I/O plus incident edge buffers, the data that
would be copied between devices during a live re-deploy).  At the
default :data:`REPAIR_ALPHA` the migration term is a tie-break — among
equal-``tmax`` repairs the search keeps actors home — while a larger
``alpha`` buys stability at the price of throughput.

Guarantees, pinned by ``tests/test_repair.py``:

* **bit-exactness** — every move is scored through the compiled
  :class:`~repro.mapping.kernel.DeltaEvaluator` and the returned mapping
  is rescored through the kernel, so ``result.mapping.tmax`` equals
  ``MappingProblem.tmax`` on the degraded platform bit for bit;
* **determinism** — no randomness, no wall clock: back-to-back calls
  are bit-identical;
* **never worse than greedy-from-scratch** — the greedy floor
  (:func:`~repro.mapping.greedy.greedy_seeds`, the portfolio's stage-1
  seeds) is always computed; when the repaired ``tmax`` exceeds it, or
  the delta evicted more than half the actors, the call falls back to a
  full :func:`~repro.mapping.portfolio.solve_portfolio` solve under the
  same budget (which starts from those very seeds, so the floor holds
  on every path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.mapping.budget import SolveBudget
from repro.mapping.greedy import greedy_seeds, lpt_fill
from repro.mapping.kernel import DeltaEvaluator, EvalKernel
from repro.mapping.portfolio import solve_portfolio
from repro.mapping.problem import MappingProblem
from repro.mapping.refine import first_improving_move, heaviest_first
from repro.mapping.result import MappingResult, make_result

#: default migration price, in objective-ns per byte moved.  Fragment
#: times sit in the 1e3..1e6 ns range and per-partition state in the
#: 1e1..1e4 byte range, so 1e-3 keeps the migration term orders of
#: magnitude below tmax: a pure tie-break that never trades throughput
#: for stability unless the caller raises it.
REPAIR_ALPHA: float = 1e-3

#: evicted fraction above which repair is pointless: with more than half
#: the actors stranded there is no meaningful incumbent to preserve, so
#: the solver goes straight to the from-scratch portfolio.
DESTRUCTIVE_EVICTION_FRACTION: float = 0.5

__all__ = [
    "DESTRUCTIVE_EVICTION_FRACTION",
    "REPAIR_ALPHA",
    "RepairResult",
    "migration_cost_bytes",
    "solve_repair",
    "translate_assignment",
]


@dataclass(frozen=True)
class RepairResult:
    """A repaired mapping plus its migration provenance."""

    #: the repaired (kernel-rescored) mapping; ``solver`` is
    #: ``repair[...]``, or the portfolio's own tag on the fallback path
    mapping: MappingResult
    #: name of the budget tier the repair ran under
    budget: str
    #: the migration price the composite objective used
    alpha: float
    #: partitions whose GPU changed vs. the (translated) old assignment,
    #: including every evicted partition
    migrated: Tuple[int, ...]
    #: partitions whose old GPU died (subset of ``migrated``)
    evicted: Tuple[int, ...]
    #: total bytes the migrated partitions carry
    migration_bytes: float
    #: the composite objective ``tmax + alpha * migration_bytes``
    objective: float
    #: True when repair quality was poor (or the delta too destructive)
    #: and the answer came from a from-scratch portfolio solve
    fallback: bool
    #: tmax of the repair seed (translated old assignment with evictions
    #: greedily re-placed); inf when the delta was too destructive to seed
    seed_tmax: float
    #: tmax of the best greedy-from-scratch assignment (the quality floor)
    greedy_tmax: float
    #: local-search moves the repair pass applied
    moves: int


def migration_cost_bytes(problem: MappingProblem, pid: int) -> float:
    """Bytes of resident state moving partition ``pid`` would copy.

    Counts the partition's host I/O buffers, both directions of every
    incident PDG edge, and its share of broadcast groups (the source
    counts the payload once; each destination counts its delivered
    copy).  Deterministic and independent of the assignment — the
    repair objective prices *whether* a partition moves, not where to.

    >>> from repro.gpu.topology import default_topology
    >>> p = MappingProblem(times=[1.0, 1.0], edges={(0, 1): 64.0},
    ...                    host_io=[(32.0, 0.0), (0.0, 16.0)],
    ...                    topology=default_topology(2))
    >>> migration_cost_bytes(p, 0), migration_cost_bytes(p, 1)
    (96.0, 80.0)
    """
    if not 0 <= pid < problem.num_partitions:
        raise ValueError(f"partition {pid} out of range")
    inp, out = problem.host_io[pid]
    total = float(inp) + float(out)
    for (i, j), nbytes in problem.edges.items():
        if pid in (i, j):
            total += nbytes
    for group in problem.broadcasts:
        if group.src == pid:
            total += group.nbytes
        total += group.nbytes * group.destinations.count(pid)
    return total


def translate_assignment(
    old_assignment: Sequence[int],
    gpu_map: Optional[Sequence[Optional[int]]],
) -> List[Optional[int]]:
    """Carry an assignment across a GPU renumbering.

    ``gpu_map[g]`` is the degraded platform's id of old GPU ``g`` or
    ``None`` when it died (see
    :class:`~repro.gpu.delta.DegradedTopology`); a ``None`` map is the
    identity.  Entries become ``None`` — *evicted* — when their old GPU
    is dead or out of the map's range.

    >>> translate_assignment([0, 1, 2, 1], (0, None, 1))
    [0, None, 1, None]
    >>> translate_assignment([0, 1], None)
    [0, 1]
    """
    if gpu_map is None:
        return [int(g) for g in old_assignment]
    out: List[Optional[int]] = []
    for gpu in old_assignment:
        if 0 <= gpu < len(gpu_map):
            out.append(gpu_map[gpu])
        else:
            out.append(None)
    return out


def solve_repair(
    problem: MappingProblem,
    old_assignment: Sequence[int],
    gpu_map: Optional[Sequence[Optional[int]]] = None,
    alpha: float = REPAIR_ALPHA,
    budget: Union[SolveBudget, str, None] = None,
    topo_order: Optional[Sequence[int]] = None,
) -> RepairResult:
    """Repair ``old_assignment`` for the (degraded) ``problem``.

    ``problem`` is the mapping problem built against the *degraded*
    topology; ``old_assignment`` is the deployed assignment in the *old*
    platform's GPU ids and ``gpu_map`` the old->new translation (``None``
    = identity, for pure throttle/slow deltas).  ``budget`` is a
    :class:`~repro.mapping.SolveBudget` or tier name exactly as for the
    portfolio; its ``refine_steps`` caps the local-search moves.

    >>> from repro.gpu.topology import default_topology
    >>> p = MappingProblem(times=[4.0, 3.0, 2.0, 1.0], edges={},
    ...                    host_io=[(0.0, 0.0)] * 4,
    ...                    topology=default_topology(2))
    >>> fixed = solve_repair(p, [0, 1, 0, 1], gpu_map=(0, None, 1))
    >>> fixed.evicted, fixed.mapping.tmax == p.tmax(fixed.mapping.assignment)
    ((1, 3), True)
    """
    if budget is None:
        budget = SolveBudget.default()
    elif isinstance(budget, str):
        budget = SolveBudget.tier(budget)
    if len(old_assignment) != problem.num_partitions:
        raise ValueError("old assignment length mismatch")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")

    translated = translate_assignment(old_assignment, gpu_map)
    evicted = tuple(
        pid for pid, gpu in enumerate(translated) if gpu is None
    )
    kernel = EvalKernel(problem)
    cost = [migration_cost_bytes(problem, pid) for pid in range(problem.num_partitions)]

    # the greedy-from-scratch floor: the portfolio's own stage-1 seeds,
    # ranked in one kernel batch.  Computed unconditionally — it is both
    # the quality gate and the recorded baseline.
    greedy_tmax = min(kernel.batch_tmax(
        assignment for _name, assignment in greedy_seeds(problem, topo_order)
    ))

    destructive = (
        problem.num_partitions > 0
        and len(evicted) / problem.num_partitions > DESTRUCTIVE_EVICTION_FRACTION
    )
    mapping, seed_tmax, moves = None, float("inf"), 0
    if not destructive:
        mapping, seed_tmax, moves = _repair_in_place(
            problem, kernel, translated, cost, alpha, budget.refine_steps
        )
    # too destructive to seed from, or beaten by greedy: solve from
    # scratch (the portfolio starts from those very seeds)
    fallback = mapping is None or mapping.tmax > greedy_tmax
    if fallback:
        mapping = solve_portfolio(
            problem, budget=budget, topo_order=topo_order
        ).mapping
        moves = 0
    migrated = tuple(
        pid for pid in range(problem.num_partitions)
        if translated[pid] != mapping.assignment[pid]
    )
    migration_bytes = sum(cost[pid] for pid in migrated)
    return RepairResult(
        mapping=mapping,
        budget=budget.name,
        alpha=alpha,
        migrated=migrated,
        evicted=evicted,
        migration_bytes=migration_bytes,
        objective=mapping.tmax + alpha * migration_bytes,
        fallback=fallback,
        seed_tmax=seed_tmax,
        greedy_tmax=greedy_tmax,
        moves=moves,
    )


def _repair_in_place(
    problem: MappingProblem,
    kernel: EvalKernel,
    home: Sequence[Optional[int]],
    cost: Sequence[float],
    alpha: float,
    max_moves: int,
) -> Tuple[MappingResult, float, int]:
    """Refine's move loop on ``tmax + alpha * migration_bytes`` from an
    LPT-filled seed: survivors stay on their ``home`` GPU, evicted actors
    (``None``) count as migrated wherever they land.  Returns the
    kernel-rescored mapping, the seed's tmax, and the moves applied."""
    seed = lpt_fill(problem, home)
    state = DeltaEvaluator(kernel, seed)
    seed_tmax = state.tmax()
    migration = sum(
        cost[pid] for pid in range(problem.num_partitions)
        if home[pid] != seed[pid]
    )
    objective = seed_tmax + alpha * migration

    def migration_after(pid: int, gpu: int) -> float:
        away = cost[pid] if home[pid] is not None else 0.0
        stays = migration - (away if state.assign[pid] != home[pid] else 0.0)
        return stays + (away if gpu != home[pid] else 0.0)

    def score_move(pid: int, gpu: int) -> float:
        return state.score_move(pid, gpu) + alpha * migration_after(pid, gpu)

    order = heaviest_first(problem)
    moves = 0
    while moves < max_moves:
        move = first_improving_move(state, order, objective, score_move)
        if move is None:
            break
        pid, gpu, objective = move
        migration = migration_after(pid, gpu)
        state.apply_move(pid, gpu)
        moves += 1
    # the standing invariant: the returned incumbent is rescored through
    # the kernel's full evaluation, bit-identical to MappingProblem.tmax
    mapping = make_result(
        problem, list(state.assignment()),
        "repair[local-search]" if moves else "repair[seed]",
        optimal=False,
        stats=(
            ("repair_moves", float(moves)),
            ("repair_evicted", float(home.count(None))),
        ),
        kernel=kernel,
    )
    return mapping, seed_tmax, moves
