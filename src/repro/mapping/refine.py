"""Local-search refinement of a mapping.

When the MILP hits its work budget on very large partition counts, its
incumbent can sit a few percent off.  This pass polishes any assignment
with first-improvement local search over two moves:

* **move**: reassign one partition to another GPU,
* **swap**: exchange the GPUs of two partitions.

Every step is scored through the compiled evaluation kernel
(:mod:`repro.mapping.kernel`), whose delta scorer prices a candidate
move in O(degree of the moved partition) instead of re-walking every
PDG edge — the same objective as the shared evaluator, bit for bit, so
improvements are real under exactly the objective the solvers target.
The search is deterministic and stops at a local optimum or the step
budget (historically 1000 steps; now that a step costs microseconds the
default budget is 10x larger, which changes nothing on instances that
converge — first-improvement search almost always does — and simply
stops truncating the rare pathological ones).  The single-move loop,
:func:`first_improving_move`, is also the repair solver's polish
(:mod:`repro.mapping.repair`), there priced by ``tmax + alpha *
migration_bytes``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.mapping.kernel import DeltaEvaluator, EvalKernel
from repro.mapping.problem import MappingProblem
from repro.mapping.result import MappingResult, make_result


def refine_mapping(
    problem: MappingProblem,
    assignment: Sequence[int],
    max_steps: int = 10_000,
    use_swaps: bool = True,
    kernel: Optional[EvalKernel] = None,
) -> MappingResult:
    """Polish ``assignment`` by greedy local search; returns the result.

    The returned result's ``solver`` field is ``"refined"`` and
    ``optimal`` is False (local optimum, not a proof).  ``kernel``
    reuses a prebuilt :class:`~repro.mapping.kernel.EvalKernel` (the
    portfolio passes its own); omitted, one is compiled for the call.

    >>> from repro.gpu.topology import default_topology
    >>> p = MappingProblem(times=[4.0, 3.0, 2.0, 1.0], edges={},
    ...                    host_io=[(0.0, 0.0)] * 4,
    ...                    topology=default_topology(2))
    >>> refine_mapping(p, [0, 0, 0, 0]).tmax
    5.0
    """
    if len(assignment) != problem.num_partitions:
        raise ValueError("assignment length mismatch")
    if kernel is None:
        kernel = EvalKernel(problem)
    state = DeltaEvaluator(kernel, assignment)
    best = state.tmax()
    order = heaviest_first(problem)  # computed once
    steps = 0
    improved = True
    while improved and steps < max_steps:
        improved = False
        move = first_improving_move(state, order, best, state.score_move)
        if move is not None:
            pid, gpu, score = move
            state.apply_move(pid, gpu)
            best = score
            improved = True
            steps += 1
            continue
        if use_swaps:
            swap = _best_swap(state, order, best)
            if swap is not None:
                a, b, score = swap
                state.apply_swap(a, b)
                best = score
                improved = True
                steps += 1
    result = make_result(
        problem, list(state.assignment()), "refined", optimal=False,
        stats=(("refine_steps", float(steps)),), kernel=kernel,
    )
    return result


def first_improving_move(
    state: DeltaEvaluator,
    order: Sequence[int],
    best: float,
    score_move: Callable[[int, int], float],
) -> Optional[Tuple[int, int, float]]:
    """First strictly-improving single-partition move, if any.

    Scans the partitions in ``order`` and, for each, every other GPU in
    id order; returns ``(pid, gpu, score)`` for the first candidate
    whose ``score_move(pid, gpu)`` falls below ``best - 1e-9``.  Refine
    prices a move by the kernel's exact tmax (``state.score_move``); the
    repair solver adds ``alpha * migration_bytes``.
    """
    num_gpus = state.kernel.num_gpus
    assign = state.assign
    for pid in order:
        original = assign[pid]
        for gpu in range(num_gpus):
            if gpu == original:
                continue
            score = score_move(pid, gpu)
            if score < best - 1e-9:
                return pid, gpu, score
    return None


def _best_swap(
    state: DeltaEvaluator, order: Sequence[int], best: float
) -> Optional[Tuple[int, int, float]]:
    """First strictly-improving pairwise swap, if any."""
    assign = state.assign
    for i, a in enumerate(order):
        for b in order[i + 1:]:
            if assign[a] == assign[b]:
                continue
            score = state.score_swap(a, b)
            if score < best - 1e-9:
                return a, b, score
    return None


def heaviest_first(problem: MappingProblem) -> List[int]:
    """Partitions in descending workload order (heavy movers first)."""
    return sorted(
        range(problem.num_partitions), key=lambda p: -problem.times[p]
    )
