"""Communication-unaware mapping baselines.

``lpt_mapping`` is the previous work's style of multi-GPU mapping:
balance workload across GPUs (longest-processing-time list scheduling)
with no model of inter-GPU communication.  Combined with
``peer_to_peer=False`` in the problem (all traffic through the host, as
[7] executes) this reproduces the baseline the paper compares against.

``round_robin_mapping`` deals partitions out in topological order — the
crudest pipeline mapping, used by the ablation benchmarks.

Each heuristic is split into an ``*_assignment`` function that builds
the raw assignment (no scoring at all) and a ``*_mapping`` wrapper that
scores it into a :class:`~repro.mapping.result.MappingResult`.  The
solver portfolio and the repair solver take the assignment forms from
:func:`greedy_seeds` and rank them through the compiled kernel
(:mod:`repro.mapping.kernel`) in one batch instead of paying a full
interpreted evaluation per seed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.mapping.problem import MappingProblem
from repro.mapping.result import MappingResult, make_result


def lpt_assignment(
    problem: MappingProblem,
    workloads: Optional[Sequence[float]] = None,
) -> List[int]:
    """The LPT assignment itself, unscored (see :func:`lpt_mapping`)."""
    return lpt_fill(problem, [None] * problem.num_partitions, workloads)


def lpt_fill(
    problem: MappingProblem,
    partial: Sequence[Optional[int]],
    workloads: Optional[Sequence[float]] = None,
) -> List[int]:
    """Complete ``partial`` by LPT: the ``None`` entries are placed
    heaviest first, each on the GPU where it finishes earliest
    (slowdown-aware), on top of the load the placed entries already
    carry.  An all-``None`` partial is plain LPT; the repair solver
    passes the survivors of a platform delta and fills the evicted.

    >>> from repro.gpu.topology import default_topology
    >>> p = MappingProblem(times=[4.0, 3.0, 2.0, 1.0], edges={},
    ...                    host_io=[(0.0, 0.0)] * 4,
    ...                    topology=default_topology(2))
    >>> lpt_fill(p, [0, None, None, 0])
    [0, 1, 1, 0]
    """
    weights = list(workloads) if workloads is not None else list(problem.times)
    if len(weights) != problem.num_partitions:
        raise ValueError("workload vector length mismatch")
    slowdown = problem.gpu_slowdown or [1.0] * problem.num_gpus
    loads = [0.0] * problem.num_gpus
    for pid, gpu in enumerate(partial):
        if gpu is not None:
            loads[gpu] += weights[pid] * slowdown[gpu]
    assignment = [0 if gpu is None else gpu for gpu in partial]
    holes = [pid for pid, gpu in enumerate(partial) if gpu is None]
    for pid in sorted(holes, key=lambda p: -weights[p]):
        gpu = min(
            range(problem.num_gpus),
            key=lambda j: loads[j] + weights[pid] * slowdown[j],
        )
        assignment[pid] = gpu
        loads[gpu] += weights[pid] * slowdown[gpu]
    return assignment


def lpt_mapping(
    problem: MappingProblem,
    workloads: Optional[Sequence[float]] = None,
    kernel=None,
) -> MappingResult:
    """Longest-processing-time workload balancing (communication-blind).

    ``workloads`` overrides the balance key — the previous work balances
    *static* workload (it has no performance model), so callers pass
    static work estimates to emulate it; the default balances the PEE
    fragment times.  ``kernel`` scores the result through a prebuilt
    :class:`~repro.mapping.kernel.EvalKernel` instead of the
    interpreted evaluator (same numbers, bit for bit).

    >>> from repro.gpu.topology import default_topology
    >>> p = MappingProblem(times=[4.0, 3.0, 2.0, 1.0], edges={},
    ...                    host_io=[(0.0, 0.0)] * 4,
    ...                    topology=default_topology(2))
    >>> lpt_mapping(p).tmax
    5.0
    """
    assignment = lpt_assignment(problem, workloads=workloads)
    return make_result(
        problem, assignment, "greedy-lpt", optimal=False, kernel=kernel
    )


def round_robin_assignment(problem: MappingProblem) -> List[int]:
    """The round-robin deal, unscored (see :func:`round_robin_mapping`)."""
    return [pid % problem.num_gpus for pid in range(problem.num_partitions)]


def round_robin_mapping(
    problem: MappingProblem, kernel=None
) -> MappingResult:
    """Deal partitions to GPUs in index (topological) order.

    >>> from repro.gpu.topology import default_topology
    >>> p = MappingProblem(times=[1.0, 1.0, 1.0], edges={},
    ...                    host_io=[(0.0, 0.0)] * 3,
    ...                    topology=default_topology(2))
    >>> round_robin_mapping(p).assignment
    (0, 1, 0)
    """
    return make_result(
        problem, round_robin_assignment(problem), "round-robin",
        optimal=False, kernel=kernel,
    )


def contiguous_assignment(
    problem: MappingProblem,
    order: Optional[Sequence[int]] = None,
) -> List[int]:
    """The contiguous-blocks split, unscored (see
    :func:`contiguous_mapping`)."""
    order = list(order) if order is not None else list(range(problem.num_partitions))
    if sorted(order) != list(range(problem.num_partitions)):
        raise ValueError("order must be a permutation of all partitions")
    gpus = problem.num_gpus
    times = [problem.times[pid] for pid in order]
    lo = max(times) if times else 0.0
    hi = sum(times)

    def blocks_needed(threshold: float) -> int:
        blocks, acc = 1, 0.0
        for t in times:
            if acc + t > threshold:
                blocks += 1
                acc = t
            else:
                acc += t
        return blocks

    for _ in range(48):  # bisection to float precision
        mid = (lo + hi) / 2
        if blocks_needed(mid) <= gpus:
            hi = mid
        else:
            lo = mid
    threshold = hi
    assignment = [0] * problem.num_partitions
    gpu, acc = 0, 0.0
    for pid, t in zip(order, times):
        if acc + t > threshold and gpu + 1 < gpus:
            gpu += 1
            acc = 0.0
        assignment[pid] = gpu
        acc += t
    return assignment


def greedy_seeds(
    problem: MappingProblem,
    order: Optional[Sequence[int]] = None,
) -> List[Tuple[str, List[int]]]:
    """The three greedy seeds, unscored, as ``(solver name, assignment)``
    pairs: LPT, round-robin, and contiguous blocks over ``order`` (a
    topological order; omitted, index order).  The portfolio's stage 1
    and the repair solver's quality floor both rank exactly these.

    >>> from repro.gpu.topology import default_topology
    >>> p = MappingProblem(times=[3.0, 1.0, 1.0, 1.0], edges={},
    ...                    host_io=[(0.0, 0.0)] * 4,
    ...                    topology=default_topology(2))
    >>> greedy_seeds(p)
    [('greedy-lpt', [0, 1, 1, 1]), ('round-robin', [0, 1, 0, 1]), ('contiguous', [0, 1, 1, 1])]
    """
    return [
        ("greedy-lpt", lpt_assignment(problem)),
        ("round-robin", round_robin_assignment(problem)),
        ("contiguous", contiguous_assignment(problem, order)),
    ]


def contiguous_mapping(
    problem: MappingProblem,
    order: Optional[Sequence[int]] = None,
    kernel=None,
) -> MappingResult:
    """Split a topological order into contiguous per-GPU blocks.

    For chain-shaped PDGs (DES, FFT, ...) contiguous blocks minimize the
    number of cut edges — exactly G-1 — so this is a strong seed/fallback
    when the MILP times out on hundreds of partitions.  The block
    boundary threshold is found by binary search on the bottleneck block
    time (the classic linear-partitioning argument).

    >>> from repro.gpu.topology import default_topology
    >>> p = MappingProblem(times=[1.0, 1.0, 1.0, 1.0], edges={},
    ...                    host_io=[(0.0, 0.0)] * 4,
    ...                    topology=default_topology(2))
    >>> contiguous_mapping(p).assignment
    (0, 0, 1, 1)
    """
    return make_result(
        problem, contiguous_assignment(problem, order=order), "contiguous",
        optimal=False, kernel=kernel,
    )
