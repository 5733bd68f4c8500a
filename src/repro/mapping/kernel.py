"""Compiled per-problem evaluation engine for the mapping objective.

Every solver in the repo scores candidate assignments with the shared
evaluator (:meth:`~repro.mapping.problem.MappingProblem.tmax`), which
re-walks the topology tree per PDG edge on every call.  That is fine for
scoring one final answer; it is the wrong shape for local search and
branch-and-bound, which score *millions* of near-identical candidates.

:class:`EvalKernel` is built once per problem and precomputes everything
the interpreted evaluator re-derives per call:

* a G x G -> route table (peer-to-peer or via-host, matching the
  problem's ``peer_to_peer`` flag) plus host-I/O routes per GPU,
* flattened edge / broadcast / host-I/O arrays (no dict re-iteration,
  no per-edge attribute chasing),
* per-link ``latency`` / ``bandwidth`` / ``1/bandwidth`` vectors and a
  P x G compute-time table folding in heterogeneous GPU slowdowns.

On top of it, :class:`DeltaEvaluator` maintains one assignment's score
*incrementally*: a single move or swap is re-scored in O(degree of the
moved partitions) plus an O(G + L) bottleneck scan — independent of the
number of partitions and PDG edges — with exact commit/rollback.

**Exactness invariant.**  Kernel scores are *bit-identical* to the
interpreted evaluator, not merely close: full evaluation replicates the
evaluator's accumulation order; the delta evaluator recomputes the two
touched per-GPU times in canonical (ascending partition id) order rather
than add/subtracting them (float sums of arbitrary fragment times do not
commute), and link-time division by bandwidth is kept as a division
(``load / bw`` and ``load * (1 / bw)`` differ in the last ulp).  Link
*loads* are maintained incrementally — byte counts are dyadic rationals
far below 2**53, so their float sums are exact — and every rollback
restores the previous floats verbatim from a snapshot.  The property
suite in ``tests/test_kernel.py`` pins all of this across the synth
corpus and every named platform.

>>> from repro.gpu.topology import default_topology
>>> from repro.mapping.problem import MappingProblem
>>> p = MappingProblem(
...     times=[4.0, 3.0, 2.0], edges={(0, 1): 64.0, (1, 2): 64.0},
...     host_io=[(64.0, 0.0), (0.0, 0.0), (0.0, 64.0)],
...     topology=default_topology(2),
... )
>>> kernel = EvalKernel(p)
>>> kernel.full_tmax([0, 0, 1]) == p.tmax([0, 0, 1])
True
>>> state = DeltaEvaluator(kernel, [0, 0, 1])
>>> state.score_move(1, 1) == p.tmax([0, 1, 1])
True
>>> state.tmax() == p.tmax([0, 0, 1])  # score_move left the state intact
True
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.mapping.problem import CommBreakdown, MappingProblem

__all__ = [
    "DeltaEvaluator",
    "EvalKernel",
    "canonical_gpu_fold",
    "compile_kernel",
]


def canonical_gpu_fold(col, pids: Iterable[int], start: float = 0.0) -> float:
    """Fold per-partition compute times in the canonical order.

    This is *the* exactness-critical accumulation of the repo: one
    GPU's time is the left fold of its members' times in **ascending
    partition id** order, which is the order the interpreted evaluator
    (:meth:`~repro.mapping.problem.MappingProblem.gpu_times`) feeds its
    per-GPU accumulators.  Float sums do not commute, so every scalar
    scoring path — the delta evaluator's probes and its commit-time
    recomputes — must run this one fold rather than re-deriving it;
    ``tests/test_batch_properties.py`` carries a mutation test that
    fails if the fold order ever changes.

    ``col`` maps a partition id to its time on the GPU in question
    (typically ``kernel.ptime_by_gpu[gpu].__getitem__``); ``pids`` must
    already be ascending; ``start`` resumes the fold from a cached
    prefix sum.

    >>> canonical_gpu_fold({0: 2.0, 1: 3.0, 2: 4.0}.__getitem__, [0, 1, 2])
    9.0
    >>> canonical_gpu_fold([5.0, 7.0].__getitem__, [1], start=1.0)
    8.0
    """
    return sum(map(col, pids), start)


class EvalKernel:
    """Precomputed route tables and flattened arrays for one problem.

    Construction costs O(G^2 tree-depth + E + P*G) once; afterwards
    :meth:`full_tmax` scores an assignment without a single tree walk or
    dict lookup beyond the flattened arrays, and :class:`DeltaEvaluator`
    scores single moves in O(degree).  All scores are bit-identical to
    :meth:`~repro.mapping.problem.MappingProblem.tmax` (see the module
    docstring for why that holds).
    """

    def __init__(self, problem: MappingProblem) -> None:
        self.problem = problem
        topo = problem.topology
        gpus = topo.num_gpus
        self.num_gpus = gpus
        self.num_links = topo.num_links
        self.num_partitions = problem.num_partitions
        self.include_host_io = problem.include_host_io

        # --- route tables -------------------------------------------------
        p2p = problem.peer_to_peer
        self.routes: Tuple[Tuple[Tuple[int, ...], ...], ...] = tuple(
            tuple(
                topo.route(src, dst) if p2p else topo.route_via_host(src, dst)
                for dst in range(gpus)
            )
            for src in range(gpus)
        )
        self.host_in_routes: Tuple[Tuple[int, ...], ...] = tuple(
            topo.route_from_host(g) for g in range(gpus)
        )
        self.host_out_routes: Tuple[Tuple[int, ...], ...] = tuple(
            topo.route_to_host(g) for g in range(gpus)
        )

        # --- per-link cost vectors ---------------------------------------
        self.latency: List[float] = [
            link.spec.latency_ns for link in topo.links
        ]
        self.bandwidth: List[float] = [
            link.spec.bandwidth_bytes_per_ns for link in topo.links
        ]
        #: reciprocal bandwidth — used by the branch-and-bound *bound*
        #: (multiplication is cheaper); exact evaluation divides by
        #: :attr:`bandwidth` instead to stay bit-identical to the
        #: interpreted evaluator
        self.inv_bandwidth: List[float] = [
            1.0 / bw for bw in self.bandwidth
        ]

        # --- flattened edges (problem.edges iteration order) -------------
        # self-edges never cross a link and zero-byte edges add exactly
        # 0.0 everywhere, so both are dropped from the flattened arrays
        self.edge_list: List[Tuple[int, int, float]] = [
            (i, j, nbytes)
            for (i, j), nbytes in problem.edges.items()
            if i != j and nbytes
        ]
        self.out_edges: List[List[Tuple[int, float]]] = [
            [] for _ in range(self.num_partitions)
        ]
        self.in_edges: List[List[Tuple[int, float]]] = [
            [] for _ in range(self.num_partitions)
        ]
        for i, j, nbytes in self.edge_list:
            self.out_edges[i].append((j, nbytes))
            self.in_edges[j].append((i, nbytes))

        # --- broadcasts (unique destinations, original order) ------------
        self.broadcasts: List[Tuple[int, float, Tuple[int, ...]]] = [
            (g.src, g.nbytes, tuple(dict.fromkeys(g.destinations)))
            for g in problem.broadcasts
        ]
        self.bcast_by_src: List[List[int]] = [
            [] for _ in range(self.num_partitions)
        ]
        self.bcast_by_dst: List[List[int]] = [
            [] for _ in range(self.num_partitions)
        ]
        for g_idx, (src, _nbytes, dests) in enumerate(self.broadcasts):
            self.bcast_by_src[src].append(g_idx)
            for j in dests:
                self.bcast_by_dst[j].append(g_idx)

        # --- host I/O and the P x G compute-time table -------------------
        self.host_io: List[Tuple[float, float]] = list(problem.host_io)
        slowdown = problem.gpu_slowdown
        if slowdown is None:
            self.ptime: List[List[float]] = [
                [t] * gpus for t in problem.times
            ]
        else:
            self.ptime = [
                [t * s for s in slowdown] for t in problem.times
            ]
        #: the same table in column-major (per-GPU) layout — the delta
        #: evaluator's canonical per-GPU recomputes index one flat list
        self.ptime_by_gpu: List[List[float]] = [
            [row[g] for row in self.ptime] for g in range(gpus)
        ]
        #: per-group destination membership tests for the delta scorer
        self.bcast_dest_sets: List[frozenset] = [
            frozenset(dests) for _src, _nbytes, dests in self.broadcasts
        ]

    # ------------------------------------------------------------------
    # full evaluation (bit-identical to the interpreted evaluator)
    # ------------------------------------------------------------------
    def gpu_times(self, assignment: Sequence[int]) -> List[float]:
        """Eq. III.4 per GPU, from the precomputed time table."""
        loads = [0.0] * self.num_gpus
        ptime = self.ptime
        for pid, gpu in enumerate(assignment):
            loads[gpu] += ptime[pid][gpu]
        return loads

    def link_loads(self, assignment: Sequence[int]) -> List[float]:
        """Eq. III.7 loads per directed link, via the route table."""
        loads = [0.0] * self.num_links
        routes = self.routes
        for i, j, nbytes in self.edge_list:
            src = assignment[i]
            dst = assignment[j]
            if src == dst:
                continue
            for link in routes[src][dst]:
                loads[link] += nbytes
        for src_pid, nbytes, dests in self.broadcasts:
            src = assignment[src_pid]
            dest_gpus = {assignment[j] for j in dests}
            dest_gpus.discard(src)
            for dst in sorted(dest_gpus):
                for link in routes[src][dst]:
                    loads[link] += nbytes
        if self.include_host_io:
            host_in = self.host_in_routes
            host_out = self.host_out_routes
            for pid, (inp, out) in enumerate(self.host_io):
                gpu = assignment[pid]
                if inp:
                    for link in host_in[gpu]:
                        loads[link] += inp
                if out:
                    for link in host_out[gpu]:
                        loads[link] += out
        return loads

    def link_times(self, loads: Sequence[float]) -> Tuple[float, ...]:
        """Eq. III.3 per link; latency charged only on used links."""
        latency = self.latency
        bandwidth = self.bandwidth
        return tuple(
            (latency[l] + load / bandwidth[l]) if load else 0.0
            for l, load in enumerate(loads)
        )

    def full_tmax(self, assignment: Sequence[int]) -> float:
        """The objective value of ``assignment`` (fast full evaluation).

        >>> from repro.gpu.topology import default_topology
        >>> from repro.mapping.problem import MappingProblem
        >>> p = MappingProblem(times=[2.0, 1.0], edges={(0, 1): 8.0},
        ...                    host_io=[(8.0, 0.0), (0.0, 8.0)],
        ...                    topology=default_topology(2))
        >>> EvalKernel(p).full_tmax([0, 1]) == p.tmax([0, 1])
        True
        """
        gpu_side = max(self.gpu_times(assignment), default=0.0)
        comm = 0.0
        latency = self.latency
        bandwidth = self.bandwidth
        for l, load in enumerate(self.link_loads(assignment)):
            if load:
                t = latency[l] + load / bandwidth[l]
                if t > comm:
                    comm = t
        return max(gpu_side, comm)

    def batch_tmax(self, assignments: Iterable[Sequence[int]]) -> List[float]:
        """Score many assignments (the portfolio's seed ranking)."""
        return [self.full_tmax(a) for a in assignments]

    def breakdown(
        self, assignment: Sequence[int]
    ) -> Tuple[Tuple[float, ...], CommBreakdown]:
        """Per-GPU times and per-link breakdown, bit-identical to
        :meth:`~repro.mapping.problem.MappingProblem.comm_breakdown`."""
        loads = self.link_loads(assignment)
        return (
            tuple(self.gpu_times(assignment)),
            CommBreakdown(
                link_bytes=tuple(loads), link_times=self.link_times(loads)
            ),
        )


def compile_kernel(problem: MappingProblem) -> EvalKernel:
    """Build the compiled evaluation kernel for ``problem``.

    >>> from repro.gpu.topology import default_topology
    >>> from repro.mapping.problem import MappingProblem
    >>> p = MappingProblem(times=[1.0], edges={}, host_io=[(0.0, 0.0)],
    ...                    topology=default_topology(1))
    >>> compile_kernel(p).full_tmax([0])
    1.0
    """
    return EvalKernel(problem)


class DeltaEvaluator:
    """Incremental scorer for one evolving assignment.

    Maintains per-GPU compute times, per-link loads, and per-broadcast
    destination counts so that a single move (or swap) is re-scored in
    O(degree of the moved partition) link updates plus an O(G + L)
    bottleneck scan — the partition count and total edge count never
    appear in the per-move cost.

    The mutation API is commit-by-default with explicit rollback:
    :meth:`apply_move` / :meth:`apply_swap` mutate the state and return
    an opaque token; :meth:`rollback` undoes exactly that mutation
    (tokens must be rolled back LIFO).  :meth:`score_move` /
    :meth:`score_swap` are the non-mutating probes local search scans
    with — apply, read :meth:`tmax`, roll back.

    Rollback restores snapshots of every touched float, so a
    score-probe leaves the state *bitwise* untouched no matter how the
    arithmetic rounds.
    """

    def __init__(self, kernel: EvalKernel, assignment: Sequence[int]) -> None:
        self.kernel = kernel
        assign = list(assignment)
        if len(assign) != kernel.num_partitions:
            raise ValueError("assignment length mismatch")
        for gpu in assign:
            if not (0 <= gpu < kernel.num_gpus):
                raise ValueError(f"GPU id {gpu} out of range")
        self.assign = assign
        #: sorted member pids per GPU — kept sorted so touched GPU times
        #: can be recomputed in the evaluator's canonical accumulation
        #: order (ascending pid), which is what makes them bit-exact
        self.members: List[List[int]] = [[] for _ in range(kernel.num_gpus)]
        for pid, gpu in enumerate(assign):
            self.members[gpu].append(pid)  # ascending pid by construction
        self.gpu_times = [0.0] * kernel.num_gpus  # filled by the folds below
        #: per-GPU canonical prefix folds: ``prefix[g][k]`` is the exact
        #: partial sum of the first ``k`` member times in ascending-pid
        #: order, so a probe resumes the fold at the moved partition's
        #: position instead of re-folding the whole membership; rebuilt
        #: only on commits (probes never touch it)
        self.prefix: List[List[float]] = [
            [] for _ in range(kernel.num_gpus)
        ]
        for gpu in range(kernel.num_gpus):
            self._recompute_gpu(gpu)
        self.link_loads = kernel.link_loads(assign)
        self.bcast_counts: List[Dict[int, int]] = []
        for _src, _nbytes, dests in kernel.broadcasts:
            counts: Dict[int, int] = {}
            for j in dests:
                gpu = assign[j]
                counts[gpu] = counts.get(gpu, 0) + 1
            self.bcast_counts.append(counts)

    # ------------------------------------------------------------------
    def tmax(self) -> float:
        """Current objective value (O(G + L), no re-accumulation)."""
        gpu_side = max(self.gpu_times) if self.gpu_times else 0.0
        comm = 0.0
        latency = self.kernel.latency
        bandwidth = self.kernel.bandwidth
        for l, load in enumerate(self.link_loads):
            if load:
                t = latency[l] + load / bandwidth[l]
                if t > comm:
                    comm = t
        return max(gpu_side, comm)

    def assignment(self) -> Tuple[int, ...]:
        """The current assignment."""
        return tuple(self.assign)

    # ------------------------------------------------------------------
    def _recompute_gpu(self, gpu: int) -> None:
        """Recompute one GPU's time in canonical (ascending pid) order,
        rebuilding its prefix-fold cache along the way.  The loop
        materializes every partial sum of :func:`canonical_gpu_fold`
        over the membership, so probes resuming from ``prefix[k]`` are
        bitwise continuations of this fold."""
        col = self.kernel.ptime_by_gpu[gpu]
        total = 0.0
        prefix = [0.0]
        append = prefix.append
        for pid in self.members[gpu]:
            total += col[pid]
            append(total)
        self.prefix[gpu] = prefix
        self.gpu_times[gpu] = total

    def apply_move(self, pid: int, gpu: int):
        """Move ``pid`` to ``gpu``; returns a rollback token."""
        old = self.assign[pid]
        if gpu == old:
            return None
        kernel = self.kernel
        loads = self.link_loads
        touched: Dict[int, float] = {}  # link -> load before this move

        def shift(route: Tuple[int, ...], nbytes: float) -> None:
            for link in route:
                if link not in touched:
                    touched[link] = loads[link]
                loads[link] += nbytes

        routes = kernel.routes
        out_edges = kernel.out_edges[pid]
        in_edges = kernel.in_edges[pid]
        assign = self.assign

        # 1. retract every contribution involving pid at its old GPU
        for other, nbytes in out_edges:
            dst = assign[other]
            if dst != old:
                shift(routes[old][dst], -nbytes)
        for other, nbytes in in_edges:
            src = assign[other]
            if src != old:
                shift(routes[src][old], -nbytes)
        affected = kernel.bcast_by_src[pid] or kernel.bcast_by_dst[pid]
        if affected:
            affected = sorted(
                set(kernel.bcast_by_src[pid]) | set(kernel.bcast_by_dst[pid])
            )
            for g_idx in affected:
                self._shift_broadcast(g_idx, shift, retract=True)
        if kernel.include_host_io:
            inp, out = kernel.host_io[pid]
            if inp:
                shift(kernel.host_in_routes[old], -inp)
            if out:
                shift(kernel.host_out_routes[old], -out)

        # 2. re-place pid
        assign[pid] = gpu
        self.members[old].remove(pid)
        insort(self.members[gpu], pid)
        for g_idx in kernel.bcast_by_dst[pid]:
            counts = self.bcast_counts[g_idx]
            counts[old] -= 1
            if not counts[old]:
                del counts[old]
            counts[gpu] = counts.get(gpu, 0) + 1

        # 3. charge every contribution at the new GPU
        for other, nbytes in out_edges:
            dst = assign[other]
            if dst != gpu:
                shift(routes[gpu][dst], nbytes)
        for other, nbytes in in_edges:
            src = assign[other]
            if src != gpu:
                shift(routes[src][gpu], nbytes)
        if affected:
            for g_idx in affected:
                self._shift_broadcast(g_idx, shift, retract=False)
        if kernel.include_host_io:
            if inp:
                shift(kernel.host_in_routes[gpu], inp)
            if out:
                shift(kernel.host_out_routes[gpu], out)

        # 4. canonical recompute of the two touched GPU times; the
        # replaced prefix lists ride along in the token so rollback can
        # swap them back without refolding
        prev_times = (self.gpu_times[old], self.gpu_times[gpu])
        prev_prefix = (self.prefix[old], self.prefix[gpu])
        self._recompute_gpu(old)
        self._recompute_gpu(gpu)
        return (pid, old, gpu, touched, prev_times, prev_prefix)

    def _shift_broadcast(self, g_idx: int, shift, retract: bool) -> None:
        """Charge (or retract) one broadcast group's current routes."""
        src_pid, nbytes, _dests = self.kernel.broadcasts[g_idx]
        src_gpu = self.assign[src_pid]
        routes = self.kernel.routes[src_gpu]
        amount = -nbytes if retract else nbytes
        for dst in self.bcast_counts[g_idx]:
            if dst != src_gpu:
                shift(routes[dst], amount)

    def rollback(self, token) -> None:
        """Undo the mutation that returned ``token`` (LIFO order)."""
        if token is None:
            return
        if token[0] == "swap":
            _tag, second, first = token
            self.rollback(second)
            self.rollback(first)
            return
        pid, old, gpu, touched, prev_times, prev_prefix = token
        self.assign[pid] = old
        self.members[gpu].remove(pid)
        insort(self.members[old], pid)
        for g_idx in self.kernel.bcast_by_dst[pid]:
            counts = self.bcast_counts[g_idx]
            counts[gpu] -= 1
            if not counts[gpu]:
                del counts[gpu]
            counts[old] = counts.get(old, 0) + 1
        loads = self.link_loads
        for link, load in touched.items():
            loads[link] = load
        self.gpu_times[old], self.gpu_times[gpu] = prev_times
        self.prefix[old], self.prefix[gpu] = prev_prefix

    def apply_swap(self, a: int, b: int):
        """Exchange the GPUs of partitions ``a`` and ``b``."""
        gpu_a = self.assign[a]
        gpu_b = self.assign[b]
        first = self.apply_move(a, gpu_b)
        second = self.apply_move(b, gpu_a)
        return ("swap", second, first)

    # ------------------------------------------------------------------
    def score_move(self, pid: int, gpu: int) -> float:
        """Objective after moving ``pid`` to ``gpu`` (state untouched).

        This is the local-search hot path: the candidate is priced
        without mutating any state — link deltas land in a small local
        override dict and the two affected GPU times are folded in
        canonical (ascending pid) order on the fly — so the score is
        bitwise what :meth:`apply_move` + :meth:`tmax` would report,
        with none of the commit/rollback bookkeeping.
        """
        old = self.assign[pid]
        if gpu == old:
            return self.tmax()
        kernel = self.kernel
        loads = self.link_loads
        assign = self.assign
        routes = kernel.routes
        routes_old = routes[old]
        routes_gpu = routes[gpu]
        new_loads: Dict[int, float] = {}
        get = new_loads.get

        for other, nbytes in kernel.out_edges[pid]:
            dst = assign[other]
            if dst != old:
                for link in routes_old[dst]:
                    new_loads[link] = get(link, loads[link]) - nbytes
            if dst != gpu:
                for link in routes_gpu[dst]:
                    new_loads[link] = get(link, loads[link]) + nbytes
        for other, nbytes in kernel.in_edges[pid]:
            src = assign[other]
            if src != old:
                for link in routes[src][old]:
                    new_loads[link] = get(link, loads[link]) - nbytes
            if src != gpu:
                for link in routes[src][gpu]:
                    new_loads[link] = get(link, loads[link]) + nbytes
        if kernel.bcast_by_src[pid] or kernel.bcast_by_dst[pid]:
            def shift(route: Tuple[int, ...], nbytes: float) -> None:
                for link in route:
                    new_loads[link] = get(link, loads[link]) + nbytes
            self._probe_broadcasts(pid, old, gpu, shift)
        if kernel.include_host_io:
            inp, out = kernel.host_io[pid]
            if inp:
                for link in kernel.host_in_routes[old]:
                    new_loads[link] = get(link, loads[link]) - inp
                for link in kernel.host_in_routes[gpu]:
                    new_loads[link] = get(link, loads[link]) + inp
            if out:
                for link in kernel.host_out_routes[old]:
                    new_loads[link] = get(link, loads[link]) - out
                for link in kernel.host_out_routes[gpu]:
                    new_loads[link] = get(link, loads[link]) + out

        # canonical (ascending pid) folds of the two affected GPU times:
        # resume each fold from the prefix cache at the moved
        # partition's position and finish the tail through the one
        # shared fold helper — bitwise the evaluator's accumulation loop
        members = self.members[old]
        col = kernel.ptime_by_gpu[old].__getitem__
        cut = bisect_left(members, pid)
        old_time = canonical_gpu_fold(
            col, members[cut + 1:], self.prefix[old][cut]
        )
        members = self.members[gpu]
        col = kernel.ptime_by_gpu[gpu].__getitem__
        cut = bisect_left(members, pid)
        new_time = canonical_gpu_fold(
            col, members[cut:], self.prefix[gpu][cut] + col(pid)
        )

        gpu_side = 0.0
        for g, t in enumerate(self.gpu_times):
            if g == old:
                t = old_time
            elif g == gpu:
                t = new_time
            if t > gpu_side:
                gpu_side = t
        comm = 0.0
        latency = kernel.latency
        bandwidth = kernel.bandwidth
        for l, load in enumerate(loads):
            load = get(l, load)
            if load:
                t = latency[l] + load / bandwidth[l]
                if t > comm:
                    comm = t
        return comm if comm > gpu_side else gpu_side

    def _probe_broadcasts(self, pid: int, old: int, gpu: int, shift) -> None:
        """Retract-and-recharge the broadcast groups ``pid`` touches,
        without mutating the per-group destination counts."""
        kernel = self.kernel
        assign = self.assign
        affected = set(kernel.bcast_by_src[pid])
        affected.update(kernel.bcast_by_dst[pid])
        for g_idx in sorted(affected):
            src_pid, nbytes, _dests = kernel.broadcasts[g_idx]
            counts = self.bcast_counts[g_idx]
            old_src = assign[src_pid]
            for dst in counts:
                if dst != old_src:
                    shift(kernel.routes[old_src][dst], -nbytes)
            new_src = gpu if src_pid == pid else old_src
            if pid in kernel.bcast_dest_sets[g_idx]:
                dest_gpus = set(counts)
                if counts[old] == 1:
                    dest_gpus.discard(old)
                dest_gpus.add(gpu)
            else:
                dest_gpus = counts
            routes = kernel.routes[new_src]
            for dst in dest_gpus:
                if dst != new_src:
                    shift(routes[dst], nbytes)

    def score_swap(self, a: int, b: int) -> float:
        """Objective after swapping ``a`` and ``b`` (state untouched)."""
        token = self.apply_swap(a, b)
        score = self.tmax()
        self.rollback(token)
        return score
