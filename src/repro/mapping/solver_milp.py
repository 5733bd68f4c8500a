"""MILP backend for the mapping ILP (scipy.optimize.milp / HiGHS).

Variable layout::

    n_pj   P*G binaries       partition p on GPU j            (III.5)
    e_*    |E|*G*(G-1) reals  linearized products n_ik * n_jh (III.6)
    y_l    L binaries         link l carries any traffic
    Tmax   1 real             the objective

The product variables only appear with non-negative coefficients in
load constraints that push ``Tmax`` up, so the minimization drives them
to ``max(0, n_ik + n_jh - 1)`` and they can stay *continuous* — only the
lower-bound side of the usual linearization is needed.  This keeps the
binary count at ``P*G + L``.

One deliberate deviation from the paper's Eq. III.3: we gate the latency
term with the usage indicator ``y_l`` (``T_comm_l = Lat*y_l + D_l/BW``)
so unused links do not force ``Tmax >= Lat``.  The evaluator in
:mod:`repro.mapping.problem` applies the same rule, keeping solver and
scorer consistent.

Work limits come from a :class:`~repro.mapping.budget.SolveBudget`: the
default is a *deterministic* branch-and-bound node cap, so repeated
solves of one instance return identical mappings regardless of machine
load.  Wall-clock limits are opt-in (``budget.time_limit_s``, which
:meth:`SolveBudget.default` also fills from ``REPRO_MILP_TIME_LIMIT_S``).
A solve that hits its cap returns the incumbent with ``optimal=False``;
a solve that hits the cap before *any* incumbent raises
:class:`MilpNoIncumbent`.

Model assembly goes through the persistent compiled backend
(:mod:`repro.mapping.milp_model`): the sparse model is compiled once
per structural signature and held in a bounded cache, later solves
rebind only the numeric payload, and an ``incumbent`` assignment (the
portfolio passes its best-so-far) is injected as a HiGHS MIP start.
``solve_stats`` reports ``milp_warm_start`` accordingly (cache reuse is
*not* a solve_stat — it depends on process-global state, and equal
solves must return byte-equal results; read
:meth:`MilpModelCache.stats` instead).  The legacy :class:`_Builder` is
kept as the reference implementation the compiled model is
structure-checked against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint

from repro.mapping.budget import SolveBudget
from repro.mapping.milp_model import MODEL_CACHE, MilpModelCache
from repro.mapping.problem import MappingProblem
from repro.mapping.result import MappingResult, make_result


class MilpNoIncumbent(RuntimeError):
    """The MILP hit its budget before finding any feasible incumbent."""


def solve_milp(
    problem: MappingProblem,
    include_comm: bool = True,
    budget: Optional[SolveBudget] = None,
    incumbent: Optional[Sequence[int]] = None,
    model_cache: Optional[MilpModelCache] = None,
) -> MappingResult:
    """Solve the mapping problem with HiGHS (optimal modulo the gap).

    ``include_comm=False`` drops the link constraints — the
    workload-balancing-only ablation.  ``budget`` supplies the work
    limits (node cap, gap, optional wall clock); omitted, it is
    :meth:`SolveBudget.default` — a deterministic node cap with *no*
    wall-clock limit, so back-to-back solves of the same instance are
    bit-identical.

    The compiled model comes from ``model_cache`` (the process-wide
    :data:`~repro.mapping.milp_model.MODEL_CACHE` when omitted), so
    repeat solves of one (graph-shape x platform) signature skip the
    model assembly; reuse never changes the answer — a rebound model is
    bit-identical to a fresh build — and is deliberately not reported
    in ``solve_stats`` (it depends on cache state, and equal solves
    return byte-equal results; see :meth:`MilpModelCache.stats`).
    ``incumbent`` (a feasible
    assignment, e.g. the portfolio's best-so-far) is injected as a MIP
    start when the direct HiGHS backend is available
    (``milp_warm_start``); the returned mapping is never worse than it.

    A capped solve reports its incumbent: ``optimal`` is False and
    ``solve_stats`` carries the HiGHS status, the explored node count,
    and the remaining relative gap.

    >>> from repro.gpu.topology import default_topology
    >>> p = MappingProblem(times=[4.0, 3.0, 2.0, 1.0], edges={},
    ...                    host_io=[(0.0, 0.0)] * 4,
    ...                    topology=default_topology(2))
    >>> result = solve_milp(p)
    >>> result.tmax, result.optimal
    (5.0, True)
    """
    gpus = problem.num_gpus
    parts = problem.num_partitions
    if gpus == 1 or parts == 0:
        return make_result(problem, [0] * parts, "milp", True)

    budget = budget or SolveBudget.default()
    cache = model_cache if model_cache is not None else MODEL_CACHE
    model, _ = cache.get_or_compile(problem, include_comm)
    res = model.solve(problem, budget, incumbent=incumbent)
    if res["x"] is None:
        raise MilpNoIncumbent(f"MILP solver failed: {res['message']}")
    assignment = model.extract_assignment(res["x"])
    stats = [("milp_status", float(res["status"]))]
    for key, stat in (
        ("mip_node_count", "milp_nodes"),
        ("mip_gap", "milp_gap"),
    ):
        if res[key] is not None:
            stats.append((stat, float(res[key])))
    # NOTE: whether the model came from the cache is deliberately NOT a
    # solve_stat — it depends on process-global cache state, and equal
    # solves must return byte-equal results (the cached-replay sweep
    # tests pin that).  Reuse is observable via MilpModelCache.stats().
    stats.append(("milp_warm_start", 1.0 if res["warm_started"] else 0.0))
    result = make_result(
        problem, assignment, "milp", optimal=(res["status"] == 0),
        stats=tuple(stats),
    )
    if incumbent is not None:
        # a warm-started solve must never answer worse than the start it
        # was handed; if HiGHS's capped run ends on a worse incumbent
        # (e.g. the MIP start was rejected at tolerance), keep the
        # caller's — and drop any optimality claim, which would now
        # certify a different point than the one returned
        incumbent_tmax = problem.tmax(list(incumbent))
        if result.tmax > incumbent_tmax:
            stats.append(("milp_clamped", 1.0))
            return make_result(
                problem, list(incumbent), "milp", optimal=False,
                stats=tuple(stats),
            )
    return result


class _Builder:
    """Assembles the sparse MILP."""

    def __init__(self, problem: MappingProblem, include_comm: bool) -> None:
        self.problem = problem
        self.include_comm = include_comm
        self.parts = problem.num_partitions
        self.gpus = problem.num_gpus
        self.edge_list = sorted(problem.edges)
        self.pairs = [
            (k, h)
            for k in range(self.gpus)
            for h in range(self.gpus)
            if k != h
        ]
        # variable offsets
        self.n_base = 0
        self.e_base = self.parts * self.gpus
        self.z_base = self.e_base + len(self.edge_list) * len(self.pairs)
        self.y_base = self.z_base + len(problem.broadcasts) * len(self.pairs)
        self.links = problem.topology.num_links if include_comm else 0
        self.tmax_index = self.y_base + self.links
        self.num_vars = self.tmax_index + 1

        self.constraints: List[LinearConstraint] = []

    # -- variable indexing ------------------------------------------------
    def n(self, p: int, j: int) -> int:
        return self.n_base + p * self.gpus + j

    def e(self, edge_idx: int, pair_idx: int) -> int:
        return self.e_base + edge_idx * len(self.pairs) + pair_idx

    def z(self, group_idx: int, pair_idx: int) -> int:
        return self.z_base + group_idx * len(self.pairs) + pair_idx

    def y(self, link: int) -> int:
        return self.y_base + link

    # -- model ------------------------------------------------------------
    def build(self) -> None:
        self._assignment_constraints()
        self._gpu_time_constraints()
        if self.include_comm:
            self._product_constraints()
            self._broadcast_constraints()
            self._link_constraints()
        self._symmetry_breaking()

    def _symmetry_breaking(self) -> None:
        """Pin the heaviest partition to one GPU per automorphism orbit.

        GPUs with identical route signatures (the per-link spec sequence
        of every route to every other GPU and to the host, plus the
        GPU's own slowdown) are interchangeable on the reference trees
        and on all catalog platforms, so restricting a single partition
        to orbit representatives loses no solutions while cutting the
        search space up to 4x.  Heterogeneous links enter the signature
        through each route's ordered (bandwidth, latency) profile — two
        GPUs equidistant by hop count but behind different-speed links
        are *not* merged.
        """
        topo = self.problem.topology

        def route_profile(route):
            return tuple(
                (
                    topo.links[l].spec.bandwidth_bytes_per_ns,
                    topo.links[l].spec.latency_ns,
                )
                for l in route
            )

        signatures = {}
        for gpu in range(self.gpus):
            slowdown = (
                self.problem.gpu_slowdown[gpu]
                if self.problem.gpu_slowdown is not None
                else 1.0
            )
            sig = (
                tuple(sorted(route_profile(topo.route(gpu, other))
                             for other in range(self.gpus) if other != gpu)),
                route_profile(topo.route_to_host(gpu)),
                slowdown,
            )
            signatures.setdefault(sig, gpu)
        representatives = set(signatures.values())
        if len(representatives) == self.gpus:
            return
        anchor = max(range(self.parts), key=lambda p: self.problem.times[p])
        banned = [j for j in range(self.gpus) if j not in representatives]
        if not banned:
            return
        row = sparse.lil_matrix((1, self.num_vars))
        for j in banned:
            row[0, self.n(anchor, j)] = 1.0
        self.constraints.append(LinearConstraint(row.tocsr(), 0.0, 0.0))

    def _assignment_constraints(self) -> None:
        """Σ_j n_pj = 1 (III.5)."""
        rows = sparse.lil_matrix((self.parts, self.num_vars))
        for p in range(self.parts):
            for j in range(self.gpus):
                rows[p, self.n(p, j)] = 1.0
        self.constraints.append(
            LinearConstraint(rows.tocsr(), np.ones(self.parts), np.ones(self.parts))
        )

    def _gpu_time_constraints(self) -> None:
        """Σ_i T_ij n_ij - Tmax <= 0 (III.1 + III.4; T_ij covers the
        heterogeneous extension)."""
        rows = sparse.lil_matrix((self.gpus, self.num_vars))
        for j in range(self.gpus):
            for p in range(self.parts):
                rows[j, self.n(p, j)] = self.problem.time_on(p, j)
            rows[j, self.tmax_index] = -1.0
        self.constraints.append(
            LinearConstraint(rows.tocsr(), -np.inf, np.zeros(self.gpus))
        )

    def _product_constraints(self) -> None:
        """e >= n_ik + n_jh - 1 (the binding half of III.6)."""
        count = len(self.edge_list) * len(self.pairs)
        rows = sparse.lil_matrix((count, self.num_vars))
        row = 0
        for edge_idx, (i, j) in enumerate(self.edge_list):
            for pair_idx, (k, h) in enumerate(self.pairs):
                rows[row, self.n(i, k)] = 1.0
                rows[row, self.n(j, h)] = 1.0
                rows[row, self.e(edge_idx, pair_idx)] = -1.0
                row += 1
        self.constraints.append(
            LinearConstraint(rows.tocsr(), -np.inf, np.ones(count))
        )

    def _broadcast_constraints(self) -> None:
        """z_gkh >= n_{src,k} + n_{j,h} - 1 for every destination j: the
        group ships (once) from GPU k to GPU h iff the source sits on k
        and any destination partition on h."""
        count = sum(
            len(g.destinations) for g in self.problem.broadcasts
        ) * len(self.pairs)
        if not count:
            return
        rows = sparse.lil_matrix((count, self.num_vars))
        row = 0
        for g_idx, group in enumerate(self.problem.broadcasts):
            for pair_idx, (k, h) in enumerate(self.pairs):
                for j in group.destinations:
                    rows[row, self.n(group.src, k)] = 1.0
                    rows[row, self.n(j, h)] = 1.0
                    rows[row, self.z(g_idx, pair_idx)] = -1.0
                    row += 1
        self.constraints.append(
            LinearConstraint(rows.tocsr(), -np.inf, np.ones(count))
        )

    def _link_loads(self) -> List[Dict[int, float]]:
        """Per-link linear expressions {var index: coefficient} in bytes."""
        topo = self.problem.topology
        loads: List[Dict[int, float]] = [dict() for _ in range(self.links)]
        for edge_idx, edge in enumerate(self.edge_list):
            nbytes = self.problem.edges[edge]
            for pair_idx, (k, h) in enumerate(self.pairs):
                route = (
                    topo.route(k, h)
                    if self.problem.peer_to_peer
                    else topo.route_via_host(k, h)
                )
                var = self.e(edge_idx, pair_idx)
                for link in route:
                    loads[link][var] = loads[link].get(var, 0.0) + nbytes
        for g_idx, group in enumerate(self.problem.broadcasts):
            for pair_idx, (k, h) in enumerate(self.pairs):
                route = (
                    topo.route(k, h)
                    if self.problem.peer_to_peer
                    else topo.route_via_host(k, h)
                )
                var = self.z(g_idx, pair_idx)
                for link in route:
                    loads[link][var] = loads[link].get(var, 0.0) + group.nbytes
        if self.problem.include_host_io:
            for p, (inp, out) in enumerate(self.problem.host_io):
                for j in range(self.gpus):
                    var = self.n(p, j)
                    if inp:
                        for link in topo.route_from_host(j):
                            loads[link][var] = loads[link].get(var, 0.0) + inp
                    if out:
                        for link in topo.route_to_host(j):
                            loads[link][var] = loads[link].get(var, 0.0) + out
        return loads

    def _link_constraints(self) -> None:
        """Lat_l*y_l + D_l/BW_l - Tmax <= 0 and D_l - M*y_l <= 0
        (III.2/III.3, with the paper's shared ``BW``/``Lat`` generalized
        to per-link coefficients for heterogeneous platforms)."""
        links = self.problem.topology.links
        loads = self._link_loads()
        big_m = (
            sum(self.problem.edges.values()) * self.gpus
            + sum(g.nbytes * self.gpus for g in self.problem.broadcasts)
            + sum(i + o for i, o in self.problem.host_io)
            + 1.0
        )
        time_rows = sparse.lil_matrix((self.links, self.num_vars))
        gate_rows = sparse.lil_matrix((self.links, self.num_vars))
        for link in range(self.links):
            spec = links[link].spec
            for var, coeff in loads[link].items():
                time_rows[link, var] = coeff / spec.bandwidth_bytes_per_ns
                gate_rows[link, var] = coeff
            time_rows[link, self.y(link)] = spec.latency_ns
            time_rows[link, self.tmax_index] = -1.0
            gate_rows[link, self.y(link)] = -big_m
        self.constraints.append(
            LinearConstraint(time_rows.tocsr(), -np.inf, np.zeros(self.links))
        )
        self.constraints.append(
            LinearConstraint(gate_rows.tocsr(), -np.inf, np.zeros(self.links))
        )

    # -- pieces scipy needs -------------------------------------------------
    @property
    def objective(self) -> np.ndarray:
        c = np.zeros(self.num_vars)
        c[self.tmax_index] = 1.0
        return c

    @property
    def integrality(self) -> np.ndarray:
        kinds = np.zeros(self.num_vars)
        kinds[self.n_base : self.e_base] = 1  # n binaries
        kinds[self.y_base : self.y_base + self.links] = 1  # y binaries
        return kinds

    @property
    def bounds(self) -> Bounds:
        lower = np.zeros(self.num_vars)
        upper = np.ones(self.num_vars)
        upper[self.tmax_index] = np.inf
        return Bounds(lower, upper)

    def extract_assignment(self, x: np.ndarray) -> List[int]:
        assignment = []
        for p in range(self.parts):
            row = x[self.n(p, 0) : self.n(p, 0) + self.gpus]
            assignment.append(int(np.argmax(row)))
        return assignment
