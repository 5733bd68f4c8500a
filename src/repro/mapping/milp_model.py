"""Persistent, warm-started MILP backend (compile once, rebind, re-solve).

``solve_milp`` historically rebuilt the whole sparse model from scratch
on every call — row by row through ``lil_matrix`` — even when thousands
of requests shared one (graph-shape x platform) topology, which is
exactly the sweep-grid / ``repro serve`` burst profile.  This module
splits the solve into the two halves the ``HighsPySolver`` pattern
prescribes:

* **compile** (:class:`CompiledMilpModel`) — performed once per
  *structural signature* (:func:`milp_signature`): variable layout, the
  canonical CSC sparsity structure of every constraint block, constant
  coefficients, bounds, integrality, and a *value recipe* describing how
  each non-constant coefficient is computed from a concrete problem;
* **bind + solve** (:meth:`CompiledMilpModel.solve`) — per call: refill
  the value array from the problem's numeric payload (compute times,
  edge/broadcast byte counts, per-link Lat/BW, big-M), apply the
  budget's work limits, and run HiGHS — optionally warm-started from an
  injected incumbent via a MIP start, so the solver never has to
  rediscover what the portfolio's greedy/B&B stages already found.

The rebind recomputes *bit-identical* coefficient floats to a fresh
build (same accumulation order, same divisions), and every solve passes
the model to a fresh HiGHS instance, so fresh-vs-reused and
back-to-back solves of one instance return byte-identical results — the
standing determinism invariant ("model reuse must not change node
ordering for a fixed budget").

Backends, best first:

1. ``highspy`` (or SciPy's vendored HiGHS bindings) driven directly —
   supports MIP-start warm starts; option handling mirrors
   ``scipy.optimize.milp`` exactly, so the two backends agree
   bit-for-bit on the same arrays;
2. ``scipy.optimize.milp`` on the precompiled arrays — the fallback
   when no direct bindings exist; no warm start, but still skips the
   Python-side model assembly.

``REPRO_MILP_BACKEND`` (``auto``/``highs``/``scipy``) forces a backend;
the agreement tests use it.

>>> from repro.gpu.topology import default_topology
>>> from repro.mapping.budget import SolveBudget
>>> from repro.mapping.problem import MappingProblem
>>> p = MappingProblem(times=[4.0, 3.0, 2.0, 1.0], edges={(0, 1): 8.0},
...                    host_io=[(0.0, 0.0)] * 4,
...                    topology=default_topology(2))
>>> cache = MilpModelCache(capacity=4)
>>> model, reused = cache.get_or_compile(p)
>>> reused, cache.get_or_compile(p)[1]
(False, True)
>>> res = model.solve(p, SolveBudget.default())
>>> res["status"], round(res["fun"], 6)
(0, 7.0)
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.gpu.topology import topology_key_parts
from repro.mapping.budget import SolveBudget
from repro.mapping.problem import MappingProblem

#: environment variable forcing the solver backend (``auto`` picks the
#: direct HiGHS bindings when available, else the scipy fallback)
BACKEND_ENV = "REPRO_MILP_BACKEND"

#: default capacity of the process-wide model cache — one slot per
#: (graph-shape x platform) signature, LRU-evicted
DEFAULT_CACHE_CAPACITY = 32


# ----------------------------------------------------------------------
# backend resolution
# ----------------------------------------------------------------------
def _load_highs_bindings():
    """(module, Highs class) of the best available direct bindings."""
    try:  # the public package, when the container has it
        import highspy

        return highspy, highspy.Highs
    except ImportError:
        pass
    try:  # SciPy >= 1.15 vendors the same pybind11 bindings
        from scipy.optimize._highspy import _core

        return _core, _core._Highs
    except ImportError:
        return None, None


_HIGHS, _HIGHS_CLS = _load_highs_bindings()


def highs_backend_available() -> bool:
    """Whether the direct (warm-startable) HiGHS bindings are loadable.

    >>> isinstance(highs_backend_available(), bool)
    True
    """
    return _HIGHS_CLS is not None


def _resolve_backend() -> str:
    """The backend this solve should use: ``"highs"`` or ``"scipy"``."""
    forced = os.environ.get(BACKEND_ENV, "auto").strip().lower()
    if forced in ("", "auto"):
        return "highs" if highs_backend_available() else "scipy"
    if forced == "highs":
        if not highs_backend_available():
            raise RuntimeError(
                f"{BACKEND_ENV}=highs but no HiGHS bindings are importable"
            )
        return "highs"
    if forced == "scipy":
        return "scipy"
    raise ValueError(
        f"unknown {BACKEND_ENV} value {forced!r}; use auto, highs, or scipy"
    )


# HighsModelStatus -> scipy status code, mirroring scipy's
# ``_highs_to_scipy_status_message`` so ``milp_status`` solve stats are
# backend-independent.  Statuses carrying a usable incumbent are the
# same set scipy's wrapper accepts.
_SCIPY_STATUS = {
    "kNotset": 4, "kLoadError": 4, "kModelError": 2, "kPresolveError": 4,
    "kSolveError": 4, "kPostsolveError": 4, "kModelEmpty": 4,
    "kObjectiveBound": 4, "kObjectiveTarget": 4, "kOptimal": 0,
    "kTimeLimit": 1, "kIterationLimit": 1, "kInfeasible": 2,
    "kUnbounded": 3, "kUnboundedOrInfeasible": 4,
}
_HAS_SOLUTION = ("kOptimal", "kTimeLimit", "kIterationLimit",
                 "kSolutionLimit")


# ----------------------------------------------------------------------
# structural signature
# ----------------------------------------------------------------------
def symmetry_orbit(problem: MappingProblem) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """The symmetry-breaking pin: ``(anchor partition, banned GPUs)``.

    GPUs with identical route signatures (per-link spec profile of every
    route to every peer and to the host, plus the GPU's own slowdown)
    are interchangeable; the heaviest partition is pinned to orbit
    representatives.  ``None`` when every GPU is its own orbit (nothing
    to break).  This is the same computation the legacy builder ran
    inline; it is exposed so the structural signature can include it.

    >>> from repro.gpu.topology import default_topology
    >>> from repro.mapping.problem import MappingProblem
    >>> p = MappingProblem(times=[5.0, 1.0], edges={},
    ...                    host_io=[(0.0, 0.0)] * 2,
    ...                    topology=default_topology(2))
    >>> symmetry_orbit(p)
    (0, (1,))
    """
    topo = problem.topology
    gpus = problem.num_gpus

    def route_profile(route):
        return tuple(
            (
                topo.links[l].spec.bandwidth_bytes_per_ns,
                topo.links[l].spec.latency_ns,
            )
            for l in route
        )

    signatures: Dict[object, int] = {}
    for gpu in range(gpus):
        slowdown = (
            problem.gpu_slowdown[gpu]
            if problem.gpu_slowdown is not None
            else 1.0
        )
        sig = (
            tuple(sorted(route_profile(topo.route(gpu, other))
                         for other in range(gpus) if other != gpu)),
            route_profile(topo.route_to_host(gpu)),
            slowdown,
        )
        signatures.setdefault(sig, gpu)
    representatives = set(signatures.values())
    if len(representatives) == gpus:
        return None
    banned = tuple(j for j in range(gpus) if j not in representatives)
    if not banned:
        return None
    anchor = max(
        range(problem.num_partitions), key=lambda p: problem.times[p]
    )
    return anchor, banned


def milp_signature(
    problem: MappingProblem, include_comm: bool = True
) -> Tuple:
    """The structural identity a compiled model can be reused across.

    Everything that shapes the *sparsity structure* enters: partition
    and GPU counts, the edge-list structure, broadcast groups, the
    host-IO sparsity pattern, routing mode, ``include_comm``, the full
    platform content (via :func:`~repro.gpu.topology.topology_key_parts`
    — per link specs included, so "same machine" means byte-identical
    machine), and the symmetry-breaking orbit.  Numeric payload
    (compute times, byte counts, big-M, budget knobs) deliberately stays
    out — it is rebound per solve.

    >>> from repro.gpu.topology import default_topology
    >>> from repro.mapping.problem import MappingProblem
    >>> a = MappingProblem(times=[4.0, 2.0], edges={(0, 1): 8.0},
    ...                    host_io=[(0.0, 0.0)] * 2,
    ...                    topology=default_topology(2))
    >>> b = MappingProblem(times=[9.0, 1.0], edges={(0, 1): 64.0},
    ...                    host_io=[(0.0, 0.0)] * 2,
    ...                    topology=default_topology(2))
    >>> milp_signature(a) == milp_signature(b)  # same shape, new numbers
    True
    >>> milp_signature(a) == milp_signature(a, include_comm=False)
    False
    """
    machine = json.dumps(
        topology_key_parts(problem.topology), sort_keys=True,
        separators=(",", ":"), default=str,
    )
    return (
        problem.num_partitions,
        problem.num_gpus,
        bool(include_comm),
        bool(problem.peer_to_peer),
        bool(problem.include_host_io),
        tuple(sorted(problem.edges)),
        tuple((g.src, tuple(g.destinations)) for g in problem.broadcasts),
        tuple((inp > 0, out > 0) for inp, out in problem.host_io),
        machine,
        symmetry_orbit(problem),
    )


# ----------------------------------------------------------------------
# the compiled model
# ----------------------------------------------------------------------
class CompiledMilpModel:
    """One structural signature's compiled MILP (see module docstring).

    Instances are immutable after compilation: every solve allocates its
    own value array, so one model can serve concurrent threads.  Build
    via :meth:`MilpModelCache.get_or_compile` (or directly for tests).

    Variable layout (identical to the legacy builder)::

        n_pj   P*G binaries       partition p on GPU j
        e_*    |E|*G*(G-1) reals  linearized products
        z_*    |B|*G*(G-1) reals  broadcast-pair products
        y_l    L binaries         link l carries traffic
        Tmax   1 real             the objective
    """

    def __init__(self, problem: MappingProblem, include_comm: bool = True) -> None:
        self.signature = milp_signature(problem, include_comm)
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
        self.pair_index = {pair: i for i, pair in enumerate(self.pairs)}
        self.n_base = 0
        self.e_base = self.parts * self.gpus
        self.z_base = self.e_base + len(self.edge_list) * len(self.pairs)
        self.y_base = self.z_base + len(problem.broadcasts) * len(self.pairs)
        self.links = problem.topology.num_links if include_comm else 0
        self.tmax_index = self.y_base + self.links
        self.num_vars = self.tmax_index + 1
        self._compile(problem)

    # -- variable indexing (same layout as the legacy builder) ----------
    def n(self, p: int, j: int) -> int:
        return self.n_base + p * self.gpus + j

    def e(self, edge_idx: int, pair_idx: int) -> int:
        return self.e_base + edge_idx * len(self.pairs) + pair_idx

    def z(self, group_idx: int, pair_idx: int) -> int:
        return self.z_base + group_idx * len(self.pairs) + pair_idx

    def y(self, link: int) -> int:
        return self.y_base + link

    # ------------------------------------------------------------------
    # compile: structure + constant template + value recipe
    # ------------------------------------------------------------------
    def _compile(self, problem: MappingProblem) -> None:
        rows: List[int] = []
        cols: List[int] = []
        template: List[float] = []  # constants; 0.0 where rebound
        row_lower: List[float] = []
        row_upper: List[float] = []
        # value recipe --------------------------------------------------
        time_pos: List[int] = []   # entry -> problem.time_on(p, j)
        time_p: List[int] = []
        time_j: List[int] = []
        lat_pos: List[int] = []    # entry -> link latency
        lat_link: List[int] = []
        bigm_pos: List[int] = []   # entry -> -big_m
        # load pairs: acc over contributions, then /BW for the time row
        pair_time_pos: List[int] = []
        pair_gate_pos: List[int] = []
        pair_link: List[int] = []
        contrib_pair: List[int] = []  # (pair slot, byte-source index)
        contrib_src: List[int] = []
        inf = float("inf")

        def entry(r: int, c: int, v: float) -> int:
            rows.append(r)
            cols.append(c)
            template.append(v)
            return len(template) - 1

        row = 0
        # assignment rows: sum_j n_pj == 1 ------------------------------
        for p in range(self.parts):
            for j in range(self.gpus):
                entry(row, self.n(p, j), 1.0)
            row_lower.append(1.0)
            row_upper.append(1.0)
            row += 1
        # gpu-time rows: sum_p T_pj n_pj - Tmax <= 0 --------------------
        for j in range(self.gpus):
            for p in range(self.parts):
                pos = entry(row, self.n(p, j), 0.0)
                time_pos.append(pos)
                time_p.append(p)
                time_j.append(j)
            entry(row, self.tmax_index, -1.0)
            row_lower.append(-inf)
            row_upper.append(0.0)
            row += 1
        if self.include_comm:
            # product rows: n_ik + n_jh - e <= 1 ------------------------
            for edge_idx, (i, j) in enumerate(self.edge_list):
                for pair_idx, (k, h) in enumerate(self.pairs):
                    entry(row, self.n(i, k), 1.0)
                    entry(row, self.n(j, h), 1.0)
                    entry(row, self.e(edge_idx, pair_idx), -1.0)
                    row_lower.append(-inf)
                    row_upper.append(1.0)
                    row += 1
            # broadcast rows: n_src,k + n_j,h - z <= 1 ------------------
            for g_idx, group in enumerate(problem.broadcasts):
                for pair_idx, (k, h) in enumerate(self.pairs):
                    for j in group.destinations:
                        entry(row, self.n(group.src, k), 1.0)
                        entry(row, self.n(j, h), 1.0)
                        entry(row, self.z(g_idx, pair_idx), -1.0)
                        row_lower.append(-inf)
                        row_upper.append(1.0)
                        row += 1
            # per-link load expressions, replicated in the legacy
            # accumulation order (edges, broadcasts, host I/O), each
            # contribution a byte-source index into the bind vector
            loads: List[Dict[int, List[int]]] = [
                dict() for _ in range(self.links)
            ]
            n_edges = len(self.edge_list)
            n_bcast = len(problem.broadcasts)
            topo = problem.topology

            def route_of(k: int, h: int):
                return (
                    topo.route(k, h)
                    if problem.peer_to_peer
                    else topo.route_via_host(k, h)
                )

            for edge_idx in range(n_edges):
                for pair_idx, (k, h) in enumerate(self.pairs):
                    var = self.e(edge_idx, pair_idx)
                    for link in route_of(k, h):
                        loads[link].setdefault(var, []).append(edge_idx)
            for g_idx in range(n_bcast):
                for pair_idx, (k, h) in enumerate(self.pairs):
                    var = self.z(g_idx, pair_idx)
                    for link in route_of(k, h):
                        loads[link].setdefault(var, []).append(
                            n_edges + g_idx
                        )
            if problem.include_host_io:
                for p, (inp, out) in enumerate(problem.host_io):
                    for j in range(self.gpus):
                        var = self.n(p, j)
                        if inp:
                            for link in topo.route_from_host(j):
                                loads[link].setdefault(var, []).append(
                                    n_edges + n_bcast + p
                                )
                        if out:
                            for link in topo.route_to_host(j):
                                loads[link].setdefault(var, []).append(
                                    n_edges + n_bcast + self.parts + p
                                )
            # link-time rows: D_l/BW_l + Lat_l*y_l - Tmax <= 0 ----------
            pair_slot: Dict[Tuple[int, int], int] = {}
            for link in range(self.links):
                for var, sources in loads[link].items():
                    pos = entry(row, var, 0.0)
                    slot = len(pair_link)
                    pair_slot[(link, var)] = slot
                    pair_time_pos.append(pos)
                    pair_gate_pos.append(-1)  # patched below
                    pair_link.append(link)
                    for src in sources:
                        contrib_pair.append(slot)
                        contrib_src.append(src)
                pos = entry(row, self.y(link), 0.0)
                lat_pos.append(pos)
                lat_link.append(link)
                entry(row, self.tmax_index, -1.0)
                row_lower.append(-inf)
                row_upper.append(0.0)
                row += 1
            # gate rows: D_l - M*y_l <= 0 -------------------------------
            for link in range(self.links):
                for var in loads[link]:
                    pos = entry(row, var, 0.0)
                    pair_gate_pos[pair_slot[(link, var)]] = pos
                pos = entry(row, self.y(link), 0.0)
                bigm_pos.append(pos)
                row_lower.append(-inf)
                row_upper.append(0.0)
                row += 1
        # symmetry-breaking row (structure captured by the signature) ---
        orbit = self.signature[-1]
        if orbit is not None:
            anchor, banned = orbit
            for j in banned:
                entry(row, self.n(anchor, j), 1.0)
            row_lower.append(0.0)
            row_upper.append(0.0)
            row += 1
        self.num_rows = row

        # canonical CSC structure; the permutation maps the recipe-order
        # value array into CSC data order (canonical form is unique, so
        # this matches what scipy's constraint conversion produces)
        nnz = len(template)
        coo = sparse.coo_matrix(
            (np.arange(1, nnz + 1, dtype=np.int64),
             (np.asarray(rows, dtype=np.int64),
              np.asarray(cols, dtype=np.int64))),
            shape=(self.num_rows, self.num_vars),
        )
        csc = coo.tocsc()
        csc.sort_indices()
        self._csc_indptr = csc.indptr
        self._csc_indices = csc.indices
        self._csc_perm = np.asarray(csc.data, dtype=np.int64) - 1
        self._template = np.asarray(template, dtype=np.float64)
        self.row_lower = np.asarray(row_lower, dtype=np.float64)
        self.row_upper = np.asarray(row_upper, dtype=np.float64)

        self._time_pos = np.asarray(time_pos, dtype=np.int64)
        self._time_p = np.asarray(time_p, dtype=np.int64)
        self._time_j = np.asarray(time_j, dtype=np.int64)
        self._lat_pos = np.asarray(lat_pos, dtype=np.int64)
        self._lat_link = np.asarray(lat_link, dtype=np.int64)
        self._bigm_pos = np.asarray(bigm_pos, dtype=np.int64)
        self._pair_time_pos = np.asarray(pair_time_pos, dtype=np.int64)
        self._pair_gate_pos = np.asarray(pair_gate_pos, dtype=np.int64)
        self._pair_link = np.asarray(pair_link, dtype=np.int64)
        self._contrib_pair = np.asarray(contrib_pair, dtype=np.int64)
        self._contrib_src = np.asarray(contrib_src, dtype=np.int64)

        # objective / bounds / integrality ------------------------------
        c = np.zeros(self.num_vars)
        c[self.tmax_index] = 1.0
        self.objective = c
        lower = np.zeros(self.num_vars)
        upper = np.ones(self.num_vars)
        upper[self.tmax_index] = np.inf
        self.col_lower = lower
        self.col_upper = upper
        kinds = np.zeros(self.num_vars, dtype=np.uint8)
        kinds[self.n_base:self.e_base] = 1
        kinds[self.y_base:self.y_base + self.links] = 1
        self.integrality = kinds

    # ------------------------------------------------------------------
    # bind: numeric payload -> CSC value array
    # ------------------------------------------------------------------
    def matches(self, problem: MappingProblem, include_comm: bool = True) -> bool:
        """Whether ``problem`` shares this model's structural signature.

        >>> from repro.gpu.topology import default_topology
        >>> from repro.mapping.problem import MappingProblem
        >>> p = MappingProblem(times=[4.0, 2.0], edges={},
        ...                    host_io=[(0.0, 0.0)] * 2,
        ...                    topology=default_topology(2))
        >>> CompiledMilpModel(p).matches(p)
        True
        """
        return self.signature == milp_signature(problem, include_comm)

    def bind(self, problem: MappingProblem) -> np.ndarray:
        """The CSC ``data`` array for ``problem``'s numeric payload.

        Coefficients are recomputed with the exact float operations (and
        accumulation order) of a from-scratch build, so a rebound model
        is indistinguishable from a fresh one.  A new array is allocated
        per call — the compiled model stays immutable and thread-safe.
        """
        values = self._template.copy()
        # per-partition compute times (heterogeneous slowdowns included)
        if self._time_pos.size:
            times = np.asarray(problem.times, dtype=np.float64)
            if problem.gpu_slowdown is None:
                values[self._time_pos] = times[self._time_p]
            else:
                slow = np.asarray(problem.gpu_slowdown, dtype=np.float64)
                values[self._time_pos] = (
                    times[self._time_p] * slow[self._time_j]
                )
        if self.include_comm and self.links:
            topo = problem.topology
            bw = np.asarray(
                [l.spec.bandwidth_bytes_per_ns for l in topo.links],
                dtype=np.float64,
            )
            lat = np.asarray(
                [l.spec.latency_ns for l in topo.links], dtype=np.float64
            )
            byte_sources = np.concatenate([
                np.asarray(
                    [problem.edges[e] for e in self.edge_list],
                    dtype=np.float64,
                ).reshape(-1),
                np.asarray(
                    [g.nbytes for g in problem.broadcasts], dtype=np.float64
                ).reshape(-1),
                np.asarray(
                    [io[0] for io in problem.host_io], dtype=np.float64
                ).reshape(-1),
                np.asarray(
                    [io[1] for io in problem.host_io], dtype=np.float64
                ).reshape(-1),
            ]) if (self.edge_list or problem.broadcasts or problem.host_io) \
                else np.zeros(0)
            acc = np.zeros(self._pair_link.size, dtype=np.float64)
            # ufunc.at adds sequentially in recipe order — the same left
            # fold the legacy dict accumulation performed
            np.add.at(acc, self._contrib_pair, byte_sources[self._contrib_src])
            values[self._pair_time_pos] = acc / bw[self._pair_link]
            values[self._pair_gate_pos] = acc
            values[self._lat_pos] = lat[self._lat_link]
            big_m = (
                sum(problem.edges.values()) * self.gpus
                + sum(g.nbytes * self.gpus for g in problem.broadcasts)
                + sum(i + o for i, o in problem.host_io)
                + 1.0
            )
            values[self._bigm_pos] = -big_m
        return values[self._csc_perm]

    # ------------------------------------------------------------------
    # warm start
    # ------------------------------------------------------------------
    def warm_values(
        self, problem: MappingProblem, assignment: Sequence[int]
    ) -> np.ndarray:
        """A full feasible variable vector for an incumbent assignment.

        Used as the MIP start: ``n`` from the assignment, product and
        broadcast variables at their implied values, ``y`` from the
        evaluator's link loads, ``Tmax`` at the incumbent's objective.
        """
        x = np.zeros(self.num_vars)
        for p, gpu in enumerate(assignment):
            x[self.n(p, int(gpu))] = 1.0
        if self.include_comm:
            for edge_idx, (i, j) in enumerate(self.edge_list):
                k, h = assignment[i], assignment[j]
                if k != h:
                    x[self.e(edge_idx, self.pair_index[(k, h)])] = 1.0
            for g_idx, group in enumerate(problem.broadcasts):
                k = assignment[group.src]
                dest_gpus = {assignment[j] for j in group.destinations}
                dest_gpus.discard(k)
                for h in sorted(dest_gpus):
                    x[self.z(g_idx, self.pair_index[(k, h)])] = 1.0
            for link, load in enumerate(problem.link_loads(assignment)):
                if load > 0:
                    x[self.y(link)] = 1.0
        x[self.tmax_index] = problem.tmax(list(assignment))
        return x

    # ------------------------------------------------------------------
    # solve
    # ------------------------------------------------------------------
    def solve(
        self,
        problem: MappingProblem,
        budget: SolveBudget,
        incumbent: Optional[Sequence[int]] = None,
        backend: Optional[str] = None,
    ) -> Dict[str, object]:
        """Bind ``problem`` and solve under ``budget``'s work limits.

        Returns a scipy-shaped result dict: ``status`` (scipy code; 0 =
        optimal), ``x`` (``None`` when no incumbent was found),
        ``fun``, ``mip_node_count``, ``mip_gap``, ``message``, and
        ``warm_started`` (whether a MIP start was injected — only the
        direct backend supports it).  Raises nothing on capped solves;
        the caller decides what a ``None`` ``x`` means.
        """
        if not self.matches(problem, self.include_comm):
            raise ValueError("problem does not match this compiled model")
        data = self.bind(problem)
        backend = backend or _resolve_backend()
        options: Dict[str, object] = {"mip_rel_gap": budget.mip_rel_gap}
        if budget.milp_node_limit is not None:
            options["node_limit"] = budget.milp_node_limit
        if budget.time_limit_s is not None:
            options["time_limit"] = budget.time_limit_s
        if backend == "highs":
            warm = (
                self.warm_values(problem, incumbent)
                if incumbent is not None
                else None
            )
            return self._solve_direct(data, options, warm)
        return self._solve_scipy(data, options)

    def _solve_scipy(self, data, options) -> Dict[str, object]:
        """The ``scipy.optimize.milp`` fallback on precompiled arrays."""
        from scipy.optimize import Bounds, LinearConstraint, milp

        matrix = sparse.csc_matrix(
            (data, self._csc_indices, self._csc_indptr),
            shape=(self.num_rows, self.num_vars),
        )
        res = milp(
            c=self.objective,
            constraints=LinearConstraint(
                matrix, self.row_lower, self.row_upper
            ),
            integrality=self.integrality,
            bounds=Bounds(self.col_lower, self.col_upper),
            options={
                "mip_rel_gap": options["mip_rel_gap"],
                **(
                    {"node_limit": options["node_limit"]}
                    if "node_limit" in options else {}
                ),
                **(
                    {"time_limit": options["time_limit"]}
                    if "time_limit" in options else {}
                ),
            },
        )
        return {
            "status": int(res.status),
            "x": res.x,
            "fun": res.fun,
            "mip_node_count": getattr(res, "mip_node_count", None),
            "mip_gap": getattr(res, "mip_gap", None),
            "message": res.message,
            "warm_started": False,
        }

    def _solve_direct(self, data, options, warm) -> Dict[str, object]:
        """Drive the HiGHS bindings the way scipy's wrapper does, plus
        the MIP start the wrapper cannot express."""
        h = _HIGHS
        lp = h.HighsLp()
        lp.num_col_ = self.num_vars
        lp.num_row_ = self.num_rows
        lp.a_matrix_.num_col_ = self.num_vars
        lp.a_matrix_.num_row_ = self.num_rows
        lp.a_matrix_.format_ = h.MatrixFormat.kColwise
        lp.col_cost_ = self.objective
        lp.col_lower_ = self.col_lower
        lp.col_upper_ = self.col_upper
        lp.row_lower_ = self.row_lower
        lp.row_upper_ = self.row_upper
        lp.a_matrix_.start_ = self._csc_indptr
        lp.a_matrix_.index_ = self._csc_indices
        lp.a_matrix_.value_ = data
        lp.integrality_ = [
            h.HighsVarType(int(i)) for i in self.integrality
        ]
        # a fresh instance per solve: no solver-state carryover, so
        # fresh-vs-reused solves are bit-identical by construction
        highs = _HIGHS_CLS()
        opts = h.HighsOptions()
        opts.log_to_console = False
        opts.mip_rel_gap = float(options["mip_rel_gap"])
        if "node_limit" in options:
            opts.mip_max_nodes = int(options["node_limit"])
        if "time_limit" in options:
            opts.time_limit = float(options["time_limit"])
        highs.passOptions(opts)
        highs.passModel(lp)
        warm_started = False
        if warm is not None:
            solution = h.HighsSolution()
            solution.col_value = warm
            warm_started = (
                highs.setSolution(solution) == h.HighsStatus.kOk
            )
        highs.run()
        status = highs.getModelStatus()
        info = highs.getInfo()
        name = status.name
        has_solution = name in _HAS_SOLUTION and (
            info.objective_function_value != h.kHighsInf
        )
        scipy_status = _SCIPY_STATUS.get(
            name, 1 if name == "kSolutionLimit" else 4
        )
        if not has_solution:
            return {
                "status": scipy_status,
                "x": None,
                "fun": None,
                "mip_node_count": info.mip_node_count,
                "mip_gap": None,
                "message": f"model_status is {name}",
                "warm_started": warm_started,
            }
        return {
            "status": scipy_status,
            "x": np.array(highs.getSolution().col_value),
            "fun": info.objective_function_value,
            "mip_node_count": info.mip_node_count,
            "mip_gap": info.mip_gap,
            "message": f"model_status is {name}",
            "warm_started": warm_started,
        }

    def extract_assignment(self, x: np.ndarray) -> List[int]:
        """Partition-to-GPU assignment from a solution vector.

        >>> from repro.gpu.topology import default_topology
        >>> from repro.mapping.budget import SolveBudget
        >>> from repro.mapping.problem import MappingProblem
        >>> p = MappingProblem(times=[4.0, 3.0], edges={},
        ...                    host_io=[(0.0, 0.0)] * 2,
        ...                    topology=default_topology(2))
        >>> m = CompiledMilpModel(p)
        >>> m.extract_assignment(m.solve(p, SolveBudget.default())["x"])
        [0, 1]
        """
        assignment = []
        for p in range(self.parts):
            row = x[self.n(p, 0):self.n(p, 0) + self.gpus]
            assignment.append(int(np.argmax(row)))
        return assignment


# ----------------------------------------------------------------------
# the bounded model cache
# ----------------------------------------------------------------------
class MilpModelCache:
    """Thread-safe bounded LRU cache of :class:`CompiledMilpModel`.

    Keyed by :func:`milp_signature` — one slot per (graph-shape x
    platform) structure, like the service's StageCache slots key
    machine content.  Models are immutable, so cache hits can be solved
    concurrently without checkout; eviction is LRU at ``capacity``.

    >>> cache = MilpModelCache(capacity=2)
    >>> cache.stats()
    {'hits': 0, 'misses': 0, 'evictions': 0, 'size': 0, 'capacity': 2}
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._models: "OrderedDict[Tuple, CompiledMilpModel]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get_or_compile(
        self, problem: MappingProblem, include_comm: bool = True
    ) -> Tuple[CompiledMilpModel, bool]:
        """The signature's compiled model, plus whether it was reused.

        >>> from repro.gpu.topology import default_topology
        >>> from repro.mapping.problem import MappingProblem
        >>> p = MappingProblem(times=[4.0, 2.0], edges={},
        ...                    host_io=[(0.0, 0.0)] * 2,
        ...                    topology=default_topology(2))
        >>> cache = MilpModelCache()
        >>> _, first = cache.get_or_compile(p)
        >>> _, second = cache.get_or_compile(p)
        >>> first, second
        (False, True)
        """
        signature = milp_signature(problem, include_comm)
        with self._lock:
            model = self._models.get(signature)
            if model is not None:
                self._models.move_to_end(signature)
                self._hits += 1
                return model, True
            self._misses += 1
        # compile outside the lock: concurrent first solves of distinct
        # signatures must not serialize on one compilation
        model = CompiledMilpModel(problem, include_comm)
        with self._lock:
            existing = self._models.get(signature)
            if existing is not None:  # lost a compile race; reuse theirs
                self._models.move_to_end(signature)
                return existing, True
            self._models[signature] = model
            while len(self._models) > self.capacity:
                self._models.popitem(last=False)
                self._evictions += 1
        return model, False

    def stats(self) -> Dict[str, int]:
        """Lifetime hit/miss/eviction counters plus the current size."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "size": len(self._models),
                "capacity": self.capacity,
            }

    def clear(self) -> None:
        """Drop every cached model (counters keep running).

        >>> cache = MilpModelCache()
        >>> cache.clear()
        >>> cache.stats()["size"]
        0
        """
        with self._lock:
            self._models.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)


#: the process-wide default cache ``solve_milp`` uses — shared by the
#: service's worker threads, the flow's ilp mapper, sweeps, and
#: diffcheck, so any call path that repeats a (graph-shape x platform)
#: signature pays one compile
MODEL_CACHE = MilpModelCache()
