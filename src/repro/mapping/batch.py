"""Vectorized population scoring over the compiled kernel's tables.

:class:`~repro.mapping.kernel.EvalKernel` made scoring one assignment
cheap and :class:`~repro.mapping.kernel.DeltaEvaluator` made scoring one
*move* cheap; :class:`BatchEvaluator` prices thousands of unrelated
candidates at once.  It lays the kernel's flattened edge / route /
compute tables out as structure-of-arrays NumPy buffers and scores a
whole population in a handful of vectorized passes.  No solver calls
it; it stays only as the subject of the benchmark's
``mapping.batch_cand_per_s`` probe.

**Exactness invariant.**  ``batch_tmax`` is *bit-identical* to looping
:meth:`~repro.mapping.problem.MappingProblem.tmax` — not approximately
equal.  Float sums do not commute, so the vectorized path reproduces the
interpreted evaluator's accumulation orders exactly:

* Per-link loads are folded by one ``np.bincount`` over a single index
  sequence whose per-candidate order is exactly the evaluator's: PDG
  edges in ``problem.edges`` iteration order (each edge's route links in
  route order), then broadcast groups in order (destinations ascending,
  as ``sorted(dest_gpus)`` yields them), then host I/O per partition
  ascending, input route before output route.  ``np.bincount``
  accumulates float64 weights sequentially in array order, so each
  load's fold order is the scalar one.  Candidates own disjoint bins
  (``candidate * (L + 1) + link``), so interleaving *across* candidates
  never reorders any single fold.
* Variable-length routes, inactive broadcast destinations, and padding
  all land in a per-candidate *dummy bin* that is dropped after the
  fold — no masking multiplications that could perturb floats.
* Per-GPU compute times are folded the same way (ascending partition
  id per GPU), and link times divide by bandwidth (never multiply by a
  reciprocal), matching the scalar kernel ulp for ulp.

``tests/test_batch_properties.py`` fuzzes this equivalence across the
named platforms and adversarial random float problems.

>>> from repro.gpu.topology import default_topology
>>> from repro.mapping.problem import MappingProblem
>>> p = MappingProblem(times=[4.0, 3.0, 2.0], edges={(0, 1): 64.0},
...                    host_io=[(64.0, 0.0), (0.0, 0.0), (0.0, 64.0)],
...                    topology=default_topology(2))
>>> be = BatchEvaluator(EvalKernel(p))
>>> pop = [[0, 0, 1], [0, 1, 1], [1, 1, 1]]
>>> be.batch_tmax(pop) == [p.tmax(a) for a in pop]
True
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.mapping.kernel import EvalKernel

__all__ = ["BatchEvaluator"]


class BatchEvaluator:
    """Structure-of-arrays population scorer over one compiled kernel."""

    def __init__(self, kernel: EvalKernel) -> None:
        self.kernel = kernel
        self._build_tables()

    # ------------------------------------------------------------------
    # table construction (once per problem)
    # ------------------------------------------------------------------
    def _build_tables(self) -> None:
        k = self.kernel
        G, L, P = k.num_gpus, k.num_links, k.num_partitions
        self._G, self._L, self._P = G, L, P
        #: bins per candidate: one per link plus the shared dummy bin
        self._stride = L + 1
        dummy = L
        # GPU-pair route rows, dummy-padded to the longest route; the
        # diagonal stays all-dummy because the evaluator skips
        # same-GPU edges entirely
        S = max((len(r) for row in k.routes for r in row), default=0) or 1
        rt = np.full((G * G, S), dummy, dtype=np.int64)
        for s in range(G):
            for d in range(G):
                if s != d:
                    route = k.routes[s][d]
                    rt[s * G + d, : len(route)] = route
        self._rt, self._S = rt, S
        # per-GPU host rows: input route then output route, each padded
        SH = max(
            [len(r) for r in k.host_in_routes]
            + [len(r) for r in k.host_out_routes] + [1]
        )
        htab = np.full((G, 2 * SH), dummy, dtype=np.int64)
        for g in range(G):
            route = k.host_in_routes[g]
            htab[g, : len(route)] = route
            route = k.host_out_routes[g]
            htab[g, SH: SH + len(route)] = route
        self._htab, self._SH = htab, SH
        self._ei = np.array([e[0] for e in k.edge_list], dtype=np.int64)
        self._ej = np.array([e[1] for e in k.edge_list], dtype=np.int64)
        self._ew = np.array([e[2] for e in k.edge_list])
        self._E = len(k.edge_list)
        self._bc = [
            (src, nbytes, np.array(dests, dtype=np.int64))
            for src, nbytes, dests in k.broadcasts
        ]
        self._hio = [
            (pid, inp, out)
            for pid, (inp, out) in enumerate(k.host_io)
            if (inp or out) and k.include_host_io
        ]
        self._hpids = np.array([h[0] for h in self._hio], dtype=np.int64)
        self._H = len(self._hio)
        self._K = (
            self._E * S + len(self._bc) * G * S + self._H * 2 * SH
        )
        self._ptime_flat = np.array(k.ptime).reshape(-1) if P else (
            np.zeros(0)
        )
        self._pidbase = (np.arange(P) * G)[:, None]
        self._lat = np.array(k.latency)[None, :]
        self._bw = np.array(k.bandwidth)[None, :]
        self._per_n: dict = {}

    def _buffers(self, N: int):
        """Per-population-size scratch: pre-offset gather tables (the
        candidate's bin offset is baked into every table row, so no
        pass over the index buffer ever adds offsets), the expanded
        weight vector, and reusable gather buffers."""
        got = self._per_n.get(N)
        if got is not None:
            return got
        G, S, SH = self._G, self._S, self._SH
        n = np.arange(N)
        off = n * self._stride
        rt_off = np.ascontiguousarray(
            (self._rt[:, None, :] + off[None, :, None]).reshape(-1, S)
        )
        ht_off = np.ascontiguousarray(
            (self._htab[:, None, :] + off[None, :, None]).reshape(
                -1, 2 * SH
            )
        )
        # weights in the exact section order of the index buffer
        parts = [np.repeat(self._ew, S * N)]
        for _src, nbytes, _dests in self._bc:
            parts.append(np.full(G * N * S, nbytes))
        if self._H:
            hw = np.empty((self._H, 2 * SH))
            for i, (_pid, inp, out) in enumerate(self._hio):
                hw[i, :SH] = inp
                hw[i, SH:] = out
            parts.append(np.repeat(hw, N, axis=0).reshape(-1))
        weights = np.concatenate(parts) if parts else np.zeros(0)
        got = self._per_n[N] = (
            n,
            off + self._L,  # per-candidate dummy bin ids
            rt_off,
            ht_off,
            weights,
            n * self._G,
            np.empty(self._K * N, dtype=np.int64),
            np.empty((max(self._E, 1), N), dtype=np.int64),
            np.empty((max(self._P, 1), N), dtype=np.int64),
        )
        return got

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def batch_tmax(
        self, assignments: Sequence[Sequence[int]]
    ) -> List[float]:
        """Score every assignment; bit-identical to the scalar loop.

        Accepts any N x P sequence-of-sequences (or an ndarray) and
        returns one float per candidate, in order.

        >>> from repro.gpu.topology import default_topology
        >>> from repro.mapping.problem import MappingProblem
        >>> p = MappingProblem(times=[2.0, 1.0], edges={},
        ...                    host_io=[(0.0, 0.0), (0.0, 0.0)],
        ...                    topology=default_topology(2))
        >>> BatchEvaluator(EvalKernel(p)).batch_tmax([[0, 1], [0, 0]])
        [2.0, 3.0]
        """
        A = np.asarray(assignments, dtype=np.int64)
        if A.ndim != 2 and A.size == 0:
            return []
        if A.ndim != 2 or A.shape[1] != self.kernel.num_partitions:
            raise ValueError(
                "expected an N x num_partitions assignment matrix"
            )
        N = A.shape[0]
        if N == 0:
            return []
        if A.size and (A.min() < 0 or A.max() >= self._G):
            raise ValueError("GPU id out of range in population")
        return self._batch_numpy(A).tolist()

    def _batch_numpy(self, A):
        A = np.ascontiguousarray(A.T)  # (P, N): candidates are columns
        P, N = A.shape
        G, S, L, E = self._G, self._S, self._L, self._E
        (narange, dummy_bins, rt_off, ht_off, weights, goff, idx,
         pairbuf, gbuf) = self._buffers(N)
        pos = 0
        # -- PDG edges: (E, N, S) rows, one row gather per candidate pair
        if E:
            pair = np.take(A, self._ei, axis=0, out=pairbuf[:E])
            pair *= G
            pair += np.take(A, self._ej, axis=0)
            pair *= N
            pair += narange
            np.take(
                rt_off, pair.reshape(-1), axis=0,
                out=idx[pos:pos + E * S * N].reshape(E * N, S),
            )
            pos += E * S * N
        # -- broadcasts: per group, destination GPUs ascending ----------
        for src_pid, _nbytes, dests in self._bc:
            sec = idx[pos:pos + G * S * N].reshape(G, N, S)
            src = A[src_pid]
            dest_map = np.take(A, dests, axis=0)
            active = np.zeros((G, N), dtype=bool)
            active[dest_map, narange[None, :]] = True
            active[src, narange] = False  # the source GPU is discarded
            pairs = (
                src[None, :] * G + np.arange(G)[:, None]
            ) * N + narange
            np.take(rt_off, pairs.reshape(-1), axis=0,
                    out=sec.reshape(G * N, S))
            np.copyto(
                sec, dummy_bins[None, :, None], where=~active[:, :, None]
            )
            pos += G * S * N
        # -- host I/O: partitions ascending, input cols then output ----
        if self._H:
            gi = np.take(A, self._hpids, axis=0)
            gi *= N
            gi += narange
            width = 2 * self._SH
            np.take(
                ht_off, gi.reshape(-1), axis=0,
                out=idx[pos:pos + self._H * width * N].reshape(
                    self._H * N, width),
            )
            pos += self._H * width * N
        loads = np.bincount(
            idx[:pos], weights=weights[:pos],
            minlength=N * self._stride,
        ).reshape(N, self._stride)[:, :L]
        # -- per-GPU compute folds (ascending pid per accumulator) ------
        if P:
            flat = np.add(self._pidbase, A, out=gbuf[:P])
            ptimes = np.take(self._ptime_flat, flat)
            gids = np.add(A, goff[None, :], out=gbuf[:P])
            gpu_times = np.bincount(
                gids.reshape(-1), weights=ptimes.reshape(-1),
                minlength=N * G,
            ).reshape(N, G)
            gpu_side = gpu_times.max(axis=1)
        else:
            gpu_side = np.zeros(N)
        if L:
            link_times = np.where(
                loads != 0.0, self._lat + loads / self._bw, 0.0
            )
            comm = link_times.max(axis=1)
        else:
            comm = np.zeros(N)
        return np.maximum(gpu_side, comm)
