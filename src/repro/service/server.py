"""The mapping service: async request execution with deduplication.

``MappingService`` is the in-process serving layer over the Figure-3.1
flow.  A request is data with a kind — a
:class:`~repro.service.api.MappingRequest` (solve) or a
:class:`~repro.service.remap.RemapRequest` (repair a deployed mapping on
a degraded machine) — and both travel the same path through
:meth:`MappingService.submit`; what differs per kind is one
:data:`_KINDS` entry:

1. **canonicalize** — the kind's key function
   (:func:`~repro.service.api.request_key`,
   :func:`~repro.service.remap.remap_request_key`) reduces the request
   to (graph fingerprint, platform content, solver config[, degradation
   context]);
2. **dedup** — a key already DONE in the :class:`~repro.service.jobs.JobStore`
   answers instantly from the store; a key currently in flight shares
   the in-flight ticket (many submissions, one solve); everything else
   becomes a new job — on the :class:`~repro.service.queue.WorkQueue`
   for solves, run in the submitting thread for remaps;
3. **execute** — worker threads drain the queue in priority order and
   run the flow (optionally on a process pool), with every pipeline
   stage cached in a shared :class:`~repro.sweep.StageCache`, so even
   *non*-identical requests reuse each other's profile/partition work;
4. **answer** — the anytime portfolio guarantees a valid mapping under
   the request's budget tier; a request with a ``deadline_s`` is
   downgraded to the richest tier that still fits the remaining time,
   or failed outright if it expired while queued.

Everything is deterministic except opt-in deadlines: equal requests
yield equal answers, and the dedup layer makes that literal — they yield
the *same* answer object.  Deadline-downgraded and failed jobs are not
canonical: a downgraded completion is stored with a structural
``downgraded_from`` marker that dedup refuses to serve, so later
submissions of the same key re-solve at full budget instead of
replaying it — while a canonical copy of the same result is filed under
the *effective* tier's own key, where it is an untainted answer (the
one sharing window is a duplicate that attaches while a deadline job is
already in flight — it receives that job's possibly-downgraded answer,
like any in-flight rider).

>>> from repro.service.api import MappingRequest
>>> with MappingService(workers=2) as service:
...     tickets = [service.submit(MappingRequest(app="Bitonic", n=8,
...                                              num_gpus=2,
...                                              budget="instant"))
...                for _ in range(3)]
...     results = [t.result() for t in tickets]
>>> results[0] == results[1] == results[2]
True
>>> service.stats().solved, service.stats().dedup_hits
(1, 2)
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.flow import map_stream_graph
from repro.mapping.budget import TIER_ORDER
from repro.service.api import (
    MappingRequest,
    _base_request,
    _flow_kwargs,
    build_request_graph,
    request_key,
    request_to_json,
)
from repro.service.jobs import DONE, FAILED, QUEUED, RUNNING, Job, JobStore
from repro.service.portfolio import tier_for_deadline
from repro.service.queue import WorkQueue
from repro.service.remap import (
    RemapRequest,
    remap_request_key,
    remap_to_json,
    solve_remap_request,
)
from repro.sweep.cache import StageCache


class ServiceError(RuntimeError):
    """A job failed; carries the job's error message."""


def solve_request(
    request: MappingRequest,
    budget_tier: Optional[str] = None,
    cache: Optional[StageCache] = None,
) -> dict:
    """Run one request through the flow; returns the compact result.

    This is the service's unit of real work — everything around it
    (dedup, queueing, deadlines) exists to avoid calling it twice for
    the same answer.  ``budget_tier`` overrides the request's tier (the
    deadline downgrade path); the result is plain JSON so it crosses
    process-pool and wire boundaries unchanged.

    >>> from repro.service.api import MappingRequest
    >>> out = solve_request(MappingRequest(app="Bitonic", n=8, num_gpus=2,
    ...                                    budget="instant"))
    >>> out["num_gpus"], out["budget"], len(out["assignment"]) >= 1
    (2, 'instant', True)
    """
    tier = budget_tier or request.budget
    flow = map_stream_graph(
        build_request_graph(request),
        num_gpus=request.num_gpus,
        platform=request.platform,
        cache=cache,
        **_flow_kwargs(request, tier),
    )
    return {
        "assignment": list(flow.mapping.assignment),
        "tmax": flow.mapping.tmax,
        "solver": flow.mapping.solver,
        "optimal": flow.mapping.optimal,
        "num_partitions": flow.num_partitions,
        "num_gpus": flow.num_gpus,
        "throughput": flow.throughput,
        "beat_ns": flow.report.beat_ns,
        "budget": tier,
    }


def _process_worker(payload) -> dict:
    """Process-pool entry: one solve against the shared on-disk cache."""
    from repro.service.api import request_from_json

    request_json, budget_tier, cache_path = payload
    cache = StageCache(cache_path) if cache_path is not None else None
    result = solve_request(
        request_from_json(request_json), budget_tier, cache
    )
    if cache is not None:
        # the child's counters die with it unless folded into the
        # directory's shared stats file (repro cache stats reads it)
        cache.persist_stats()
    return result


@dataclass
class ServiceStats:
    """Service-lifetime counters (all monotone)."""

    submitted: int = 0
    solved: int = 0
    failed: int = 0
    #: duplicate of a job still in flight — shared its ticket
    dedup_inflight: int = 0
    #: duplicate of a completed job — answered from the store
    dedup_completed: int = 0
    #: failed before solving because the deadline expired in the queue
    expired: int = 0

    @property
    def dedup_hits(self) -> int:
        return self.dedup_inflight + self.dedup_completed

    def to_json(self) -> dict:
        return {
            "submitted": self.submitted,
            "solved": self.solved,
            "failed": self.failed,
            "dedup_inflight": self.dedup_inflight,
            "dedup_completed": self.dedup_completed,
            "expired": self.expired,
        }

    def render(self) -> str:
        """One-line human summary."""
        return (
            f"{self.submitted} submitted: {self.solved} solved, "
            f"{self.dedup_hits} deduped "
            f"({self.dedup_inflight} in-flight, "
            f"{self.dedup_completed} completed), "
            f"{self.failed} failed, {self.expired} expired"
        )


#: upper bucket bounds (seconds) of the per-tier solve-latency
#: histograms — the classic Prometheus ladder, µs heuristics through
#: multi-second MILP proofs
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class _LatencyHistogram:
    """Cumulative-bucket latency histogram (one per budget tier).

    Mutated only under the service lock; :meth:`snapshot` returns plain
    data so readers never alias live state.
    """

    __slots__ = ("counts", "count", "total")

    def __init__(self) -> None:
        self.counts = [0] * len(LATENCY_BUCKETS)
        self.count = 0
        self.total = 0.0

    def observe(self, seconds: float) -> None:
        for i, bound in enumerate(LATENCY_BUCKETS):
            if seconds <= bound:
                self.counts[i] += 1
        self.count += 1
        self.total += seconds

    def snapshot(self) -> dict:
        return {
            "buckets": [
                [bound, count]
                for bound, count in zip(LATENCY_BUCKETS, self.counts)
            ],
            "count": self.count,
            "sum": self.total,
        }


class _JobTicket:
    """The shared completion handle of one in-flight job."""

    def __init__(self, key: str, request, kind: "_Kind") -> None:
        self.key = key
        #: the submitted request object, of either kind
        self.request = request
        self.kind = kind
        #: the plain request under it — budget tier and scheduling fields
        self.base = _base_request(request)
        self.enqueued_at = time.monotonic()
        self._event = threading.Event()
        self.payload: Optional[dict] = None

    def resolve(self, payload: dict) -> None:
        self.payload = payload
        self._event.set()

    def wait(self, timeout: Optional[float] = None) -> dict:
        if not self._event.wait(timeout):
            raise TimeoutError(f"job {self.key[:16]} still pending")
        assert self.payload is not None
        return self.payload


class Ticket:
    """What :meth:`MappingService.submit` returns — one submission's view
    of a (possibly shared) job."""

    def __init__(
        self, job: _JobTicket, dedup: Optional[str], tag: Optional[str]
    ) -> None:
        self._job = job
        #: ``None`` (this submission caused the solve), ``"inflight"``,
        #: or ``"completed"``
        self.dedup = dedup
        self.tag = tag

    @property
    def key(self) -> str:
        """The canonical request key this submission resolved to."""
        return self._job.key

    @property
    def done(self) -> bool:
        return self._job.payload is not None

    def response(self, timeout: Optional[float] = None) -> dict:
        """The full wire response (state, result/error, dedup, tag)."""
        payload = dict(self._job.wait(timeout))
        payload["key"] = self.key
        payload["dedup"] = self.dedup
        if self.tag is not None:
            payload["tag"] = self.tag
        return payload

    def result(self, timeout: Optional[float] = None) -> dict:
        """The solve result; raises :class:`ServiceError` on failure."""
        payload = self._job.wait(timeout)
        if payload["state"] != DONE:
            raise ServiceError(payload.get("error") or "job failed")
        return payload["result"]


class MappingService:
    """In-process async mapping service (see module docstring).

    Parameters
    ----------
    cache:
        Shared :class:`~repro.sweep.StageCache` for pipeline-stage reuse
        across requests.  ``None`` creates a private in-memory cache.
    store:
        :class:`~repro.service.jobs.JobStore` for completed-job dedup;
        give it a directory to survive restarts.  ``None`` keeps jobs in
        memory for the service's lifetime.
    workers:
        Worker-thread count (and, in process mode, the pool size).
    executor:
        ``"thread"`` (default) solves in the worker threads;
        ``"process"`` fans solves out to a process pool — requires a
        disk-backed cache (a memory-only cache cannot cross the pool
        boundary, so it forces thread mode, mirroring the sweep runner).
    solve_fn:
        Test seam: replaces :func:`solve_request`.
    """

    #: LRU capacity of the graph-fingerprint memo
    FINGERPRINT_CACHE_SIZE = 512

    def __init__(
        self,
        cache: Optional[StageCache] = None,
        store: Optional[JobStore] = None,
        workers: int = 1,
        executor: str = "thread",
        solve_fn: Optional[Callable] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if executor not in ("thread", "process"):
            raise ValueError(f"unknown executor {executor!r}")
        self.cache = cache if cache is not None else StageCache()
        self.store = store if store is not None else JobStore()
        if executor == "process" and self.cache.path is None:
            executor = "thread"
        self.executor = executor
        self.workers = workers
        self._solve = solve_fn or solve_request
        self._progress = progress
        self._queue = WorkQueue()
        self._inflight: Dict[str, _JobTicket] = {}
        self._lock = threading.Lock()
        self._stats = ServiceStats()
        self._draining = False
        #: per-tier solve-latency histograms (see LATENCY_BUCKETS)
        self._latency: Dict[str, _LatencyHistogram] = {}
        #: (app, n) -> graph fingerprint, so a burst of duplicates pays
        #: one graph build instead of one per submission.  LRU-bounded
        #: (mirroring MilpModelCache): adversarial-unique traffic must
        #: not grow a long-lived server's memory without bound.
        self._fingerprints: OrderedDict = OrderedDict()
        self._fingerprint_cap = self.FINGERPRINT_CACHE_SIZE
        self._pool: Optional[ProcessPoolExecutor] = None
        if executor == "process":
            self._pool = ProcessPoolExecutor(max_workers=workers)
        self._threads = [
            threading.Thread(target=self._worker_loop, daemon=True,
                             name=f"repro-service-{i}")
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    def submit(self, request) -> Ticket:
        """Submit one request of either kind; returns its :class:`Ticket`.

        A :class:`~repro.service.api.MappingRequest` is queued for the
        workers and the ticket returns immediately; a
        :class:`~repro.service.remap.RemapRequest` runs *in the calling
        thread* before the ticket returns (see :data:`_KINDS`).
        Everything else is one path.  Duplicate requests (same canonical
        key) never solve twice: they share the in-flight ticket or
        answer from the completed-job store.  Only *canonical*
        completions serve as dedup sources — a job that FAILED (a
        transient worker error, an expired deadline) or whose solve was
        deadline-downgraded to a cheaper tier is re-solved on the next
        submission rather than replayed.

        Raises :class:`ServiceError` once the service is draining (the
        HTTP tier maps that to 503 + ``Retry-After``); a refused request
        leaves no job record and is not counted.
        """
        request.validate()
        kind = _KINDS[type(request)]
        base = _base_request(request)
        key = kind.key(request, graph_fp=self._fingerprint(base))
        ticket, dedup = self._admit(key, request, kind)
        if dedup is None:
            if kind.inline:
                self._run(ticket)
            else:
                self._enqueue(ticket)
        return Ticket(ticket, dedup, base.tag)

    def _admit(self, key: str, request, kind: "_Kind"):
        """Resolve ``key`` to a job ticket: ``(ticket, dedup)`` where
        ``dedup`` is ``"inflight"`` / ``"completed"`` for a duplicate,
        or ``None`` for a new job the caller must now run."""
        with self._lock:
            if self._draining:
                raise ServiceError(
                    f"service is draining: {kind.name} refused"
                )
            self._stats.submitted += 1
            ticket = self._inflight.get(key)
            if ticket is not None:
                self._stats.dedup_inflight += 1
                return ticket, "inflight"
            ticket = _JobTicket(key, request, kind)
            job = self.store.get(key)
            # only canonical completions serve as dedup sources: the
            # structural `downgraded_from` marker (not the result
            # payload, which a solver backend could echo wrongly) is
            # what keeps a deadline-downgraded answer from being
            # replayed as a full-tier one forever
            if (
                job is not None
                and job.state == DONE
                and job.downgraded_from is None
                and (job.result or {}).get("budget") == ticket.base.budget
            ):
                self._stats.dedup_completed += 1
                ticket.resolve(self._job_payload(job))
                return ticket, "completed"
            self._inflight[key] = ticket
            self.store.put(Job(
                key=key, request=kind.to_json(request), state=QUEUED,
            ))
        return ticket, None

    def _enqueue(self, ticket: _JobTicket) -> None:
        try:
            self._queue.put(ticket, priority=ticket.base.priority)
        except BaseException:
            # submit raced a shutdown: undo, and resolve the ticket as
            # failed — a duplicate may already be riding it, and an
            # unresolved ticket would block that rider's result() forever
            self._abandon(
                ticket, "service shut down before the job was queued"
            )
            raise

    def submit_many(self, requests) -> List[Ticket]:
        """Submit a batch; returns tickets in submission order.

        >>> from repro.service.api import MappingRequest
        >>> with MappingService() as service:
        ...     pair = service.submit_many([
        ...         MappingRequest(app="Bitonic", n=8, num_gpus=2,
        ...                        budget="instant"),
        ...     ] * 2)
        ...     _ = [t.response() for t in pair]
        >>> pair[1].dedup in ("inflight", "completed")
        True
        """
        return [self.submit(request) for request in requests]

    def stats(self) -> ServiceStats:
        """A consistent *snapshot* of the service counters.

        Workers increment the live :class:`ServiceStats` under the
        service lock, so handing the mutable object out would expose
        callers to torn multi-field reads — and let them corrupt the
        service's own counters through the alias.  The copy is taken
        under the same lock; ``to_json()``/``render()`` on it see one
        coherent instant.
        """
        with self._lock:
            return replace(self._stats)

    def queue_depth(self) -> int:
        """How many accepted jobs are waiting for a worker right now."""
        return len(self._queue)

    @property
    def draining(self) -> bool:
        """True once :meth:`shutdown` has begun (``/healthz`` turns 503)."""
        return self._draining

    def solve_latency(self) -> Dict[str, dict]:
        """Per-tier solve-latency histogram snapshots (``/metrics``).

        Keys are budget-tier names; values carry cumulative ``buckets``
        (``[upper_bound_s, count]`` pairs over :data:`LATENCY_BUCKETS`),
        ``count``, and ``sum`` — the Prometheus histogram triple.
        """
        with self._lock:
            return {
                tier: hist.snapshot()
                for tier, hist in sorted(self._latency.items())
            }

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; with ``wait``, drain the queue first.

        Without ``wait``, the backlog is *failed*, not abandoned: every
        still-queued ticket resolves as FAILED ("service shut down"),
        mirroring the submit/close race path — a rider blocked in
        :meth:`Ticket.result` must never hang on a ticket no worker
        will run (the worker threads are daemons; they die with the
        process).  Jobs already running when shutdown starts still
        complete normally.

        On a disk-backed cache the hit counters are folded into the
        cache directory's shared stats file (``repro cache stats`` reads
        them back).
        """
        self._draining = True
        self._queue.close()
        if wait:
            for thread in self._threads:
                thread.join()
        else:
            for ticket in self._queue.drain():
                self._abandon(ticket, "service shut down")
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
        if self.cache.path is not None:
            self.cache.persist_stats()

    def __enter__(self) -> "MappingService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown(wait=True)

    # ------------------------------------------------------------------
    def _fingerprint(self, request: MappingRequest) -> str:
        """Memoized graph fingerprint (deterministic per app + n).

        The memo is a bounded LRU: recomputing a fingerprint on
        eviction is cheap and deterministic, while an unbounded dict
        would grow forever under adversarial-unique traffic.
        """
        from repro.graph.fingerprint import graph_fingerprint
        from repro.service.api import build_request_graph

        memo_key = (request.app, request.n)
        with self._lock:
            cached = self._fingerprints.get(memo_key)
            if cached is not None:
                self._fingerprints.move_to_end(memo_key)
                return cached
        fp = graph_fingerprint(build_request_graph(request))
        with self._lock:
            self._fingerprints[memo_key] = fp
            self._fingerprints.move_to_end(memo_key)
            while len(self._fingerprints) > self._fingerprint_cap:
                self._fingerprints.popitem(last=False)
        return fp

    @staticmethod
    def _job_payload(job: Job) -> dict:
        if job.state == DONE:
            return {"state": DONE, "result": job.result}
        return {"state": FAILED, "error": job.error}

    def _effective_tier(self, ticket: _JobTicket) -> Optional[str]:
        """The budget tier a job should solve under.

        ``None`` means the deadline already expired.  Without a
        deadline, the requested tier passes through untouched (the
        deterministic path) — as it does for inline kinds, which have no
        queue to wait in.
        """
        request = ticket.base
        if ticket.kind.inline or request.deadline_s is None:
            return request.budget
        remaining = request.deadline_s - (time.monotonic() - ticket.enqueued_at)
        if remaining <= 0:
            return None
        fitting = tier_for_deadline(remaining)
        order = {name: i for i, name in enumerate(TIER_ORDER)}
        if order.get(fitting, 0) < order.get(request.budget, 0):
            return fitting
        return request.budget

    def _worker_loop(self) -> None:
        while True:
            ticket = self._queue.get()
            if ticket is None:
                return
            self._run(ticket)

    def _run(self, ticket: _JobTicket) -> None:
        """Run one admitted job to completion and account for it — in a
        worker thread for queued kinds, in the submitter's for inline
        ones.  Always resolves the ticket: an exception anywhere in here
        must cost one FAILED job, never a worker thread or a rider
        blocked on :meth:`Ticket.result`."""
        base = ticket.base
        tier, started = base.budget, None
        try:
            tier = self._effective_tier(ticket)
            if tier is None:
                with self._lock:
                    self._stats.expired += 1
                    self._stats.failed += 1
                self._finish(ticket, FAILED, solves=0,
                             error="deadline expired in queue")
                return
            self.store.update(ticket.key, state=RUNNING)
            started = time.monotonic()
            result = ticket.kind.execute(self, ticket.request, tier)
        except Exception as exc:
            with self._lock:
                self._stats.failed += 1
                if started is not None:
                    self._observe_latency(tier, time.monotonic() - started)
            self._finish(ticket, FAILED, solves=int(started is not None),
                         error=f"{type(exc).__name__}: {exc}")
            return
        with self._lock:
            self._stats.solved += 1
            self._observe_latency(tier, time.monotonic() - started)
        downgraded = tier != base.budget
        self._finish(
            ticket, DONE, solves=1, result=result,
            downgraded_from=base.budget if downgraded else None,
        )
        if downgraded:
            # the answer is tainted for *this* key, but it is a genuine
            # full-quality answer for the tier it actually ran under —
            # file a canonical copy there so an honest effective-tier
            # request dedups instead of re-solving
            self._store_effective_copy(ticket, tier, result)
        if self._progress is not None:
            self._progress(f"{base.app}/{base.n} [{tier}] done")

    def _solve_job(self, request: MappingRequest, tier: str) -> dict:
        """The solve kind's executor: this thread, or the process pool."""
        if self._pool is None:
            return self._solve(request, tier, self.cache)
        payload = (request_to_json(request), tier, self.cache.path)
        return self._pool.submit(_process_worker, payload).result()

    def _remap_job(self, request: RemapRequest, tier: str) -> dict:
        """The remap kind's executor (a repair is cheap: never pooled)."""
        return solve_remap_request(request, cache=self.cache)

    def _store_effective_copy(
        self, ticket: _JobTicket, tier: str, result: dict
    ) -> None:
        """File a downgraded solve's result under the effective tier's
        own canonical key (scheduling fields stripped), where it is an
        untainted answer.  Existing or in-flight jobs win — this is a
        dedup bonus, never an overwrite."""
        effective = replace(
            ticket.base, budget=tier,
            deadline_s=None, priority=0, tag=None,
        )
        key = request_key(effective, graph_fp=self._fingerprint(effective))
        with self._lock:
            if key in self._inflight:
                return
        if self.store.get(key) is not None:
            return
        self.store.put(Job(
            key=key, request=request_to_json(effective), state=DONE,
            result=result, solves=0,
        ))

    def _observe_latency(self, tier: str, seconds: float) -> None:
        """Record one solve latency (caller holds the service lock)."""
        hist = self._latency.get(tier)
        if hist is None:
            hist = self._latency[tier] = _LatencyHistogram()
        hist.observe(seconds)

    def _abandon(self, ticket: _JobTicket, error: str) -> None:
        """Fail an admitted job that will never run (shutdown)."""
        with self._lock:
            self._stats.failed += 1
        self._finish(ticket, FAILED, error=error)

    def _finish(self, ticket: _JobTicket, state: str, **fields) -> None:
        job = self.store.update(ticket.key, state=state, **fields)
        with self._lock:
            self._inflight.pop(ticket.key, None)
        ticket.resolve(self._job_payload(job))


@dataclass(frozen=True)
class _Kind:
    """Everything that differs between request kinds; the lifecycle in
    :meth:`MappingService.submit` is otherwise one path."""

    #: names the kind in a refusal message
    name: str
    #: ``(request, graph_fp=...)`` -> canonical content-addressed key
    key: Callable[..., str]
    #: request -> the wire object filed in the job record
    to_json: Callable
    #: ``(service, request, tier)`` -> compact wire result
    execute: Callable[..., dict]
    #: run in the submitting thread instead of on the worker queue.  An
    #: inline kind never waits, so ``priority`` and ``deadline_s`` have
    #: nothing to act on and are ignored.
    inline: bool


#: a repair is orders of magnitude cheaper than the solve it repairs
#: (the expensive baseline replays from the stage cache), so queueing it
#: behind full solves would invert the service's latency story: remaps
#: run inline
_KINDS = {
    MappingRequest: _Kind(
        name="solve", key=request_key, to_json=request_to_json,
        execute=MappingService._solve_job, inline=False,
    ),
    RemapRequest: _Kind(
        name="remap", key=remap_request_key, to_json=remap_to_json,
        execute=MappingService._remap_job, inline=True,
    ),
}
