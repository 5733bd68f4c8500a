"""The async mapping service: dedup, queueing, deadlines, wire format.

The headline pin is the acceptance round trip — 8 concurrent duplicate
requests cost exactly one solver invocation and return identical
results — plus the satellite guarantees: the work queue drains in
priority-then-FIFO order, the job store dedups across service restarts,
and the shared StageCache stays consistent under concurrent writers.
"""

import io
import json
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.gpu import PlatformDelta
from repro.service import (
    Job,
    JobStore,
    MappingRequest,
    MappingService,
    RemapRequest,
    ServiceError,
    WorkQueue,
    parse_request_line,
    request_from_json,
    request_key,
    request_to_json,
    serve_stream,
)
from repro.service.jobs import DONE, FAILED, QUEUED, RUNNING
from repro.service.queue import QueueClosed
from repro.sweep.cache import StageCache


# ----------------------------------------------------------------------
# work queue
# ----------------------------------------------------------------------
class TestWorkQueue:
    def test_fifo_within_a_priority(self):
        q = WorkQueue()
        for item in "abc":
            q.put(item)
        assert [q.get(), q.get(), q.get()] == ["a", "b", "c"]

    def test_lower_priority_value_drains_sooner(self):
        q = WorkQueue()
        q.put("background", priority=10)
        q.put("normal")
        q.put("urgent", priority=-5)
        assert [q.get(), q.get(), q.get()] == ["urgent", "normal", "background"]

    def test_get_timeout_returns_none(self):
        assert WorkQueue().get(timeout=0.01) is None

    def test_close_wakes_and_drains(self):
        q = WorkQueue()
        q.put("last")
        q.close()
        assert q.get() == "last"
        assert q.get() is None
        with pytest.raises(QueueClosed):
            q.put("more")

    def test_len_tracks_pending(self):
        q = WorkQueue()
        assert len(q) == 0
        q.put("x")
        assert len(q) == 1

    def test_drain_empties_in_priority_order(self):
        q = WorkQueue()
        q.put("normal")
        q.put("urgent", priority=-1)
        assert q.drain() == ["urgent", "normal"]
        assert len(q) == 0 and q.drain() == []

    def test_get_timeout_is_a_deadline_not_per_wakeup(self):
        """Regression: ``get(timeout=...)`` used to re-arm the FULL
        timeout on every notify, so under consumer contention a "0.4 s"
        get could block for many multiples of that.  Two consumers race
        one producer, compressed into a deterministic steal: the
        producer puts an item and the racing consumer takes it back
        *while still holding the condition lock* (it is reentrant), so
        the victim is notified but always wakes to an empty queue —
        exactly the lost-race wakeup the deadline must survive."""
        q = WorkQueue()
        outcome = {}

        def victim():
            start = time.monotonic()
            outcome["item"] = q.get(timeout=0.4)
            outcome["elapsed"] = time.monotonic() - start

        consumer = threading.Thread(target=victim)
        consumer.start()
        # >= 3x the victim's timeout of contention wakeups
        for _ in range(30):
            if not consumer.is_alive():
                break
            with q._cond:  # producer + racing consumer, atomically
                q.put("stolen")
                assert q.get() == "stolen"
            time.sleep(0.05)
        consumer.join(timeout=5)
        assert not consumer.is_alive(), "get() blocked past its timeout"
        assert outcome["item"] is None
        # pre-fix this is >= the whole 1.5 s contention window
        assert outcome["elapsed"] < 1.2


# ----------------------------------------------------------------------
# job store
# ----------------------------------------------------------------------
class TestJobStore:
    def test_update_unknown_field_raises(self):
        store = JobStore()
        store.put(Job(key="k", request={}))
        with pytest.raises(AttributeError):
            store.update("k", verdict="guilty")

    def test_persistence_keeps_only_finished_jobs(self, tmp_path):
        path = str(tmp_path / "store")
        store = JobStore(path)
        store.put(Job(key="done1", request={"app": "A"}, state=DONE,
                      result={"tmax": 1.0}, solves=1))
        store.put(Job(key="fail1", request={"app": "B"}, state=FAILED,
                      error="boom"))
        store.put(Job(key="mid1", request={"app": "C"}, state=RUNNING))
        store.put(Job(key="q1", request={"app": "D"}, state=QUEUED))

        revived = JobStore(path)
        assert {job.key for job in revived.jobs()} == {"done1", "fail1"}
        assert revived.get("done1").result == {"tmax": 1.0}
        assert revived.get("fail1").error == "boom"

    def test_torn_file_is_skipped(self, tmp_path):
        path = str(tmp_path / "store")
        JobStore(path)  # creates the directory
        (tmp_path / "store" / "bad.job.json").write_text("{not json")
        assert len(JobStore(path)) == 0

    def test_purge_empties_memory_and_disk(self, tmp_path):
        path = str(tmp_path / "store")
        store = JobStore(path)
        store.put(Job(key="k", request={}, state=DONE, result={}))
        assert store.purge() == 1
        assert len(store) == 0
        assert len(JobStore(path)) == 0


# ----------------------------------------------------------------------
# request canonicalization + wire format
# ----------------------------------------------------------------------
class TestRequestKeys:
    def test_scheduling_metadata_never_enters_the_key(self):
        base = MappingRequest(app="Bitonic", n=8, num_gpus=2)
        noisy = MappingRequest(app="Bitonic", n=8, num_gpus=2, priority=-3,
                               deadline_s=1.5, tag="req-0042")
        assert request_key(base) == request_key(noisy)

    def test_solver_config_and_machine_do_enter_the_key(self):
        base = MappingRequest(app="Bitonic", n=8, num_gpus=2)
        assert request_key(base) != request_key(
            MappingRequest(app="Bitonic", n=8, num_gpus=4))
        assert request_key(base) != request_key(
            MappingRequest(app="Bitonic", n=8, num_gpus=2, budget="ample"))
        assert request_key(base) != request_key(
            MappingRequest(app="Bitonic", n=8, num_gpus=2, mapper="ilp"))
        assert request_key(base) != request_key(
            MappingRequest(app="Bitonic", n=8, platform="two-island"))

    def test_graph_identity_is_the_fingerprint(self):
        a = MappingRequest(app="Bitonic", n=8, num_gpus=2)
        b = MappingRequest(app="Bitonic", n=16, num_gpus=2)
        assert request_key(a) != request_key(b)

    def test_roundtrip_and_unknown_field_rejection(self):
        req = MappingRequest(app="DES", n=4, budget="small", tag="x")
        assert request_from_json(request_to_json(req)) == req
        with pytest.raises(ValueError, match="unknown request field"):
            request_from_json({"app": "DES", "n": 4, "gpu": 2})
        with pytest.raises(ValueError, match="bad request line"):
            parse_request_line("{oops")
        with pytest.raises(ValueError, match="JSON object"):
            parse_request_line("[1, 2]")

    def test_validate_rejects_unknown_knobs(self):
        with pytest.raises(ValueError, match="unknown app"):
            MappingRequest(app="NoSuchApp", n=4).validate()
        with pytest.raises(ValueError, match="unknown budget tier"):
            MappingRequest(app="DES", n=4, budget="lavish").validate()
        with pytest.raises(ValueError, match="unknown platform"):
            MappingRequest(app="DES", n=4, platform="wat").validate()


# ----------------------------------------------------------------------
# the service, with an instrumented solver
# ----------------------------------------------------------------------
class _CountingSolver:
    """Stub solve_fn: counts invocations, optionally blocks on an event."""

    def __init__(self, gate=None, fail=False):
        self.calls = []
        self.lock = threading.Lock()
        self.gate = gate
        self.fail = fail

    def __call__(self, request, tier, cache):
        if self.gate is not None:
            assert self.gate.wait(timeout=30.0)
        with self.lock:
            self.calls.append((request.app, request.num_gpus, tier))
        if self.fail:
            raise RuntimeError("injected solver failure")
        return {"app": request.app, "n": request.n, "budget": tier}


def _both_kinds():
    """One request of each kind: they share one ``submit`` path, so a
    lifecycle guarantee pinned on one must hold for the other.  (Only
    the solve kind runs through ``solve_fn``; a remap runs the real
    repair, so the kind-agnostic evidence is ``service.stats()``.)"""
    return [
        MappingRequest(app="Bitonic", n=8, num_gpus=2, budget="instant"),
        RemapRequest(
            base=MappingRequest(app="Bitonic", n=8, platform="host-star",
                                budget="instant"),
            deltas=(PlatformDelta.kill_gpu(1),),
        ),
    ]


class TestServiceDedup:
    def test_eight_concurrent_duplicates_cost_one_solve(self):
        """The acceptance pin: N duplicates -> 1 invocation, identical
        results.  The gate holds the solve until all 8 are submitted, so
        every duplicate exercises the *in-flight* path."""
        gate = threading.Event()
        solver = _CountingSolver(gate=gate)
        with MappingService(workers=2, solve_fn=solver) as service:
            request = MappingRequest(app="Bitonic", n=8, num_gpus=2)
            tickets = [service.submit(request) for _ in range(8)]
            gate.set()
            results = [ticket.result() for ticket in tickets]
        assert len(solver.calls) == 1
        assert all(result == results[0] for result in results)
        stats = service.stats()
        assert stats.submitted == 8
        assert stats.solved == 1
        assert stats.dedup_inflight == 7
        assert stats.dedup_completed == 0
        assert [t.dedup for t in tickets] == [None] + ["inflight"] * 7

    def test_completed_jobs_dedup_from_the_store(self):
        for request in _both_kinds():
            with MappingService(solve_fn=_CountingSolver()) as service:
                first = service.submit(request)
                first.result()  # wait for completion
                again = service.submit(request)
                assert again.result() == first.result()
            stats = service.stats()
            assert (stats.solved, stats.dedup_completed) == (1, 1)
            assert again.dedup == "completed"

    def test_dedup_survives_a_service_restart(self, tmp_path):
        for request in _both_kinds():
            store_dir = str(tmp_path / type(request).__name__)
            with MappingService(store=JobStore(store_dir),
                                solve_fn=_CountingSolver()) as service:
                service.submit(request).result()
            assert service.stats().solved == 1

            with MappingService(store=JobStore(store_dir),
                                solve_fn=_CountingSolver()) as revived:
                ticket = revived.submit(request)
                ticket.result()
            assert revived.stats().solved == 0
            assert ticket.dedup == "completed"

    def test_failed_jobs_do_not_poison_the_key(self):
        """A transient failure (worker error, expired deadline) must be
        retried on the next submission, not replayed from the store."""
        solver = _CountingSolver(fail=True)
        with MappingService(solve_fn=solver) as service:
            request = MappingRequest(app="Bitonic", n=8, num_gpus=2)
            with pytest.raises(ServiceError, match="injected"):
                service.submit(request).result()
            solver.fail = False  # the transient condition clears
            retried = service.submit(request)
            assert retried.dedup is None  # a fresh solve, not a replay
            assert retried.result()["budget"] == "default"
        assert len(solver.calls) == 2

    def test_downgraded_results_are_not_canonical(self):
        """A deadline-downgraded solve must not serve later full-budget
        duplicates from the store: the key promises the *requested*
        budget's answer."""
        solver = _CountingSolver()
        with MappingService(workers=1, solve_fn=solver) as service:
            rushed = MappingRequest(app="Bitonic", n=8, num_gpus=2,
                                    budget="ample", deadline_s=2.5)
            service.submit(rushed).result()
            downgraded_tier = solver.calls[0][2]
            assert downgraded_tier != "ample"
            patient = MappingRequest(app="Bitonic", n=8, num_gpus=2,
                                     budget="ample")
            ticket = service.submit(patient)
            assert ticket.dedup is None  # re-solved, not replayed
            assert ticket.result()["budget"] == "ample"
        assert [tier for _, _, tier in solver.calls] == [
            downgraded_tier, "ample",
        ]

    def test_downgrade_marker_refuses_even_a_spoofed_budget_field(self):
        """The dedup guard must be *structural* (Job.downgraded_from),
        not trust the result payload: a solve_fn that echoes the
        requested tier instead of the effective one used to make the
        store serve a downgraded answer to a deadline-free duplicate."""

        class _SpoofingSolver(_CountingSolver):
            def __call__(self, request, tier, cache):
                payload = super().__call__(request, tier, cache)
                # claim the *requested* tier, whatever actually ran
                payload["budget"] = request.budget
                return payload

        solver = _SpoofingSolver()
        with MappingService(workers=1, solve_fn=solver) as service:
            rushed = MappingRequest(app="Bitonic", n=8, num_gpus=2,
                                    budget="ample", deadline_s=2.5)
            service.submit(rushed).result()
            assert solver.calls[0][2] != "ample"  # it was downgraded
            patient = MappingRequest(app="Bitonic", n=8, num_gpus=2,
                                     budget="ample")
            ticket = service.submit(patient)
            assert ticket.dedup is None  # refused: marker, not payload
            ticket.result()
        assert len(solver.calls) == 2
        assert solver.calls[1][2] == "ample"

    def test_downgraded_result_is_canonical_under_the_effective_tier(self):
        """The downgraded answer is full quality *for the tier that
        actually ran*: it is filed under that tier's own key, so an
        honest effective-tier request dedups instead of re-solving."""
        solver = _CountingSolver()
        with MappingService(workers=1, solve_fn=solver) as service:
            rushed = MappingRequest(app="Bitonic", n=8, num_gpus=2,
                                    budget="ample", deadline_s=2.5)
            service.submit(rushed).result()
            effective_tier = solver.calls[0][2]
            assert effective_tier != "ample"
            honest = MappingRequest(app="Bitonic", n=8, num_gpus=2,
                                    budget=effective_tier)
            ticket = service.submit(honest)
            assert ticket.dedup == "completed"
            assert ticket.result()["budget"] == effective_tier
        assert len(solver.calls) == 1  # the copy answered, no re-solve

    def test_downgrade_marker_survives_a_restart(self, tmp_path):
        """The poisoning was *persistent* — the marker must be too."""
        store_dir = str(tmp_path / "store")
        solver = _CountingSolver()
        with MappingService(store=JobStore(store_dir), workers=1,
                            solve_fn=solver) as service:
            rushed = MappingRequest(app="Bitonic", n=8, num_gpus=2,
                                    budget="ample", deadline_s=2.5)
            service.submit(rushed).result()
        assert solver.calls[0][2] != "ample"

        revived_solver = _CountingSolver()
        with MappingService(store=JobStore(store_dir), workers=1,
                            solve_fn=revived_solver) as revived:
            patient = MappingRequest(app="Bitonic", n=8, num_gpus=2,
                                     budget="ample")
            ticket = revived.submit(patient)
            assert ticket.dedup is None  # marker refused the replay
            assert ticket.result()["budget"] == "ample"
        assert [tier for _, _, tier in revived_solver.calls] == ["ample"]

    def test_distinct_requests_each_solve(self):
        solver = _CountingSolver()
        with MappingService(workers=2, solve_fn=solver) as service:
            tickets = [
                service.submit(MappingRequest(app="Bitonic", n=8, num_gpus=g))
                for g in (1, 2, 4)
            ]
            for ticket in tickets:
                ticket.result()
        assert len(solver.calls) == 3
        assert service.stats().dedup_hits == 0


class TestServiceScheduling:
    def test_priority_order_is_honoured(self):
        gate = threading.Event()
        solver = _CountingSolver(gate=gate)
        with MappingService(workers=1, solve_fn=solver) as service:
            # the first job occupies the single worker at the gate (top
            # urgency, so it wins even if the worker dequeues late);
            # the rest queue up and must drain urgent-first
            blocker = service.submit(
                MappingRequest(app="Bitonic", n=8, num_gpus=1,
                               priority=-100))
            low = service.submit(
                MappingRequest(app="Bitonic", n=8, num_gpus=2, priority=5))
            high = service.submit(
                MappingRequest(app="Bitonic", n=8, num_gpus=4, priority=-5))
            gate.set()
            for ticket in (blocker, low, high):
                ticket.result()
        # execution order: the blocker first (it held the worker), then
        # the urgent request jumps the earlier-submitted background one
        assert [gpus for _, gpus, _ in solver.calls] == [1, 4, 2]

    def test_expired_deadline_fails_without_solving(self):
        gate = threading.Event()
        solver = _CountingSolver(gate=gate)
        with MappingService(workers=1, solve_fn=solver) as service:
            blocker = service.submit(
                MappingRequest(app="Bitonic", n=8, num_gpus=1))
            doomed = service.submit(
                MappingRequest(app="Bitonic", n=8, num_gpus=2,
                               deadline_s=0.0))
            gate.set()
            blocker.result()
            with pytest.raises(ServiceError, match="deadline expired"):
                doomed.result()
            response = doomed.response()
        assert response["state"] == "failed"
        assert service.stats().expired == 1
        assert len(solver.calls) == 1  # only the blocker solved

    def test_deadline_downgrades_the_budget_tier(self):
        solver = _CountingSolver()
        with MappingService(workers=1, solve_fn=solver) as service:
            service.submit(
                MappingRequest(app="Bitonic", n=8, num_gpus=2,
                               budget="ample", deadline_s=2.5)
            ).result()
        # ~2.5 s remaining fits the "default" tier, not "ample"
        # (a heavily loaded box may shave it further, never upward)
        assert solver.calls[0][2] in ("default", "small", "instant")
        assert solver.calls[0][2] != "ample"

    def test_failed_solve_reports_and_does_not_kill_workers(self):
        solver = _CountingSolver(fail=True)
        with MappingService(workers=1, solve_fn=solver) as service:
            bad = service.submit(MappingRequest(app="Bitonic", n=8))
            with pytest.raises(ServiceError, match="injected solver"):
                bad.result()
            # the worker survived and still serves
            ok_solver_result = bad.response()
        assert ok_solver_result["state"] == "failed"
        assert service.stats().failed == 1

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="workers"):
            MappingService(workers=0)
        with pytest.raises(ValueError, match="executor"):
            MappingService(executor="fiber")


# ----------------------------------------------------------------------
# service-layer concurrency regressions (the PR-8 bugfix sweep)
# ----------------------------------------------------------------------
class TestServiceConcurrencyRegressions:
    def test_stats_returns_a_locked_snapshot(self):
        """Regression: ``stats()`` used to hand back the *live mutable*
        counters object — a caller could see torn multi-field reads and
        corrupt the service's counters through the alias."""
        solver = _CountingSolver()
        with MappingService(solve_fn=solver) as service:
            request = MappingRequest(app="Bitonic", n=8, num_gpus=2)
            service.submit(request).result()
            snapshot = service.stats()
            assert snapshot is not service.stats()  # a copy per call
            # a buggy caller scribbling on its snapshot must not be able
            # to corrupt the service's own accounting
            snapshot.solved += 100
            snapshot.submitted += 100
        fresh = service.stats()
        assert fresh.solved == 1 and fresh.submitted == 1
        # to_json()/render() still live on the snapshot type
        assert fresh.to_json()["solved"] == 1
        assert "1 submitted" in fresh.render()

    def test_no_wait_shutdown_fails_queued_tickets(self):
        """Regression: ``shutdown(wait=False)`` closed the queue but
        never resolved still-queued tickets, so a rider blocked in
        ``Ticket.result()`` hung forever (the workers are daemon
        threads — they die with the process)."""
        started, release = threading.Event(), threading.Event()

        def slow_solve(request, tier, cache):
            started.set()
            assert release.wait(timeout=30.0)
            return {"app": request.app}

        service = MappingService(workers=1, solve_fn=slow_solve)
        running = service.submit(
            MappingRequest(app="Bitonic", n=8, num_gpus=2))
        assert started.wait(10)
        queued = [
            service.submit(MappingRequest(app="DES", n=n, num_gpus=2))
            for n in (4, 8)
        ]
        service.shutdown(wait=False)
        # pre-fix: these hang until the timeout (TimeoutError), because
        # nothing ever resolves the stranded tickets
        for ticket in queued:
            with pytest.raises(ServiceError, match="service shut down"):
                ticket.result(timeout=5)
            assert service.store.get(ticket.key).state == FAILED
        assert service.stats().failed == 2
        # the job already running when shutdown began still completes
        release.set()
        assert running.result(timeout=10) == {"app": "Bitonic"}
        service.shutdown(wait=True)

    def test_draining_service_refuses_without_a_job_record(self):
        """A refused request was never accepted: no QUEUED-then-FAILED
        job record, no counter moves — for either kind."""
        for request in _both_kinds():
            service = MappingService(workers=1)
            service.shutdown(wait=True)
            with pytest.raises(ServiceError, match="draining"):
                service.submit(request)
            assert len(service.store) == 0
            stats = service.stats()
            assert (stats.submitted, stats.failed) == (0, 0)

    def test_fingerprint_memo_is_lru_bounded(self, monkeypatch):
        """Regression: the graph-fingerprint memo grew without bound
        under adversarial-unique traffic; it is now a bounded LRU
        (mirroring MilpModelCache)."""
        import repro.graph.fingerprint as fp_mod
        import repro.service.api as api_mod

        monkeypatch.setattr(api_mod, "build_request_graph",
                            lambda request: (request.app, request.n))
        monkeypatch.setattr(fp_mod, "graph_fingerprint",
                            lambda graph: f"fp-{graph[1]}")
        with MappingService(solve_fn=_CountingSolver()) as service:
            service._fingerprint_cap = 8
            for n in range(50):
                service._fingerprint(MappingRequest(app="Bitonic", n=n))
            assert len(service._fingerprints) <= 8
            # the most recent keys survive ...
            assert ("Bitonic", 49) in service._fingerprints
            assert ("Bitonic", 0) not in service._fingerprints
            # ... and a *hit* refreshes recency: touching 42 keeps it
            # alive past the next insertion, which evicts 43 instead
            assert service._fingerprint(
                MappingRequest(app="Bitonic", n=42)) == "fp-42"
            service._fingerprint(MappingRequest(app="Bitonic", n=99))
            assert ("Bitonic", 42) in service._fingerprints
            assert ("Bitonic", 43) not in service._fingerprints


class TestServiceEndToEnd:
    def test_real_solve_roundtrip(self):
        with MappingService(workers=2) as service:
            tickets = [
                service.submit(
                    MappingRequest(app="Bitonic", n=8, num_gpus=2,
                                   budget="instant")
                )
                for _ in range(4)
            ]
            results = [t.result() for t in tickets]
        assert service.stats().solved == 1
        assert all(result == results[0] for result in results)
        result = results[0]
        assert len(result["assignment"]) == result["num_partitions"]
        assert result["tmax"] > 0 and result["throughput"] > 0
        assert result["budget"] == "instant"
        assert result["solver"].startswith("portfolio[")

    def test_process_executor_with_disk_cache(self, tmp_path):
        cache = StageCache(str(tmp_path / "cache"))
        with MappingService(cache=cache, workers=2,
                            executor="process") as service:
            ticket = service.submit(
                MappingRequest(app="Bitonic", n=8, num_gpus=2,
                               budget="instant")
            )
            result = ticket.result()
        assert result["num_gpus"] == 2
        # the pool worker warmed the shared on-disk cache and folded
        # its counters into the directory's shared stats file
        assert len(cache.disk_entries()) > 0
        persisted = StageCache.persisted_stats(cache.path)
        assert persisted is not None and persisted.lookups > 0

    def test_memory_cache_forces_thread_mode(self):
        service = MappingService(executor="process")
        try:
            assert service.executor == "thread"
        finally:
            service.shutdown()


class TestServeStream:
    def test_responses_in_input_order_with_dedup_and_failures(self):
        solver = _CountingSolver()
        lines = [
            json.dumps({"app": "Bitonic", "n": 8, "num_gpus": 2,
                        "tag": "a"}),
            "# a comment line",
            json.dumps({"app": "Bitonic", "n": 8, "num_gpus": 2,
                        "tag": "b"}),
            "{malformed",
            json.dumps({"app": "NoSuchApp", "n": 8}),
        ]
        out = io.StringIO()
        with MappingService(workers=2, solve_fn=solver) as service:
            failures = serve_stream(
                io.StringIO("\n".join(lines) + "\n"), out, service
            )
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert failures == 2
        assert len(responses) == 4  # comment skipped
        assert responses[0]["state"] == "done"
        assert responses[0]["tag"] == "a"
        assert responses[1]["state"] == "done"
        assert responses[1]["tag"] == "b"
        assert responses[1]["dedup"] == "inflight" or (
            responses[1]["dedup"] == "completed"
        )
        assert responses[2]["state"] == "failed"
        assert "line 4" in responses[2]["error"]
        assert responses[3]["state"] == "failed"
        assert len(solver.calls) == 1

    def test_strict_mode_raises_before_submitting(self):
        """A malformed line anywhere in the stream must abort before
        ANY request is submitted — strict is an all-or-nothing gate."""
        solver = _CountingSolver()
        good = json.dumps({"app": "Bitonic", "n": 8, "num_gpus": 2})
        with MappingService(solve_fn=solver) as service:
            with pytest.raises(ValueError):
                serve_stream(
                    io.StringIO(good + "\n{malformed\n"), io.StringIO(),
                    service, strict=True,
                )
        assert solver.calls == []
        assert service.stats().submitted == 0

    def test_blank_and_comment_lines_produce_no_output(self):
        """Padding lines are skipped silently — no response lines, no
        failures, nothing submitted."""
        solver = _CountingSolver()
        out = io.StringIO()
        with MappingService(solve_fn=solver) as service:
            failures = serve_stream(
                io.StringIO("\n   \n# just a comment\n\t\n"), out, service
            )
        assert failures == 0
        assert out.getvalue() == ""
        assert solver.calls == []
        assert service.stats().submitted == 0

    def test_failure_count_includes_solver_failures(self):
        """The return value counts every non-done line: malformed input
        AND jobs whose solve raised."""
        solver = _CountingSolver(fail=True)
        good = json.dumps({"app": "Bitonic", "n": 8, "num_gpus": 2})
        out = io.StringIO()
        with MappingService(solve_fn=solver) as service:
            failures = serve_stream(
                io.StringIO(good + "\n{malformed\n"), out, service
            )
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert failures == 2
        assert [r["state"] for r in responses] == ["failed", "failed"]
        assert "injected solver failure" in responses[0]["error"]
        assert "line 2" in responses[1]["error"]

    def test_strict_vs_non_strict_on_invalid_values(self):
        """An unknown knob *value* (not just malformed JSON) is a
        failure line when lenient and an abort-before-submit when
        strict."""
        solver = _CountingSolver()
        bad_value = json.dumps({"app": "Bitonic", "n": 8,
                                "budget": "lavish"})
        out = io.StringIO()
        with MappingService(solve_fn=solver) as service:
            failures = serve_stream(io.StringIO(bad_value + "\n"),
                                    out, service)
            assert failures == 1
            response = json.loads(out.getvalue())
            assert response["state"] == "failed"
            assert "line 1" in response["error"]
            assert "budget" in response["error"]
            with pytest.raises(ValueError, match="budget"):
                serve_stream(io.StringIO(bad_value + "\n"), io.StringIO(),
                             service, strict=True)
        assert solver.calls == []


# ----------------------------------------------------------------------
# StageCache under concurrency + persisted counters
# ----------------------------------------------------------------------
class TestStageCacheConcurrency:
    def test_thread_hammer_stays_consistent(self, tmp_path):
        cache = StageCache(str(tmp_path / "cache"))
        threads, per_thread, errors = 8, 50, []

        def hammer(worker):
            try:
                for i in range(per_thread):
                    key = f"mapping.{worker}-{i:03d}"
                    cache.put(key, {"worker": worker, "i": i})
                    value = cache.get(key)
                    assert value == {"worker": worker, "i": i}
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        pool = [
            threading.Thread(target=hammer, args=(w,)) for w in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert errors == []
        assert len(cache) == threads * per_thread
        stats = cache.stats()
        assert stats.hits == threads * per_thread
        assert stats.misses == 0
        # and every disk entry survived intact
        assert len(cache.disk_entries()) == threads * per_thread

    def test_persist_stats_never_double_counts(self, tmp_path):
        path = str(tmp_path / "cache")
        cache = StageCache(path)
        cache.put("mapping.k", {"v": 1})
        cache.get("mapping.k")
        cache.get("mapping.missing")
        first = cache.persist_stats()
        assert (first.hits, first.misses) == (1, 1)
        second = cache.persist_stats()  # nothing new since the flush
        assert (second.hits, second.misses) == (1, 1)
        cache.get("mapping.k")
        third = cache.persist_stats()
        assert (third.hits, third.misses) == (2, 1)

    def test_persisted_stats_merge_across_instances(self, tmp_path):
        path = str(tmp_path / "cache")
        a, b = StageCache(path), StageCache(path)
        a.put("profile.x", 1)
        a.get("profile.x")
        a.persist_stats()
        b.get("profile.missing")
        merged = b.persist_stats()
        assert merged.hits == 1 and merged.misses == 1
        on_disk = StageCache.persisted_stats(path)
        assert on_disk.to_json() == merged.to_json()

    def test_memory_only_cache_has_no_persisted_stats(self):
        assert StageCache().persist_stats() is None

    def test_purge_by_stage(self, tmp_path):
        cache = StageCache(str(tmp_path / "cache"))
        cache.put("mapping.a", 1)
        cache.put("profile.b", 2)
        assert cache.purge(stage="mapping") == 1
        assert cache.get("mapping.a") is None
        assert cache.get("profile.b") == 2
        stages = {stage for stage, _, _ in cache.disk_entries()}
        assert stages == {"profile"}


# ----------------------------------------------------------------------
# CLI: submit / serve / cache
# ----------------------------------------------------------------------
class TestServiceCli:
    def test_submit_emits_a_canonical_line(self, capsys):
        assert cli_main([
            "submit", "--app", "Bitonic", "--n", "8", "--gpus", "2",
            "--budget", "instant", "--tag", "t1",
        ]) == 0
        line = capsys.readouterr().out.strip()
        payload = json.loads(line)
        assert payload["app"] == "Bitonic"
        assert payload["budget"] == "instant"
        request = request_from_json(payload)
        assert request.tag == "t1"

    def test_submit_rejects_platform_plus_gpus(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["submit", "--app", "DES", "--n", "4", "--gpus", "2",
                      "--platform", "two-island"])
        with pytest.raises(SystemExit):
            cli_main(["submit", "--app", "DES", "--n", "4",
                      "--mapper", "metaheuristic"])
        assert "invalid choice: 'metaheuristic'" in capsys.readouterr().err

    def test_submit_to_file_then_serve(self, tmp_path, capsys):
        reqs = str(tmp_path / "reqs.jsonl")
        out = str(tmp_path / "out.jsonl")
        for _ in range(2):
            assert cli_main([
                "submit", "--app", "Bitonic", "--n", "8", "--gpus", "2",
                "--budget", "instant", "--to", reqs,
            ]) == 0
        assert cli_main([
            "serve", "--requests", reqs, "--out", out,
            "--cache-dir", str(tmp_path / "cache"),
            "--store", str(tmp_path / "store"),
            "--workers", "2", "--quiet",
        ]) == 0
        responses = [
            json.loads(line) for line in open(out).read().splitlines()
        ]
        assert len(responses) == 2
        assert {r["state"] for r in responses} == {"done"}
        assert responses[0]["result"] == responses[1]["result"]
        # a re-serve on the same store answers entirely from dedup
        assert cli_main([
            "serve", "--requests", reqs, "--out", out,
            "--cache-dir", str(tmp_path / "cache"),
            "--store", str(tmp_path / "store"), "--quiet",
        ]) == 0
        responses = [
            json.loads(line) for line in open(out).read().splitlines()
        ]
        assert {r["dedup"] for r in responses} == {"completed"}

    def test_serve_self_check_gate(self, capsys):
        assert cli_main(["serve", "--self-check"]) == 0
        err = capsys.readouterr().err
        assert "1 solve(s), 7 dedup hit(s)" in err

    def test_serve_self_check_http_gate(self, capsys):
        """The live-HTTP half of ``make service-check``: 8 duplicate
        POSTs -> 1 solve, proven by scraping /metrics."""
        assert cli_main(["serve", "--self-check-http"]) == 0
        err = capsys.readouterr().err
        assert "1 solve(s), 7 dedup hit(s)" in err

    def test_serve_http_rejects_requests_flag(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["serve", "--http", "0", "--requests", "x.jsonl"])
        assert "drop --requests" in capsys.readouterr().err

    def test_cache_stats_and_purge(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        cache = StageCache(cache_dir)
        cache.put("mapping.k1", {"v": 1})
        cache.put("profile.k2", {"v": 2})
        cache.persist_stats()
        assert cli_main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "mapping" in out and "profile" in out
        assert "lifetime" in out
        assert cli_main([
            "cache", "purge", "--cache-dir", cache_dir, "--stage", "mapping",
        ]) == 0
        assert cli_main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "purged 1 mapping entries" in out
        assert cli_main(["cache", "purge", "--cache-dir", cache_dir]) == 0

    def test_cache_stats_rejects_missing_dir(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["cache", "stats", "--cache-dir",
                      str(tmp_path / "nope")])
