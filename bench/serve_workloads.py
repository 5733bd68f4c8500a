"""The two serve workloads: serve-dup (the hit path) and serve-unique
(the miss path), against a real ``repro serve --http`` subprocess.

Each run has an open-loop phase (seeded Poisson arrivals at a fixed rate
below capacity, latency from the due time, answers checked against the
workload's latency limit) and a closed-loop saturation phase (``nproc``
persistent connections, each sending as soon as it is answered).

The end-to-end latency and throughput come from the **closed** loop: on
this stack a persistent connection stalls ~40 ms per request whenever
the kernel's delayed-ACK heuristic is armed (the server writes headers
and body as two segments), and which open-loop requests stall depends
on the arrival pattern — their percentiles move by a factor of three
from seed to seed.  In the closed loop every request meets the same
regime, so the numbers repeat.  The open-loop percentiles are kept as
per-layer metrics (``service.open_latency_ms_p50/p90``).
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
from typing import Dict, List, Optional, Tuple

from bench import cases, loadgen
from bench.report import Report, overhead_share
from bench.server import HOST, ServerProcess
from bench.stats import classify_response, percentile
from bench.trace import Tracer

now = time.perf_counter

#: closed-loop clients and open-loop connections: nproc on the 2-core box
CONNECTIONS = 2
#: shares of ``--seconds`` spent in the open loop and in saturation.
#: serve-unique saturates longer: its requests differ in cost from seed
#: to seed, and only more of them average that out
OPEN_SHARE = 0.4
CLOSED_SHARE = {"serve-dup": 0.6, "serve-unique": 1.0}
#: the closed phase is rated whole: slices of serve-unique's phase hold
#: different graphs, so a median over slices would hop between them
RATE_WINDOWS = 1
#: serve-unique checks every N-th answer against the oracle
CHECK_EVERY = 8

SOLVE = "/api/v1/solve"


def _post(case: cases.Case, index: int) -> loadgen.Request:
    body = json.dumps(case.request("instant")).encode()
    return loadgen.Request("POST", SOLVE, body,
                           tenant=f"tenant-{index % cases.SERVE_TENANTS}",
                           ref=case)


def _payload(outcome: loadgen.Outcome) -> dict:
    try:
        payload = json.loads(outcome.body)
    except ValueError:
        return {}
    return payload if isinstance(payload, dict) else {}


def _reason(outcome: loadgen.Outcome, limit_s: Optional[float]) -> Optional[str]:
    state = _payload(outcome).get("state") if outcome.status == 200 else None
    return classify_response(outcome.status, state, outcome.latency, limit_s)


SOLVED = "repro_service_solved_total"
DEDUP_DONE = 'repro_service_dedup_total{kind="completed"}'
DEDUP_FLIGHT = 'repro_service_dedup_total{kind="inflight"}'
SHED = ('repro_admission_shed_total{reason="rate"}',
        'repro_admission_shed_total{reason="queue"}')


class Traffic:
    """The request stream of one serve workload, made from the seed."""

    def __init__(self, workload: str, seed: int) -> None:
        self.dup = workload == "serve-dup"
        self.seed = seed
        self.rng = random.Random(f"{workload}-{seed}")
        self.keys = cases.serve_dup_keys() if self.dup else []
        self.rate = (cases.SERVE_DUP_RATE if self.dup
                     else cases.SERVE_UNIQUE_RATE)
        self.limit_s = (cases.SERVE_DUP_LIMIT_S if self.dup
                        else cases.SERVE_UNIQUE_LIMIT_S)
        self._picks = (
            loadgen.zipf_indices(len(self.keys), 4096, self.rng,
                                 cases.SERVE_ZIPF) if self.dup else []
        )
        self.pool = [] if self.dup else cases.serve_unique_pool(seed)

    def open_request(self, index: int) -> loadgen.Request:
        """The ``index``-th open-loop request: a Zipf pick over the 48
        solved keys, or a seeded graph nobody has sent before."""
        if self.dup:
            return self._pick(index)
        return _post(cases.serve_unique_draw(self.seed, index), index)

    def closed_request(self, index: int) -> Optional[loadgen.Request]:
        """The ``index``-th saturation request: the Zipf stream goes on,
        or the next graph of the pool (``None`` once it is used up — the
        /metrics identity then fails, which is the signal to grow it)."""
        if self.dup:
            return self._pick(1024 + index)
        if index >= len(self.pool):
            return None
        return _post(self.pool[index], index)

    def _pick(self, index: int) -> loadgen.Request:
        pick = self._picks[index % len(self._picks)]
        return _post(self.keys[pick], index)

    def fill(self, port: int) -> Dict[cases.Case, dict]:
        """serve-dup set-up: POST each key once; returns its result."""
        requests = [_post(key, i) for i, key in enumerate(self.keys)]
        phase = loadgen.closed_loop(
            HOST, port,
            lambda n: requests[n] if n < len(requests) else None,
            120.0, CONNECTIONS,
        )
        results = {}
        for outcome in phase.outcomes:
            if _reason(outcome, None) is not None:
                raise RuntimeError(
                    f"set-up request failed: {outcome.status} "
                    f"{outcome.body[:200]!r}"
                )
            results[outcome.request.ref] = _payload(outcome)["result"]
        return results


def _check_served(report: Report, case: cases.Case, result: dict) -> None:
    """Re-score one served answer with the oracle (rebuilding its
    problem through the public stage functions)."""
    from repro.apps import build_app

    from bench.checks import check_answer, front_half, oracle_problem, topology_for

    problem = oracle_problem(
        front_half(build_app(case.app, case.n)), topology_for(case)
    )
    reason = check_answer(problem, result.get("assignment", ()),
                          result.get("tmax"))
    if reason is not None:
        report.tally.fail(reason, case.id)


def run_serve(workload: str, seed: int, seconds: float, setup_base_s: float,
              src_dir: str, workdir: str) -> Report:
    report = Report(workload)
    traffic = Traffic(workload, seed)
    open_s = seconds * OPEN_SHARE
    closed_s = seconds * CLOSED_SHARE[workload]
    t0 = now()
    server = ServerProcess(src_dir, workdir, workers=CONNECTIONS)
    server.start()
    try:
        filled = traffic.fill(server.port)
        setup = [now() - t0]
        before = server.metrics()

        schedule = loadgen.poisson_schedule(traffic.rate, open_s, traffic.rng)
        open_requests = [traffic.open_request(i)
                         for i in range(len(schedule))]
        open_out = loadgen.open_loop(HOST, server.port, open_requests,
                                     schedule, CONNECTIONS)
        closed = loadgen.closed_loop(
            HOST, server.port, traffic.closed_request, closed_s, CONNECTIONS,
        )
        rss = server.peak_rss_mb()
        after = server.metrics()
    finally:
        server.stop()

    answered = closed.answered()
    for outcome in open_out:
        report.tally.record(_reason(outcome, traffic.limit_s),
                            outcome.request.ref.id)
    for outcome in answered:
        report.tally.record(_reason(outcome, traffic.limit_s),
                            outcome.request.ref.id)

    # answers: serve-dup must replay the filled result; every key (dup)
    # or every CHECK_EVERY-th request (unique) is re-scored by the oracle
    served = open_out + answered
    if traffic.dup:
        for outcome in served:
            if (_reason(outcome, None) is None and
                    _payload(outcome)["result"] != filled[outcome.request.ref]):
                report.tally.fail("wrong-replay", outcome.request.ref.id)
        for case, result in filled.items():
            _check_served(report, case, result)
    else:
        for outcome in served[::CHECK_EVERY]:
            if _reason(outcome, None) is None:
                _check_served(report, outcome.request.ref,
                              _payload(outcome)["result"])

    # counter identities on /metrics
    sent = len(open_out) + len(closed.outcomes)
    solved = after.get(SOLVED, 0.0) - before.get(SOLVED, 0.0)
    deduped = sum(after.get(k, 0.0) - before.get(k, 0.0)
                  for k in (DEDUP_DONE, DEDUP_FLIGHT))
    shed = sum(after.get(k, 0.0) for k in SHED)
    want_solved, want_dedup = (0, sent) if traffic.dup else (sent, 0)
    if (solved, deduped, shed) != (want_solved, want_dedup, 0):
        report.tally.fail(
            "metrics-identity",
            f"sent {sent}: solved {solved:g}, deduped {deduped:g}, "
            f"shed {shed:g}",
        )

    rates = closed.window_rates(
        lambda o: _reason(o, traffic.limit_s) is None, RATE_WINDOWS)
    latencies = [o.done - o.sent for o in answered]
    report.set_end_to_end(setup_base_s, setup, rates, latencies, [], rss)
    open_ms = [o.latency * 1e3 for o in open_out]
    report.notes.update({
        "open_loop": {
            "rate_per_s": traffic.rate, "sent": len(open_out),
            "latency_ms_p50": percentile(open_ms, 50),
            "latency_ms_p90": percentile(open_ms, 90),
            "limit_ms": traffic.limit_s * 1e3,
            "lag_ms_max": max(o.lag for o in open_out) * 1e3,
        },
        "sat_rps": report.end_to_end["cases_per_s"]["value"],
        "closed_loop_sent": len(closed.outcomes),
    })
    return report


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def _rtt_ms(port: int, fresh: bool, count: int = 40) -> float:
    """Median ``GET /healthz`` round trip: one persistent connection, or
    a new connection per request."""
    probe = loadgen.Request("GET", "/healthz")
    samples = []
    conn = loadgen.Connection(HOST, port)
    try:
        for _ in range(count):
            if fresh:
                outcome = loadgen.fresh_request(HOST, port, probe)
                samples.append(outcome.done - outcome.sent)
            else:
                t0 = now()
                conn.request(probe)
                samples.append(now() - t0)
    finally:
        conn.close()
    return statistics.median(samples) * 1e3


def _trace_http(report: Report, traffic: Traffic, seconds: float,
                src_dir: str, workdir: str) -> float:
    """The HTTP side of the traced run; returns the closed-loop median
    latency (seconds) the in-process number is subtracted from."""
    layer = report.per_layer
    server = ServerProcess(src_dir, workdir, workers=CONNECTIONS)
    server.start()
    try:
        traffic.fill(server.port)
        schedule = loadgen.poisson_schedule(
            traffic.rate, seconds * OPEN_SHARE, traffic.rng)
        open_out = loadgen.open_loop(
            HOST, server.port,
            [traffic.open_request(i) for i in range(len(schedule))],
            schedule, CONNECTIONS,
        )
        closed = loadgen.closed_loop(
            HOST, server.port, traffic.closed_request, seconds * 0.2,
            CONNECTIONS,
        )
        layer["service.http_keepalive_rtt_ms"] = _rtt_ms(server.port, False)
        layer["service.http_fresh_rtt_ms"] = _rtt_ms(server.port, True)
        scrapes = []
        for _ in range(5):
            t0 = now()
            metrics = server.metrics()
            scrapes.append(now() - t0)
        layer["service.metrics_scrape_ms"] = statistics.median(scrapes) * 1e3
        layer["service.server_cpu_s"] = server.cpu_seconds()
    finally:
        server.stop()
    for outcome in open_out + closed.answered():
        report.tally.record(_reason(outcome, traffic.limit_s),
                            outcome.request.ref.id)
    open_ms = [o.latency * 1e3 for o in open_out]
    layer["service.open_latency_ms_p50"] = percentile(open_ms, 50)
    layer["service.open_latency_ms_p90"] = percentile(open_ms, 90)
    layer["bench.loadgen_lag_ms_max"] = max(o.lag for o in open_out) * 1e3
    layer["service.solved"] = metrics.get(SOLVED, 0.0)
    layer["service.dedup_completed"] = metrics.get(DEDUP_DONE, 0.0)
    layer["service.dedup_inflight"] = metrics.get(DEDUP_FLIGHT, 0.0)
    layer["service.shed"] = sum(metrics.get(k, 0.0) for k in SHED)
    layer["service.stage_cache_hit_share"] = metrics.get(
        "repro_stage_cache_hit_rate", 0.0)
    return statistics.median(o.done - o.sent for o in closed.answered())


def _in_process(tracer: Optional[Tracer], fill: List[Tuple[str, str]],
                lines: List[Tuple[str, str]], workdir: str) -> List[float]:
    """Submit ``fill`` then ``lines`` (tag, request line) to an
    in-process service, one caller; with a tracer, through the
    instrumented collaborators (the trace keeps only ``lines``).
    Returns the submit-to-result seconds of each of ``lines``."""
    from contextlib import nullcontext

    from repro.service import JobStore, MappingService, solve_request
    from repro.service.api import parse_request_line, response_to_line
    from repro.sweep import StageCache

    from bench import layers

    os.makedirs(workdir)
    store_dir = os.path.join(workdir, "store")
    cache_dir = os.path.join(workdir, "cache")
    submitted: Dict[str, Tuple[float, int]] = {}

    def span(name, **kw):
        return tracer.span(name, **kw) if tracer else nullcontext()

    def traced_solve(request, tier, cache):
        sent, parent = submitted[request.tag]
        tracer.fold("service.queue_wait", now() - sent)
        with tracer.span("service.solve", trace_id=request.tag,
                         parent=parent):
            return solve_request(request, tier, cache)

    if tracer:
        service = MappingService(
            cache=layers.TracedStageCache(tracer, cache_dir),
            store=layers.TracedJobStore(tracer, store_dir),
            workers=CONNECTIONS, solve_fn=traced_solve,
        )
    else:
        service = MappingService(
            cache=StageCache(cache_dir), store=JobStore(store_dir),
            workers=CONNECTIONS,
        )
    walls = []
    with service:
        for tag, line in fill + lines:
            if tracer and lines and tag == lines[0][0]:
                tracer.reset()
                walls.clear()
            with span("service.request", trace_id=tag):
                with span("service.parse"):
                    request = parse_request_line(line)
                    request.validate()
                with span("service.submit_to_result") as parent:
                    t0 = now()
                    submitted[tag] = (t0, parent)
                    response = service.submit(request).response()
                    walls.append(now() - t0)
                with span("service.render"):
                    response_to_line(response)
            if response.get("state") != "done":
                raise RuntimeError(f"in-process request failed: {response}")
    return walls


def _lines(traffic: Traffic, indices) -> List[Tuple[str, str]]:
    out = []
    for i in indices:
        payload = json.loads(traffic.closed_request(i).body)
        out.append((f"r{i}", json.dumps({**payload, "tag": f"r{i}"})))
    return out


def trace_serve(workload: str, seed: int, seconds: float, src_dir: str,
                workdir: str) -> Tuple[Report, Tracer]:
    from repro.apps import build_app
    from repro.graph.fingerprint import graph_fingerprint
    from repro.service.api import parse_request_line, request_key

    report = Report(workload)
    tracer = Tracer()
    traffic = Traffic(workload, seed)
    http_median_s = _trace_http(
        report, traffic, seconds, src_dir, os.path.join(workdir, "http"))

    # in-process: the same kind of traffic, one caller, untraced then
    # traced — the same lines both times, each side with a fresh service,
    # store and cache, so serve-unique's graphs are new to both
    count = 200 if traffic.dup else 40
    lines = _lines(traffic, range(count))
    # serve-dup solves its 48 keys first, so every timed line is a hit
    fill = [(f"fill{i}", json.dumps({**key.request("instant"),
                                     "tag": f"fill{i}"}))
            for i, key in enumerate(traffic.keys)]
    plain = _in_process(None, fill, lines,
                        os.path.join(workdir, "plain"))[len(fill):]
    traced = _in_process(tracer, fill, lines,
                         os.path.join(workdir, "traced"))

    # probes: what building the request key costs, layer by layer
    fingerprints: Dict[Tuple[str, int], str] = {}
    for _tag, line in lines:
        request = parse_request_line(line)
        memo = (request.app, request.n)
        if memo not in fingerprints:
            with tracer.span("graph.build"):
                graph = build_app(request.app, request.n)
            with tracer.span("graph.fingerprint"):
                fingerprints[memo] = graph_fingerprint(graph)
        with tracer.span("service.key"):
            request_key(request, graph_fp=fingerprints[memo])

    report.set_layers_from(tracer)
    layer = report.per_layer
    in_process_s = statistics.median(traced)
    layer["service.submit_to_result_ms"] = in_process_s * 1e3
    layer["service.http_overhead_ms"] = (http_median_s - in_process_s) * 1e3
    # per request, not per run: the run lengths differ between workloads
    for name in ("service.parse_ms", "service.key_ms", "service.render_ms",
                 "service.solve_ms", "service.queue_wait_ms",
                 "service.store_get_ms", "service.store_put_ms"):
        layer[name] = layer.get(name, 0.0) / len(traced)
    layer["bench.trace_overhead_share"] = overhead_share(traced, plain)
    layer["bench.span_coverage_share"] = tracer.coverage("service.request")
    return report, tracer
