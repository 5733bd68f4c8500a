"""HTTP serving tier over :class:`~repro.service.server.MappingService`.

A dependency-light network front end (stdlib
:class:`~http.server.ThreadingHTTPServer`; one handler thread per
connection, solves run in the service's own workers) speaking the same
wire schema as the JSONL stdio mode — for equal requests the HTTP
response body is **byte-identical** to the ``serve_stream`` response
line, dedup/key/state fields included.

Endpoints (see ``docs/SERVICE.md`` for the full contract):

=============================  =========================================
``POST /api/v1/solve``         one request object in, one response
                               line out (blocks until solved)
``POST /api/v1/remap``         one ``{"remap": ...}`` object in, one
                               repaired-mapping response line out
``POST /api/v1/batch``         JSONL stream in, input-order JSONL out
``GET /api/v1/jobs/<key>``     poll a canonical request key's job record
``GET /metrics``               Prometheus text format
``GET /healthz``               ``200 ok`` / ``503 draining``
=============================  =========================================

Admission control (:mod:`repro.service.admission`) runs *before*
``submit``: a shed request is answered ``429`` with a ``Retry-After``
header and never touches the work queue, so admission is purely a
scheduling concern — request keys and cached results are unaffected.
Submit-refused requests (the service began draining) answer ``503``
with the same ``Retry-After`` discipline, so clients back off uniformly
whether they hit the rate limiter or a shutdown.

>>> from repro.service.server import MappingService
>>> with MappingService() as service:
...     server = serve_http(service, port=0)
...     try:
...         import urllib.request
...         body = urllib.request.urlopen(
...             f"{server.url}/healthz", timeout=10).read()
...     finally:
...         server.stop()
>>> body
b'{"status":"ok"}\\n'
"""

from __future__ import annotations

import io
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.service.admission import TIER_COST, AdmissionController
from repro.service.api import (
    _answer_stream,
    _base_request,
    _parse_stream,
    parse_request_line,
    response_to_line,
)

#: largest accepted request body (a batch of ~50k request lines)
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Retry-After seconds on a 503 submit-refused/draining response — a
#: drain is short (the backlog finishes or fails), so clients should
#: probe again soon rather than back off like a rate-limit hit
DRAIN_RETRY_AFTER_S = 5


def _fmt(value) -> str:
    """Prometheus sample-value formatting (ints stay integral)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def render_metrics(service, admission=None) -> str:
    """The ``/metrics`` payload: Prometheus text exposition format.

    Covers the service counters (submitted/solved/failed/dedup/expired),
    queue depth and drain state, the per-tier solve-latency histograms,
    StageCache and MilpModelCache hit rates, and (when an
    :class:`~repro.service.admission.AdmissionController` is given) the
    admission/shed counters.

    >>> from repro.service.server import MappingService
    >>> with MappingService() as service:
    ...     text = render_metrics(service)
    >>> "# TYPE repro_service_queue_depth gauge" in text
    True
    >>> "repro_service_submitted_total 0" in text
    True
    """
    from repro.mapping.milp_model import MODEL_CACHE

    stats = service.stats()
    lines = []

    def counter(name, help_text, value, labels=None):
        sample(name, help_text, "counter", value, labels)

    def gauge(name, help_text, value, labels=None):
        sample(name, help_text, "gauge", value, labels)

    def sample(name, help_text, kind, value, labels=None):
        if help_text is not None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
        label = ""
        if labels:
            inner = ",".join(f'{k}="{v}"' for k, v in labels)
            label = "{" + inner + "}"
        lines.append(f"{name}{label} {_fmt(value)}")

    counter("repro_service_submitted_total",
            "Requests submitted to the mapping service.", stats.submitted)
    counter("repro_service_solved_total",
            "Solver invocations that completed.", stats.solved)
    counter("repro_service_failed_total",
            "Jobs that finished FAILED (solver errors, expiries, "
            "shutdown).", stats.failed)
    counter("repro_service_expired_total",
            "Jobs failed because their deadline expired in the queue.",
            stats.expired)
    counter("repro_service_dedup_total",
            "Submissions answered without a solve.", stats.dedup_inflight,
            labels=[("kind", "inflight")])
    counter("repro_service_dedup_total", None, stats.dedup_completed,
            labels=[("kind", "completed")])
    gauge("repro_service_queue_depth",
          "Accepted jobs waiting for a worker.", service.queue_depth())
    gauge("repro_service_draining",
          "1 once shutdown has begun (healthz turns 503).",
          service.draining)

    latency = service.solve_latency()
    if latency:
        lines.append("# HELP repro_service_solve_latency_seconds "
                     "Solve wall time by budget tier.")
        lines.append("# TYPE repro_service_solve_latency_seconds histogram")
        for tier, hist in latency.items():
            for bound, count in hist["buckets"]:
                sample("repro_service_solve_latency_seconds_bucket",
                       None, None, count,
                       labels=[("tier", tier), ("le", _fmt(bound))])
            sample("repro_service_solve_latency_seconds_bucket", None,
                   None, hist["count"],
                   labels=[("tier", tier), ("le", "+Inf")])
            sample("repro_service_solve_latency_seconds_sum", None, None,
                   hist["sum"], labels=[("tier", tier)])
            sample("repro_service_solve_latency_seconds_count", None, None,
                   hist["count"], labels=[("tier", tier)])

    cache_stats = service.cache.stats()
    counter("repro_stage_cache_lookups_total",
            "Pipeline-stage cache lookups.", cache_stats.hits,
            labels=[("result", "hit")])
    counter("repro_stage_cache_lookups_total", None, cache_stats.misses,
            labels=[("result", "miss")])
    gauge("repro_stage_cache_hit_rate",
          "Stage-cache lifetime hit rate.", float(cache_stats.hit_rate))

    milp = MODEL_CACHE.stats()
    counter("repro_milp_model_cache_lookups_total",
            "Compiled-MILP-model cache lookups (process-wide).",
            milp["hits"], labels=[("result", "hit")])
    counter("repro_milp_model_cache_lookups_total", None, milp["misses"],
            labels=[("result", "miss")])
    counter("repro_milp_model_cache_evictions_total",
            "Compiled models evicted from the LRU.", milp["evictions"])
    gauge("repro_milp_model_cache_size",
          "Compiled models currently cached.", milp["size"])
    lookups = milp["hits"] + milp["misses"]
    gauge("repro_milp_model_cache_hit_rate",
          "MILP model cache lifetime hit rate.",
          float(milp["hits"] / lookups) if lookups else 0.0)

    if admission is not None:
        shed = admission.stats()
        counter("repro_admission_admitted_total",
                "Requests that passed admission control.",
                shed["admitted"])
        counter("repro_admission_shed_total",
                "Requests shed with 429.", shed["shed_rate"],
                labels=[("reason", "rate")])
        counter("repro_admission_shed_total", None, shed["shed_queue"],
                labels=[("reason", "queue")])
        gauge("repro_admission_tenants",
              "Distinct tenant token buckets currently tracked.",
              shed["tenants"])

    return "\n".join(lines) + "\n"


class _Handler(BaseHTTPRequestHandler):
    """Routes one connection's requests (one thread per connection)."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    sys_version = ""

    # -- plumbing ------------------------------------------------------
    @property
    def service(self):
        return self.server.service

    @property
    def admission(self):
        return self.server.admission

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    def _respond(self, status: int, body: bytes,
                 content_type: str = "application/json",
                 headers=()) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _json(self, status: int, payload: dict, headers=()) -> None:
        body = (response_to_line(payload) + "\n").encode()
        self._respond(status, body, headers=headers)

    def _read_body(self) -> Optional[bytes]:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0:
            # a negative length would turn rfile.read() into read-to-EOF,
            # which blocks on a keep-alive connection
            self._json(400, {"error": "bad Content-Length"})
            return None
        if length > MAX_BODY_BYTES:
            self._json(413, {"error": "request body too large"})
            return None
        return self.rfile.read(length)

    def _shed(self, verdict) -> None:
        """Answer a rejected admission verdict with 429 + Retry-After."""
        retry = verdict.retry_after
        seconds = 3600 if math.isinf(retry) else max(1, math.ceil(retry))
        self._json(
            429,
            {"error": "too many requests", "reason": verdict.reason,
             "retry_after": seconds},
            headers=[("Retry-After", str(seconds))],
        )

    def _refused(self, exc: BaseException) -> None:
        """Answer a refused submit (shutdown race / draining) with 503.

        Mirrors :meth:`_shed`'s contract — ``Retry-After`` header plus
        ``reason``/``retry_after`` body fields — so clients back off the
        same way on 429 and 503.
        """
        self._json(
            503,
            {"error": f"{type(exc).__name__}: {exc}",
             "reason": "draining",
             "retry_after": DRAIN_RETRY_AFTER_S},
            headers=[("Retry-After", str(DRAIN_RETRY_AFTER_S))],
        )

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib dispatch name
        if self.path == "/healthz":
            if self.service.draining:
                self._json(503, {"status": "draining"})
            else:
                self._json(200, {"status": "ok"})
        elif self.path == "/metrics":
            body = render_metrics(self.service, self.admission).encode()
            self._respond(200, body,
                          content_type="text/plain; version=0.0.4")
        elif self.path.startswith("/api/v1/jobs/"):
            self._get_job(self.path[len("/api/v1/jobs/"):])
        else:
            self._json(404, {"error": f"no such endpoint: {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib dispatch name
        body = self._read_body()
        if body is None:
            return
        if self.path in ("/api/v1/solve", "/api/v1/remap"):
            self._post_request(body)
        elif self.path == "/api/v1/batch":
            self._post_batch(body)
        else:
            self._json(404, {"error": f"no such endpoint: {self.path}"})

    # -- endpoint bodies -----------------------------------------------
    def _tenant(self) -> str:
        return self.headers.get("X-Tenant", "anonymous")

    def _get_job(self, key: str) -> None:
        job = self.service.store.get(key)
        if job is None:
            self._json(404, {"error": f"unknown job key: {key}"})
            return
        self._json(200, job.to_json())

    def _post_request(self, body: bytes) -> None:
        """One request line in, one response line out — ``/api/v1/solve``
        and ``/api/v1/remap`` alike.

        Either route takes either kind; ``/api/v1/remap`` additionally
        reads a bare object as the inner remap form.  Admission-priced
        by the request's budget tier.  The success body is exactly the
        line ``serve_stream`` would write for the same request —
        ``response_to_line(response)`` plus a newline — which is what
        makes the byte-identity contract hold by construction.
        """
        try:
            request = parse_request_line(
                body.decode("utf-8", "replace"),
                remap=self.path == "/api/v1/remap",
            )
            request.validate()
        except ValueError as exc:
            self._json(400, {"error": str(exc)})
            return
        verdict = self.admission.admit(
            self._tenant(), budget=_base_request(request).budget,
            queue_depth=self.service.queue_depth(),
        )
        if not verdict.allowed:
            self._shed(verdict)
            return
        try:
            ticket = self.service.submit(request)
        except BaseException as exc:  # draining, or submit raced one
            self._refused(exc)
            return
        response = ticket.response()
        self._respond(200, (response_to_line(response) + "\n").encode())

    def _post_batch(self, body: bytes) -> None:
        """A JSONL stream in, the ``serve_stream`` output stream out.

        The whole batch is admitted or shed as one unit: its token cost
        is the sum of the per-request tier costs (unusable lines charge
        the minimum — they still cost a parse), so a batch cannot
        sidestep the per-request rate limit.
        """
        parsed = _parse_stream(io.StringIO(body.decode("utf-8", "replace")))
        floor = min(TIER_COST.values())
        cost = sum(
            floor if isinstance(item, dict)
            else TIER_COST[_base_request(item).budget]
            for item in parsed
        )
        verdict = self.admission.admit(
            self._tenant(), cost=float(cost),
            queue_depth=self.service.queue_depth(),
        )
        if not verdict.allowed:
            self._shed(verdict)
            return
        out = io.StringIO()
        _answer_stream(parsed, out, self.service)
        self._respond(200, out.getvalue().encode(),
                      content_type="application/x-ndjson")


class MappingHTTPServer(ThreadingHTTPServer):
    """The HTTP front end: a threading server bound to one
    :class:`~repro.service.server.MappingService`.

    Construct with ``port=0`` for an ephemeral port (tests, benchmarks);
    drive with :meth:`serve_forever` in the foreground (the CLI) or via
    :func:`serve_http` for a background thread.  The server does not own
    the service — shut the service down separately.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        admission: Optional[AdmissionController] = None,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self.admission = (
            admission if admission is not None else AdmissionController()
        )
        self.verbose = verbose
        super().__init__((host, port), _Handler)

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}"

    def stop(self) -> None:
        """Stop the accept loop and release the socket (idempotent)."""
        self.shutdown()
        self.server_close()


def serve_http(
    service,
    host: str = "127.0.0.1",
    port: int = 0,
    admission: Optional[AdmissionController] = None,
    verbose: bool = False,
) -> MappingHTTPServer:
    """Start an HTTP front end on a background thread; returns the
    bound server (``server.url`` is ready immediately).

    The accept loop runs on a daemon thread; call ``server.stop()``
    when done.  The service itself is not owned by the server.

    >>> from repro.service.server import MappingService
    >>> with MappingService() as service:
    ...     server = serve_http(service, port=0)
    ...     try:
    ...         import urllib.request
    ...         with urllib.request.urlopen(
    ...             f"{server.url}/metrics", timeout=10) as resp:
    ...             ok = resp.status == 200
    ...     finally:
    ...         server.stop()
    >>> ok
    True
    """
    server = MappingHTTPServer(
        service, host=host, port=port, admission=admission, verbose=verbose,
    )
    thread = threading.Thread(
        target=server.serve_forever, daemon=True, name="repro-http",
    )
    thread.start()
    return server
