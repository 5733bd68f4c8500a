"""Async mapping service: dedup, deadline budgets, anytime portfolio.

The serving layer the ROADMAP's production north star asks for, built
from four pieces:

* :mod:`repro.service.api` — the request model, canonical request keys,
  and the JSON-lines wire format (``repro submit`` / ``repro serve``):
  :func:`parse_request_line` is the one decoder every transport uses,
  for solve and remap lines alike;
* :mod:`repro.service.queue` — a priority/FIFO work queue;
* :mod:`repro.service.jobs` — the persistent job store (one job per
  canonical key; dedup is the storage layout);
* :mod:`repro.service.portfolio` — the anytime solver portfolio:
  greedy instantly, branch-and-bound and MILP as the budget allows,
  always a valid best-so-far mapping;
* :mod:`repro.service.server` — :class:`MappingService`, tying them
  together over worker threads (or a process pool) and a shared
  :class:`~repro.sweep.StageCache`; its one ``submit`` admits, dedups,
  runs and accounts for both request kinds;
* :mod:`repro.service.http` — the network front end (``/api/v1/solve``,
  ``/api/v1/remap``, ``/api/v1/batch``, ``/api/v1/jobs/<key>``,
  ``/metrics``, ``/healthz``), byte-identical to the stdio wire format;
* :mod:`repro.service.admission` — per-tenant token-bucket rate
  limiting (tier-priced) and queue-depth load shedding for the HTTP
  tier;
* :mod:`repro.service.remap` — fault-tolerant re-mapping requests: a
  deployed mapping plus a :class:`~repro.gpu.delta.PlatformDelta` list
  in, an incrementally repaired mapping out
  (:func:`repro.mapping.repair.solve_repair` under the hood).

Quick round trip::

    from repro.service import MappingService, MappingRequest

    with MappingService(workers=2) as service:
        tickets = [service.submit(MappingRequest(app="DES", n=8,
                                                 num_gpus=2))
                   for _ in range(8)]
        answers = [t.result() for t in tickets]
    # 8 identical answers, exactly 1 solve: service.stats().solved == 1

>>> from repro.service import MappingRequest, request_key
>>> request_key(MappingRequest(app="Bitonic", n=8)) \\
...     == request_key(MappingRequest(app="Bitonic", n=8, tag="again"))
True
"""

from repro.service.admission import (
    TIER_COST,
    Admission,
    AdmissionController,
    TokenBucket,
)
from repro.service.api import (
    MappingRequest,
    parse_request_line,
    request_from_json,
    request_key,
    request_to_json,
    serve_stream,
)
from repro.service.http import (
    MappingHTTPServer,
    render_metrics,
    serve_http,
)
from repro.service.jobs import Job, JobStore
from repro.service.remap import (
    RemapRequest,
    remap_from_json,
    remap_request_key,
    remap_to_json,
    solve_remap_request,
)
from repro.service.portfolio import (
    PortfolioResult,
    StageOutcome,
    solve_portfolio,
    tier_for_deadline,
)
from repro.service.queue import WorkQueue
from repro.service.server import (
    MappingService,
    ServiceError,
    ServiceStats,
    Ticket,
    solve_request,
)
from repro.mapping.budget import BUDGET_TIERS, TIER_ORDER, SolveBudget

__all__ = [
    "Admission",
    "AdmissionController",
    "BUDGET_TIERS",
    "Job",
    "JobStore",
    "MappingHTTPServer",
    "MappingRequest",
    "MappingService",
    "PortfolioResult",
    "RemapRequest",
    "ServiceError",
    "ServiceStats",
    "SolveBudget",
    "StageOutcome",
    "TIER_COST",
    "TIER_ORDER",
    "Ticket",
    "TokenBucket",
    "WorkQueue",
    "parse_request_line",
    "remap_from_json",
    "remap_request_key",
    "remap_to_json",
    "render_metrics",
    "request_from_json",
    "request_key",
    "request_to_json",
    "serve_http",
    "serve_stream",
    "solve_portfolio",
    "solve_remap_request",
    "solve_request",
    "tier_for_deadline",
]
