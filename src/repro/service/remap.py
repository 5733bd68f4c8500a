"""Remap requests: the service surface of the repair solver.

A :class:`RemapRequest` wraps an ordinary
:class:`~repro.service.api.MappingRequest` (which must name a catalog
``platform``) with the degradation context: the ordered
:class:`~repro.gpu.delta.PlatformDelta` list, optionally the deployed
``old_assignment`` (omitted, the service solves — and caches — the
pristine baseline itself), and the migration price ``alpha``.

Wire format — one JSON object whose single ``"remap"`` key holds the
base request fields plus ``deltas`` / ``old_assignment`` / ``alpha``::

    {"remap": {"app": "Bitonic", "n": 8, "platform": "two-island",
               "deltas": [{"kind": "kill-gpu", "gpu": 1}]}}

The same object is accepted as a ``serve_stream`` JSONL line and as the
``POST /api/v1/remap`` body (both decoded by
:func:`repro.service.api.parse_request_line`); responses use the
ordinary response-line schema with repair provenance fields added.

Identity is content-addressed like everything else:
:func:`remap_request_key` digests the base request's canonical key plus
the full delta contents, the old assignment, and ``alpha`` — two remaps
dedup iff their repairs are guaranteed bit-identical, and a remap can
never collide with a plain solve of the same app (different key
namespace).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.gpu.delta import PlatformDelta, degrade_platform
from repro.mapping.repair import REPAIR_ALPHA
from repro.service.api import (
    MappingRequest,
    _flow_kwargs,
    build_request_graph,
    request_from_json,
    request_key,
    request_to_json,
)

__all__ = [
    "RemapRequest",
    "remap_from_json",
    "remap_request_key",
    "remap_to_json",
    "solve_remap_request",
]


@dataclass(frozen=True)
class RemapRequest:
    """One re-mapping request: a base solve plus its degradation context."""

    #: the deployed workload and solver config; ``platform`` is required
    base: MappingRequest
    #: platform deltas in application order (at least one)
    deltas: Tuple[PlatformDelta, ...] = ()
    #: the deployed assignment in the *pristine* platform's GPU ids;
    #: ``None`` lets the service solve the baseline itself (cached)
    old_assignment: Optional[Tuple[int, ...]] = None
    #: migration price in the repair objective (see
    #: :data:`repro.mapping.repair.REPAIR_ALPHA`)
    alpha: float = field(default=REPAIR_ALPHA)

    def validate(self) -> None:
        """Raise ``ValueError`` on any unknown or illegal knob value."""
        self.base.validate()
        if self.base.platform is None:
            raise ValueError("remap requires a named platform")
        if not self.deltas:
            raise ValueError("remap needs at least one delta")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        # apply the script now so an illegal delta (kill the last GPU,
        # unknown edge child, ...) fails at validation, not mid-solve
        degraded = degrade_platform(self.base.platform, self.deltas)
        if self.old_assignment is not None:
            # ids name GPUs of the pristine platform; a bool is not an id
            num_gpus = len(degraded.gpu_map)
            bad = [
                g for g in self.old_assignment
                if isinstance(g, bool) or not isinstance(g, int)
                or not 0 <= g < num_gpus
            ]
            if bad:
                raise ValueError(
                    f"old_assignment has bad GPU ids: {bad} "
                    f"({self.base.platform} has {num_gpus} GPUs)"
                )


def remap_request_key(
    request: RemapRequest, graph_fp: Optional[str] = None
) -> str:
    """Canonical content-addressed identity of a remap (sha256 hex).

    Digests the base request's own canonical key (graph fingerprint,
    machine content, solver config) plus the full delta contents, the
    old assignment, and ``alpha`` — everything the repair's answer
    depends on, and nothing it does not.

    >>> base = MappingRequest(app="Bitonic", n=8, platform="host-star")
    >>> a = remap_request_key(RemapRequest(
    ...     base=base, deltas=(PlatformDelta.kill_gpu(1),)))
    >>> b = remap_request_key(RemapRequest(
    ...     base=base, deltas=(PlatformDelta.kill_gpu(2),)))
    >>> len(a), a != b
    (64, True)
    """
    payload = {
        "remap": request_key(request.base, graph_fp=graph_fp),
        "deltas": [delta.key_parts() for delta in request.deltas],
        "old_assignment": (
            list(request.old_assignment)
            if request.old_assignment is not None else None
        ),
        "alpha": request.alpha,
    }
    digest = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                        default=str)
    return hashlib.sha256(digest.encode()).hexdigest()


def remap_to_json(request: RemapRequest) -> dict:
    """The remap request as its wire-format JSON object.

    >>> base = MappingRequest(app="DES", n=4, platform="host-star")
    >>> out = remap_to_json(RemapRequest(
    ...     base=base, deltas=(PlatformDelta.kill_gpu(0),)))
    >>> sorted(out) == ["remap"] and out["remap"]["app"]
    'DES'
    """
    inner = request_to_json(request.base)
    inner["deltas"] = [delta.to_json() for delta in request.deltas]
    if request.old_assignment is not None:
        inner["old_assignment"] = list(request.old_assignment)
    if request.alpha != REPAIR_ALPHA:
        inner["alpha"] = request.alpha
    return {"remap": inner}


def remap_from_json(payload: dict) -> RemapRequest:
    """Parse one wire-format remap object (wrapped or bare inner form).

    Accepts both ``{"remap": {...}}`` (the stream/HTTP line) and the
    bare inner object.  Unknown base fields are rejected exactly like
    plain requests.

    >>> req = remap_from_json({"remap": {
    ...     "app": "DES", "n": 4, "platform": "host-star",
    ...     "deltas": [{"kind": "kill-gpu", "gpu": 1}]}})
    >>> req.base.app, req.deltas[0].gpu
    ('DES', 1)
    """
    if not isinstance(payload, dict):
        raise ValueError("remap request must be a JSON object")
    inner = payload.get("remap", payload)
    if not isinstance(inner, dict):
        raise ValueError("'remap' must hold a JSON object")
    inner = dict(inner)
    deltas_json = inner.pop("deltas", None)
    if not isinstance(deltas_json, list) or not deltas_json:
        raise ValueError("remap needs a non-empty 'deltas' list")
    old = inner.pop("old_assignment", None)
    if old is not None and not isinstance(old, list):
        raise ValueError("'old_assignment' must be a list of GPU ids")
    alpha = inner.pop("alpha", REPAIR_ALPHA)
    if not isinstance(alpha, (int, float)) or isinstance(alpha, bool):
        raise ValueError("'alpha' must be a number")
    return RemapRequest(
        base=request_from_json(inner),
        deltas=tuple(PlatformDelta.from_json(d) for d in deltas_json),
        old_assignment=tuple(old) if old is not None else None,
        alpha=float(alpha),
    )


def solve_remap_request(request: RemapRequest, cache=None) -> dict:
    """Run one remap through the flow; returns the compact wire result.

    The remap analogue of :func:`repro.service.server.solve_request` —
    the front half and the pristine baseline replay from ``cache``; the
    repair itself is cheap and always computed (the service's job store
    dedups whole remap answers by :func:`remap_request_key`).

    >>> base = MappingRequest(app="Bitonic", n=8, platform="host-star",
    ...                       budget="instant")
    >>> out = solve_remap_request(RemapRequest(
    ...     base=base, deltas=(PlatformDelta.kill_gpu(1),)))
    >>> out["num_gpus"], out["budget"], out["tmax"] > 0
    (3, 'instant', True)
    """
    from repro.flow import remap_stream_graph

    base = request.base
    out = remap_stream_graph(
        build_request_graph(base),
        base.platform,
        list(request.deltas),
        old_assignment=(
            list(request.old_assignment)
            if request.old_assignment is not None else None
        ),
        alpha=request.alpha,
        cache=cache,
        **_flow_kwargs(base),
    )
    repair = out.repair
    return {
        "assignment": list(repair.mapping.assignment),
        "tmax": repair.mapping.tmax,
        "solver": repair.mapping.solver,
        "optimal": repair.mapping.optimal,
        "num_partitions": out.num_partitions,
        "num_gpus": out.degraded.topology.num_gpus,
        "budget": base.budget,
        "alpha": request.alpha,
        "migration_bytes": repair.migration_bytes,
        "migrated": list(repair.migrated),
        "evicted": list(repair.evicted),
        "fallback": repair.fallback,
        "baseline_tmax": (
            out.baseline.tmax if out.baseline is not None else None
        ),
        "greedy_tmax": repair.greedy_tmax,
    }
