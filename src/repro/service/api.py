"""Request model and JSON-lines client API of the mapping service.

A :class:`MappingRequest` names a solve the way a client thinks of it
(app + size, machine, strategy, budget tier); :func:`request_key`
canonicalizes it to a content-addressed identity — the *graph
fingerprint* (not the app name), the *platform key* (the full
interconnect content, not the platform's name), and the solver
configuration.  Two requests share a key iff their solves are guaranteed
to produce identical results, which is exactly the dedup criterion the
service needs.  Scheduling metadata (``priority``, ``deadline_s``,
``tag``) never enters the key: an urgent duplicate of a background
request is still a duplicate.

The wire format is JSON lines: one request object per line in, one
response object per line out, ``tag`` echoed back for correlation.
``repro submit`` emits request lines; ``repro serve`` consumes them (see
:mod:`repro.cli`); :func:`serve_stream` is the shared loop.

>>> req = MappingRequest(app="Bitonic", n=8, num_gpus=2)
>>> req2 = request_from_json(request_to_json(req))
>>> req2 == req and len(request_key(req)) == 64
True
>>> request_key(req) == request_key(MappingRequest(app="Bitonic", n=8,
...                                                num_gpus=2, priority=9))
True
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from typing import IO, List, Optional, Union

from repro.apps.registry import build_app, is_known_app
from repro.flow import MAPPERS, PARTITIONERS, topology_key_parts
from repro.graph.fingerprint import graph_fingerprint
from repro.graph.stream_graph import StreamGraph
from repro.mapping.budget import BUDGET_TIERS, SolveBudget
from repro.sweep.spec import SPECS


@dataclass(frozen=True)
class MappingRequest:
    """One client request to the mapping service."""

    #: bundled benchmark name or ``synth:<family>[;k=v...]``
    app: str
    #: benchmark size parameter (the synth families read it as the seed)
    n: int
    #: reference-tree GPU count; ignored when ``platform`` is given
    num_gpus: int = 1
    #: named machine from :mod:`repro.gpu.platforms` (fixes the GPU count)
    platform: Optional[str] = None
    #: target device name (see :data:`repro.sweep.spec.SPECS`)
    spec: str = "M2090"
    partitioner: str = "ours"
    #: ``"portfolio"`` (the service default) or any flow mapper
    mapper: str = "portfolio"
    #: solve-budget tier name (see :data:`repro.mapping.BUDGET_TIERS`)
    budget: str = "default"
    peer_to_peer: bool = True
    #: simulator noise seed
    seed: int = 0
    #: scheduling only — lower drains sooner; never part of the key
    priority: int = 0
    #: scheduling only — relative wall-clock allowance in seconds
    deadline_s: Optional[float] = None
    #: scheduling only — client correlation id, echoed in responses
    tag: Optional[str] = None

    def validate(self) -> None:
        """Raise ``ValueError`` on any unknown knob value."""
        if not is_known_app(self.app):
            raise ValueError(f"unknown app {self.app!r}")
        if self.partitioner not in PARTITIONERS:
            raise ValueError(f"unknown partitioner {self.partitioner!r}")
        if self.mapper not in MAPPERS:
            raise ValueError(f"unknown mapper {self.mapper!r}")
        if self.budget not in BUDGET_TIERS:
            raise ValueError(f"unknown budget tier {self.budget!r}")
        if self.spec not in SPECS:
            raise ValueError(f"unknown spec {self.spec!r}")
        if self.platform is None and self.num_gpus < 1:
            raise ValueError("num_gpus must be >= 1")
        if self.platform is not None:
            from repro.gpu.platforms import PLATFORM_NAMES

            if self.platform not in PLATFORM_NAMES:
                raise ValueError(f"unknown platform {self.platform!r}")


def build_request_graph(request: MappingRequest) -> StreamGraph:
    """Build the request's stream graph (deterministic per request).

    >>> build_request_graph(MappingRequest(app="Bitonic", n=8)).name
    'bitonic-n8'
    """
    return build_app(request.app, request.n)


def _base_request(request) -> MappingRequest:
    """The plain request under a request of either kind — a remap wraps
    the solve it repairs — carrying the budget tier, the scheduling
    fields and the tag."""
    return getattr(request, "base", request)


def _flow_kwargs(request: MappingRequest, tier: Optional[str] = None) -> dict:
    """The request's solver configuration as :mod:`repro.flow` keyword
    arguments — shared by every executor (solve, remap, the CLI), so a
    knob is translated in exactly one place.  ``tier`` overrides the
    request's budget tier (the deadline downgrade path).

    >>> kwargs = _flow_kwargs(MappingRequest(app="DES", n=4), tier="instant")
    >>> kwargs["mapper"], kwargs["solve_budget"].name
    ('portfolio', 'instant')
    """
    return {
        "spec": SPECS[request.spec],
        "partitioner": request.partitioner,
        "mapper": request.mapper,
        "peer_to_peer": request.peer_to_peer,
        "seed": request.seed,
        "solve_budget": SolveBudget.tier(tier or request.budget),
    }


def request_key(
    request: MappingRequest,
    graph_fp: Optional[str] = None,
) -> str:
    """Canonical content-addressed identity of a request (sha256 hex).

    The key digests the graph *fingerprint* (so two apps that flatten to
    the same graph dedup together), the machine content (the platform's
    full per-link interconnect description via
    :func:`repro.flow.topology_key_parts`, or the reference-tree GPU
    count), and every solver knob.  ``graph_fp`` skips the graph build
    when the caller already fingerprinted it.

    >>> a = request_key(MappingRequest(app="Bitonic", n=8))
    >>> b = request_key(MappingRequest(app="Bitonic", n=8, budget="ample"))
    >>> a != b
    True
    """
    if graph_fp is None:
        graph_fp = graph_fingerprint(build_request_graph(request))
    if request.platform is not None:
        from repro.gpu.platforms import build_platform

        machine = topology_key_parts(build_platform(request.platform))
    else:
        machine = {"tree": request.num_gpus}
    payload = {
        "graph": graph_fp,
        "machine": machine,
        "spec": request.spec,
        "partitioner": request.partitioner,
        "mapper": request.mapper,
        "budget": BUDGET_TIERS[request.budget].key_parts(),
        "peer_to_peer": request.peer_to_peer,
        "seed": request.seed,
    }
    digest = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                        default=str)
    return hashlib.sha256(digest.encode()).hexdigest()


def request_to_json(request: MappingRequest) -> dict:
    """The request as a plain JSON object (the wire format).

    >>> request_to_json(MappingRequest(app="DES", n=4))["app"]
    'DES'
    """
    return asdict(request)


#: wire type of every request field that is not a plain string, as
#: (accepted types, what the error message calls them); ``bool`` is an
#: ``int`` subclass in Python, so it is only accepted where listed
_INTEGER = ((int,), "an integer")
_NULLABLE_STRING = ((str, type(None)), "a string or null")
_WIRE_TYPES = {
    "n": _INTEGER,
    "num_gpus": _INTEGER,
    "seed": _INTEGER,
    "priority": _INTEGER,
    "deadline_s": ((int, float, type(None)), "a number or null"),
    "peer_to_peer": ((bool,), "true or false"),
    "platform": _NULLABLE_STRING,
    "tag": _NULLABLE_STRING,
}


def request_from_json(payload: dict) -> MappingRequest:
    """Parse one wire-format request object.

    Unknown keys are rejected — a typoed knob must not silently become a
    default solve — and so are wrong-typed values: a field that reaches
    the scheduler or the solver with the wrong type fails there, far
    from the client that sent it.

    >>> request_from_json({"app": "DES", "n": 4}).mapper
    'portfolio'
    >>> request_from_json({"app": "DES", "n": 4, "gpus": 2})
    Traceback (most recent call last):
        ...
    ValueError: unknown request field(s): gpus
    >>> request_from_json({"app": "DES", "n": 4, "deadline_s": "soon"})
    Traceback (most recent call last):
        ...
    ValueError: request field 'deadline_s' must be a number or null
    """
    known = {f.name for f in fields(MappingRequest)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ValueError(f"unknown request field(s): {', '.join(unknown)}")
    if "app" not in payload or "n" not in payload:
        raise ValueError("request needs at least 'app' and 'n'")
    for name, value in payload.items():
        types, wanted = _WIRE_TYPES.get(name, ((str,), "a string"))
        if not isinstance(value, types) or (
            isinstance(value, bool) and bool not in types
        ):
            raise ValueError(f"request field {name!r} must be {wanted}")
    return MappingRequest(**payload)


def parse_request_line(
    line: str, remap: bool = False
) -> Union[MappingRequest, "RemapRequest"]:
    """Decode one JSONL request line — the only place a wire line is
    parsed, whatever the transport.

    Returns a :class:`MappingRequest`, or — when the object carries a
    ``"remap"`` key — a :class:`~repro.service.remap.RemapRequest` (the
    scenario-replay wire form).  ``remap=True`` is the
    ``POST /api/v1/remap`` route: there a bare object is read as the
    inner remap form too.

    >>> parse_request_line('{"app": "DES", "n": 4}').app
    'DES'
    >>> parse_request_line('{"remap": {"app": "DES", "n": 4, '
    ...     '"platform": "host-star", '
    ...     '"deltas": [{"kind": "restore"}]}}').base.app
    'DES'
    """
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad request line: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError("request line must be a JSON object")
    if remap or "remap" in payload:
        # local import: remap builds on this module
        from repro.service.remap import remap_from_json

        return remap_from_json(payload)
    return request_from_json(payload)


def response_to_line(response: dict) -> str:
    """Encode one response object as a JSONL line (no trailing newline)."""
    return json.dumps(response, sort_keys=True, separators=(",", ":"))


def _parse_stream(in_fh: IO[str], strict: bool = False) -> List[object]:
    """The parse phase of :func:`serve_stream`: one validated request
    object — or one ``failed`` response placeholder — per request line
    (blank and ``#`` comment lines are skipped)."""
    parsed: List[object] = []
    for lineno, line in enumerate(in_fh, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            request = parse_request_line(line)
            request.validate()
        except ValueError as exc:
            if strict:
                raise
            parsed.append(
                {"state": "failed", "error": f"line {lineno}: {exc}"}
            )
            continue
        parsed.append(request)
    return parsed


def _answer_stream(parsed: List[object], out_fh: IO[str], service) -> int:
    """The submit and write phases of :func:`serve_stream`."""
    tickets = [
        item if isinstance(item, dict) else service.submit(item)
        for item in parsed
    ]
    failures = 0
    for ticket in tickets:
        if isinstance(ticket, dict):  # a parse failure placeholder
            response = ticket
        else:
            response = ticket.response()
        if response.get("state") != "done":
            failures += 1
        out_fh.write(response_to_line(response) + "\n")
    return failures


def serve_stream(
    in_fh: IO[str],
    out_fh: IO[str],
    service,
    strict: bool = False,
) -> int:
    """Drain JSONL requests from ``in_fh`` through ``service``.

    The stream is consumed in three phases: parse every line, submit
    every request up front (so duplicates dedup against each other and
    independent solves overlap across workers), then write responses to
    ``out_fh`` in *input order* — one line per request, each carrying
    ``state`` (``done``/``failed``), ``dedup`` provenance, and the
    solve result.  Returns the number of failed requests; a malformed
    line counts as a failure and, with ``strict=True``, raises during
    the parse phase — before anything is submitted, so an invalid
    stream has no side effects.

    Solve and remap lines (see :func:`parse_request_line`) mix freely:
    both go through :meth:`~repro.service.server.MappingService.submit`
    and are answered in the same stream, in the same input order.

    >>> import io
    >>> from repro.service.server import MappingService
    >>> out = io.StringIO()
    >>> with MappingService() as service:
    ...     failures = serve_stream(io.StringIO(
    ...         '{"app": "Bitonic", "n": 8, "num_gpus": 2, '
    ...         '"budget": "instant"}\\n'), out, service)
    >>> failures, '"state":"done"' in out.getvalue()
    (0, True)
    """
    return _answer_stream(_parse_stream(in_fh, strict), out_fh, service)
