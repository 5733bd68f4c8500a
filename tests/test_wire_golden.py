"""Cross-commit wire golden: the service's bytes are pinned *across* commits.

The other contract tests compare transports with each other at one
commit; this one pins what every transport answers to a fixed list of
request lines, so a refactor of the request path cannot drift all four
in step.  ``tests/golden/service/wire_v1.jsonl`` holds one record per
request line:

``line``
    the request line as sent;
``stream``
    the exact text ``serve_stream`` writes for it (``""`` for blank and
    comment lines) — also the ``POST /api/v1/batch`` body;
``route`` / ``status`` / ``body``
    what the single-request route of the line's kind answers (absent on
    lines that are not requests).

Every transport replays the records **in order, one record per call,
against one fresh service**, so a duplicate always finds its original
completed and the ``dedup`` field is deterministic.  The file was
written by :func:`observe` at commit ``a410238`` — the parent of the
one-request-path refactor — and is never refreshed: responses are
deterministic by contract, and request keys are part of the bytes, so a
``--store`` directory written by that commit keeps deduplicating.
"""

import io
import json
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.service import MappingService, serve_http, serve_stream

GOLDEN = Path(__file__).parent / "golden" / "service" / "wire_v1.jsonl"

TRANSPORTS = ("stdio", "batch", "solve", "remap")


def _records():
    with GOLDEN.open() as fh:
        return [json.loads(line) for line in fh]


def _post(url, text):
    req = urllib.request.Request(url, data=text.encode(), method="POST")
    try:
        with urllib.request.urlopen(req, timeout=120) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()


def observe(transport, records):
    """What ``transport`` answers to each record's line (``None`` where
    the record is not addressed to it), on one fresh service."""
    seen = []
    with MappingService() as service:
        server = serve_http(service, port=0)
        try:
            for record in records:
                line = record["line"]
                if transport == "stdio":
                    out = io.StringIO()
                    serve_stream(io.StringIO(line + "\n"), out, service)
                    seen.append({"stream": out.getvalue()})
                elif transport == "batch":
                    status, body = _post(
                        server.url + "/api/v1/batch", line + "\n")
                    assert status == 200
                    seen.append({"stream": body})
                elif record.get("route") == f"/api/v1/{transport}":
                    status, body = _post(server.url + record["route"], line)
                    seen.append({"status": status, "body": body})
                else:
                    seen.append(None)
        finally:
            server.stop()
    return seen


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_transport_reproduces_the_parent_commits_bytes(transport):
    records = _records()
    assert len(records) >= 12
    for record, seen in zip(records, observe(transport, records)):
        if seen is not None:
            expected = {name: record[name] for name in seen}
            assert seen == expected, record["line"]
