"""Service-layer robustness: refusal parity, crash recovery, bad input.

Separate guarantees, one theme — a degraded service degrades
*politely*:

* **refusal parity** — every retryable refusal (429 shed, 503
  submit-refused/draining) carries a ``Retry-After`` header and a
  machine-readable ``reason`` in the body, so clients back off the
  same way regardless of which limit they hit;
* **crash-robust startup** — a ``JobStore`` pointed at a directory a
  crashed writer left behind sweeps orphaned ``*.tmp`` files, and
  quarantines truncated/corrupt job files as ``*.corrupt`` so their
  keys re-solve instead of crashing the service or shadowing the key;
* **stream resilience** — one malformed JSONL line must cost exactly
  one error response: later lines still solve, and dedup state is not
  poisoned by the garbage in between;
* **hostile input** — a wrong-typed wire field is refused at the
  decoder, a job that raises anywhere still resolves its ticket and
  leaves its worker alive, and a negative ``Content-Length`` answers
  400 instead of parking a handler thread.
"""

import io
import json
import os
import socket
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro.service import (
    AdmissionController,
    JobStore,
    MappingRequest,
    MappingService,
    ServiceError,
    serve_http,
    serve_stream,
)
from repro.service.http import DRAIN_RETRY_AFTER_S
from repro.service.jobs import DONE, Job


def _post(url, data, headers=None):
    req = urllib.request.Request(
        url, data=data, headers=headers or {}, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, resp.read(), resp.headers
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), exc.headers


@contextmanager
def _server(service, admission=None):
    server = serve_http(service, port=0, admission=admission)
    try:
        yield server
    finally:
        server.stop()


SOLVE_LINE = json.dumps({"app": "Bitonic", "n": 8, "num_gpus": 2,
                         "budget": "instant"}).encode()
REMAP_BODY = json.dumps({"remap": {
    "app": "Bitonic", "n": 8, "platform": "host-star",
    "budget": "instant",
    "deltas": [{"kind": "kill-gpu", "gpu": 1}],
}}).encode()


# ----------------------------------------------------------------------
# satellite 1: 429 and 503 refusals speak the same retry language
# ----------------------------------------------------------------------
class TestRefusalParity:
    def test_429_shed_carries_retry_after_and_reason(self):
        admission = AdmissionController(rate=0.01, burst=1.0)
        with MappingService() as service:
            with _server(service, admission) as server:
                url = server.url + "/api/v1/solve"
                assert _post(url, SOLVE_LINE)[0] == 200
                status, body, headers = _post(url, SOLVE_LINE)
        assert status == 429
        payload = json.loads(body)
        assert payload["reason"] == "rate"
        assert int(headers["Retry-After"]) == payload["retry_after"] >= 1

    def test_503_solve_refusal_carries_retry_after_and_reason(self):
        """The parity half: a drained service's 503 must say how long
        to back off, exactly like a 429 does."""
        service = MappingService(workers=1)
        with _server(service) as server:
            service.shutdown(wait=True)
            status, body, headers = _post(
                server.url + "/api/v1/solve", SOLVE_LINE)
        assert status == 503
        payload = json.loads(body)
        assert payload["reason"] == "draining"
        assert payload["retry_after"] == DRAIN_RETRY_AFTER_S
        assert int(headers["Retry-After"]) == DRAIN_RETRY_AFTER_S
        assert "error" in payload

    def test_503_remap_refusal_matches(self):
        service = MappingService(workers=1)
        with _server(service) as server:
            service.shutdown(wait=True)
            status, body, headers = _post(
                server.url + "/api/v1/remap", REMAP_BODY)
        assert status == 503
        payload = json.loads(body)
        assert payload["reason"] == "draining"
        assert int(headers["Retry-After"]) == DRAIN_RETRY_AFTER_S


# ----------------------------------------------------------------------
# satellite 2: JobStore startup survives a crashed writer
# ----------------------------------------------------------------------
class TestJobStoreCrashRecovery:
    def test_orphaned_tmp_files_are_swept(self, tmp_path):
        store_dir = str(tmp_path)
        JobStore(store_dir).put(
            Job(key="good", request={"app": "DES"}, state=DONE,
                result={"tmax": 1.0}))
        orphan = tmp_path / "abc123.tmp"
        orphan.write_text('{"half": "written')
        store = JobStore(store_dir)
        assert not orphan.exists()
        assert store.get("good") is not None
        assert len(store) == 1

    def test_corrupt_job_is_quarantined_and_key_resolves(self, tmp_path):
        store_dir = str(tmp_path)
        first = JobStore(store_dir)
        first.put(Job(key="broken", request={"app": "DES"}, state=DONE,
                      result={"tmax": 1.0}))
        first.put(Job(key="intact", request={"app": "FFT"}, state=DONE,
                      result={"tmax": 2.0}))
        path = tmp_path / "broken.job.json"
        path.write_text('{"key": "broken", "state": "do')  # truncated

        store = JobStore(store_dir)
        # the broken key is free again (it will re-solve), the intact
        # one still dedups, and the bytes survive for a post-mortem
        assert store.get("broken") is None
        assert store.get("intact").result == {"tmax": 2.0}
        assert not path.exists()
        assert (tmp_path / "broken.job.json.corrupt").exists()

        # the quarantined key re-persists cleanly on the next solve
        store.put(Job(key="broken", request={"app": "DES"}, state=DONE,
                      result={"tmax": 3.0}))
        again = JobStore(store_dir)
        assert again.get("broken").result == {"tmax": 3.0}

    def test_wrong_shape_json_is_also_quarantined(self, tmp_path):
        (tmp_path / "weird.job.json").write_text('["not", "a", "job"]')
        store = JobStore(str(tmp_path))
        assert len(store) == 0
        assert (tmp_path / "weird.job.json.corrupt").exists()

    def test_service_starts_on_a_dirty_store_dir(self, tmp_path):
        (tmp_path / "leftover.tmp").write_text("x")
        (tmp_path / "bad.job.json").write_text("{{{{")
        store = JobStore(str(tmp_path))
        with MappingService(workers=1, store=store) as service:
            from repro.service import MappingRequest

            ticket = service.submit(MappingRequest(
                app="Bitonic", n=8, num_gpus=2, budget="instant"))
            assert ticket.result()["tmax"] > 0


# ----------------------------------------------------------------------
# satellite 3: a malformed stream line is one failure, not a poison
# ----------------------------------------------------------------------
class TestStreamResilience:
    def test_malformed_line_between_two_valid_requests(self):
        line = json.dumps({"app": "Bitonic", "n": 8, "num_gpus": 2,
                           "budget": "instant"})
        stream = "\n".join([line, '{"app": "Bitonic", "n": 8, ', line])
        out = io.StringIO()
        with MappingService(workers=2) as service:
            failures = serve_stream(
                io.StringIO(stream + "\n"), out, service)
            stats = service.stats()
        responses = [json.loads(t) for t in out.getvalue().splitlines()]

        # exactly one error response, in input order
        assert failures == 1
        assert [r["state"] for r in responses] == [
            "done", "failed", "done"]
        assert "line 2" in responses[1]["error"]

        # the stream was not aborted and dedup was not poisoned: the
        # two valid duplicates share one solve and one key
        assert responses[0]["key"] == responses[2]["key"]
        assert responses[0]["result"] == responses[2]["result"]
        assert stats.solved == 1
        assert stats.submitted == 2


# ----------------------------------------------------------------------
# hostile input: wrong-typed fields, jobs that raise, negative lengths
# ----------------------------------------------------------------------
class TestHostileInput:
    WRONG_TYPES = [
        ("deadline_s", "soon"), ("n", "8"), ("num_gpus", True),
        ("priority", 1.5), ("seed", None), ("peer_to_peer", "yes"),
        ("tag", 5), ("platform", 3), ("budget", 0), ("app", ["Bitonic"]),
        # a retired value is refused at the decoder exactly like a bad type
        ("mapper", "metaheuristic"),
    ]

    def test_wrong_typed_fields_are_refused_not_run(self):
        """One wrong-typed field (``"deadline_s": "soon"``) used to pass
        validation and raise inside the worker loop, killing the thread
        for good: with one worker, every later request hung."""
        with MappingService(workers=1) as service:
            with _server(service) as server:
                url = server.url + "/api/v1/solve"
                for field, value in self.WRONG_TYPES:
                    line = json.dumps({**json.loads(SOLVE_LINE),
                                       field: value})
                    status, body, _ = _post(url, line.encode())
                    assert status == 400, field
                    assert field in json.loads(body)["error"]
                    out = io.StringIO()
                    assert serve_stream(
                        io.StringIO(line + "\n"), out, service) == 1
                    response = json.loads(out.getvalue())
                    assert response["state"] == "failed"
                    assert field in response["error"]
                # nothing was admitted, and the next request is served
                assert service.stats().submitted == 0
                assert _post(url, SOLVE_LINE)[0] == 200

    @pytest.mark.parametrize("old_assignment", [
        [9, 9, 9, 9, 9, 9],  # host-star has 4 GPUs
        [True, False, True, False, True, False],  # bools are not ids
    ], ids=["gpu-id-out-of-range", "bool-gpu-ids"])
    def test_bad_old_assignment_is_refused_not_run(self, old_assignment):
        """Both used to validate and solve: out-of-range ids counted every
        partition as evicted and fell back to a full portfolio solve, and
        ``true`` keyed a different remap than ``1``."""
        body = json.loads(REMAP_BODY)
        body["remap"]["old_assignment"] = old_assignment
        line = json.dumps(body)
        with MappingService(workers=1) as service:
            with _server(service) as server:
                status, reply, _ = _post(
                    server.url + "/api/v1/remap", line.encode())
                assert status == 400
                assert "old_assignment" in json.loads(reply)["error"]
            out = io.StringIO()
            assert serve_stream(io.StringIO(line + "\n"), out, service) == 1
            response = json.loads(out.getvalue())
            assert response["state"] == "failed"
            assert "old_assignment" in response["error"]
            assert service.stats().submitted == 0

    def test_a_job_that_raises_resolves_and_spares_the_worker(self):
        """The rider contract: whatever raises while a job runs — here
        the deadline arithmetic, on a request built past the decoder —
        costs one FAILED job, never the worker or a blocked rider."""
        bad = MappingRequest(app="Bitonic", n=8, num_gpus=2,
                             budget="instant", deadline_s="soon")
        with MappingService(workers=1) as service:
            with pytest.raises(ServiceError, match="TypeError"):
                service.submit(bad).result(timeout=30)
            assert all(t.is_alive() for t in service._threads)
            good = MappingRequest(app="Bitonic", n=8, num_gpus=2,
                                  budget="instant")
            assert service.submit(good).result(timeout=60)["tmax"] > 0
        assert service.stats().failed == 1

    def test_negative_content_length_is_400(self):
        """``rfile.read(-1)`` reads to EOF, which on a keep-alive
        connection means until the client hangs up."""
        with MappingService() as service:
            with _server(service) as server:
                with socket.create_connection(
                    ("127.0.0.1", server.port), timeout=10
                ) as conn:
                    conn.sendall(
                        b"POST /api/v1/solve HTTP/1.1\r\nHost: x\r\n"
                        b"Content-Length: -1\r\n\r\n"
                    )
                    status_line = conn.recv(4096).split(b"\r\n")[0]
        assert status_line == b"HTTP/1.1 400 Bad Request"
