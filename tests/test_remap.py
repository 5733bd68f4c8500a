"""The remap service surface: keys, dedup, wire formats, byte-identity.

Remap requests are content-addressed over the base solve request *plus*
the degradation context (deltas, deployed assignment, alpha) — so
repairs dedup exactly like solves, and nothing about the degradation is
invisible to the key.  The HTTP endpoint must answer byte-identically
to the same request on a ``serve_stream`` stdio line.
"""

import io
import json
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro.gpu import PlatformDelta
from repro.service import (
    MappingRequest,
    MappingService,
    RemapRequest,
    remap_from_json,
    remap_request_key,
    remap_to_json,
    serve_http,
    serve_stream,
    solve_remap_request,
)


def _base(**overrides):
    fields = dict(app="Bitonic", n=8, platform="host-star",
                  budget="instant")
    fields.update(overrides)
    return MappingRequest(**fields)


def _remap(**overrides):
    fields = dict(base=_base(),
                  deltas=(PlatformDelta.kill_gpu(1),))
    fields.update(overrides)
    return RemapRequest(**fields)


def _post(url, payload):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST")
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, resp.read(), resp.headers
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), exc.headers


@contextmanager
def _server(service):
    server = serve_http(service, port=0)
    try:
        yield server
    finally:
        server.stop()


class TestRemapKeys:
    def test_equal_requests_share_a_key(self):
        assert remap_request_key(_remap()) == remap_request_key(_remap())

    def test_degradation_context_is_in_the_key(self):
        key = remap_request_key(_remap())
        assert key != remap_request_key(
            _remap(deltas=(PlatformDelta.kill_gpu(2),)))
        assert key != remap_request_key(
            _remap(deltas=(PlatformDelta.kill_gpu(1),
                           PlatformDelta.throttle_link("gpu0", 0.5))))
        assert key != remap_request_key(
            _remap(old_assignment=(0, 0, 1, 1, 2, 2)))
        assert key != remap_request_key(_remap(alpha=0.5))

    def test_scheduling_fields_stay_out(self):
        tagged = _remap(base=_base(tag="urgent", priority=-5))
        assert remap_request_key(tagged) == remap_request_key(_remap())

    def test_delta_order_is_significant(self):
        # a restore before vs after a kill is a different machine
        a = _remap(deltas=(PlatformDelta.kill_gpu(1),
                           PlatformDelta.restore(),
                           PlatformDelta.kill_gpu(2)))
        b = _remap(deltas=(PlatformDelta.kill_gpu(2),
                           PlatformDelta.restore(),
                           PlatformDelta.kill_gpu(1)))
        assert remap_request_key(a) != remap_request_key(b)


class TestWireFormat:
    def test_json_round_trip(self):
        request = _remap(old_assignment=(0, 0, 1, 1, 2, 2), alpha=0.25)
        assert remap_from_json(remap_to_json(request)) == request

    def test_validation_requires_platform_and_deltas(self):
        with pytest.raises(ValueError):
            _remap(base=_base(platform=None, num_gpus=2)).validate()
        with pytest.raises(ValueError):
            _remap(deltas=()).validate()
        with pytest.raises(ValueError):
            remap_from_json({"remap": {"app": "Bitonic", "n": 8,
                                       "platform": "host-star"}})

    def test_impossible_deltas_rejected_at_validate(self):
        # killing all four host-star GPUs is an outage, not a remap
        request = _remap(deltas=tuple(
            PlatformDelta.kill_gpu(g) for g in range(4)
        ))
        with pytest.raises(ValueError):
            request.validate()

    def test_solve_remap_request_wire_fields(self):
        result = solve_remap_request(_remap())
        assert result["num_gpus"] == 3
        assert result["solver"].startswith(("repair", "portfolio"))
        assert len(result["assignment"]) == result["num_partitions"]
        assert result["baseline_tmax"] is not None
        # handing in the deployed assignment skips the baseline solve
        given = solve_remap_request(
            _remap(old_assignment=tuple([0] * result["num_partitions"]))
        )
        assert given["baseline_tmax"] is None


class TestServiceDedup:
    def test_duplicate_remaps_cost_one_solve(self):
        with MappingService(workers=2) as service:
            first = service.submit(_remap())
            second = service.submit(_remap())
            a, b = first.result(), second.result()
        assert a == b
        assert first.dedup is None
        assert second.dedup == "completed"

    def test_different_deltas_do_not_dedup(self):
        with MappingService(workers=2) as service:
            one = service.submit(_remap())
            other = service.submit(
                _remap(deltas=(PlatformDelta.kill_gpu(2),)))
            one.result(), other.result()
        assert one.key != other.key

    def test_draining_service_refuses_remaps(self):
        from repro.service import ServiceError

        service = MappingService(workers=1)
        service.shutdown(wait=True)
        with pytest.raises(ServiceError, match="draining"):
            service.submit(_remap())


class TestHttpRemap:
    def test_body_is_byte_identical_to_stdio(self):
        line = json.dumps(remap_to_json(_remap()))
        out = io.StringIO()
        with MappingService() as stdio_service:
            failures = serve_stream(
                io.StringIO(line + "\n"), out, stdio_service)
        assert failures == 0
        expected = out.getvalue().encode()

        with MappingService() as service:
            with _server(service) as server:
                status, body, _headers = _post(
                    server.url + "/api/v1/remap",
                    remap_to_json(_remap()))
        assert status == 200
        assert body == expected
        payload = json.loads(body)
        assert payload["state"] == "done"
        assert payload["result"]["num_gpus"] == 3

    def test_bad_remap_is_400(self):
        with MappingService() as service:
            with _server(service) as server:
                status, body, _headers = _post(
                    server.url + "/api/v1/remap",
                    {"remap": {"app": "Bitonic", "n": 8,
                               "platform": "host-star"}})
        assert status == 400
        assert "deltas" in json.loads(body)["error"]

    def test_batch_stream_mixes_solves_and_remaps(self):
        lines = [
            json.dumps({"app": "Bitonic", "n": 8, "num_gpus": 2,
                        "budget": "instant"}),
            json.dumps(remap_to_json(_remap())),
        ]
        stream = "\n".join(lines) + "\n"
        out = io.StringIO()
        with MappingService() as stdio_service:
            serve_stream(io.StringIO(stream), out, stdio_service)
        expected = out.getvalue().encode()

        with MappingService() as service:
            with _server(service) as server:
                req = urllib.request.Request(
                    server.url + "/api/v1/batch", data=stream.encode(),
                    method="POST")
                with urllib.request.urlopen(req, timeout=60) as resp:
                    status, body = resp.status, resp.read()
        assert status == 200
        assert body == expected
