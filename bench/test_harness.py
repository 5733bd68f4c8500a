"""Timing-free unit tests of the ruler's own arithmetic.

The only ``bench/`` file tier-1 collects: everything here runs in well
under two seconds and never starts a workload, a server or a clock.
"""

import json
import os
import random

import pytest

from bench import cases, loadgen, stats
from bench.compare import verdict
from bench.trace import Tracer, covered

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- percentiles -------------------------------------------------------
def test_nearest_rank_percentile():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 90) == 90
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("n, expected", [
    (300, 95),   # 15 beyond p95, 3 beyond p99
    (120, 90),   # 12 beyond p90, 6 beyond p95
    (100, 90),   # exactly 10 beyond p90
    (99, 50),    # 9 beyond p90: not enough
    (19, None),  # 9 beyond the median
])
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.highest_supported_percentile(n) == expected


def test_summary_carries_quartiles_and_count():
    out = stats.summarize([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (out["median"], out["n"]) == (3.0, 5)
    assert out["q1"] < out["median"] < out["q3"]
    assert stats.summarize([2.5]) == {
        "median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}


def test_geometric_mean_and_empty_product():
    assert stats.geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
    assert stats.geometric_mean([]) == 1.0


# -- failure accounting ------------------------------------------------
def test_classify_response_covers_every_failure_kind():
    ok = stats.classify_response
    assert ok(200, "done", 0.1, 0.25) is None
    assert ok(None, None, None, 0.25) == "transport"
    assert ok(429, None, 0.01, 0.25) == "http-429"
    assert ok(503, None, 0.01, 0.25) == "http-503"
    assert ok(200, "failed", 0.01, 0.25) == "state-failed"
    assert ok(200, "done", 0.3, 0.25) == "over-limit"
    assert ok(200, "done", 0.3, None) is None


def test_failed_share_counts_each_operation_once():
    tally = stats.Tally()
    for reason in (None, None, "http-429", "over-limit"):
        tally.record(reason)
    tally.fail("inexact-tmax", "DES:8")  # a check found op 1 wrong later
    assert (tally.attempted, tally.failed) == (4, 3)
    assert tally.failed_share == 0.75
    assert tally.reasons == {
        "http-429": 1, "over-limit": 1, "inexact-tmax": 1}
    assert stats.Tally().failed_share == 0.0


# -- load generator ----------------------------------------------------
def test_schedule_is_a_function_of_the_seed():
    def draw(seed):
        rng = random.Random(seed)
        due = loadgen.poisson_schedule(20.0, 15.0, rng)
        return due, loadgen.zipf_indices(48, len(due), rng)

    assert draw(3) == draw(3)
    assert draw(3) != draw(4)
    due, picks = draw(3)
    assert due == sorted(due) and 0 < due[0] and due[-1] < 15.0
    assert 200 < len(due) < 400  # 300 expected
    assert set(picks) <= set(range(48))
    assert picks.count(0) > picks.count(47)  # Zipf: rank 0 is hottest


def test_request_is_one_buffer_with_its_body():
    wire = loadgen.Request("POST", "/api/v1/solve", b'{"a":1}',
                           tenant="t1").encode("h:1")
    head, _, body = wire.partition(b"\r\n\r\n")
    assert body == b'{"a":1}'
    assert b"Content-Length: 7" in head and b"X-Tenant: t1" in head
    assert head.startswith(b"POST /api/v1/solve HTTP/1.1\r\n")


def test_latency_runs_from_the_due_time():
    request = loadgen.Request("GET", "/healthz")
    outcome = loadgen.Outcome(request, due=10.0, sent=10.02, done=10.05,
                              status=200, body=b"")
    assert outcome.latency == pytest.approx(0.05)
    assert outcome.lag == pytest.approx(0.02)


def test_closed_phase_ignores_answers_after_the_window():
    request = loadgen.Request("GET", "/")
    phase = loadgen.ClosedPhase(
        [loadgen.Outcome(request, t, t, t + 0.1, 200, b"")
         for t in (0.0, 0.25, 0.5, 1.2, 1.95)],
        start=0.0, end=2.0,
    )
    assert len(phase.answered()) == 4
    # first slice: 3 answers, 2 gaps over 0.5 s; second: a lone answer
    assert phase.window_rates(lambda o: True, 2) == pytest.approx([4.0, 1.0])


def test_seed_only_permutes_pinned_cases():
    a = cases.shuffled(cases.EXACT_CASES, 1, "x")
    b = cases.shuffled(cases.EXACT_CASES, 2, "x")
    assert sorted(c.id for c in a) == sorted(c.id for c in b)
    assert a == cases.shuffled(cases.EXACT_CASES, 1, "x")
    assert cases.synth_draw(5, "random") == cases.synth_draw(5, "random")
    assert cases.synth_draw(5, "random") != cases.synth_draw(6, "random")
    assert (cases.synth_draw(5, "random")
            != cases.synth_draw(5, "random", attempt=1))
    assert len({c.id for c in cases.serve_dup_keys()}) == 48
    assert (cases.serve_unique_draw(1, 7).n
            != cases.serve_unique_draw(2, 7).n)
    pool = cases.serve_unique_pool(1)
    assert len({c.id for c in pool}) == len(pool) == 2000
    assert sorted(c.id for c in pool) == sorted(
        c.id for c in cases.serve_unique_pool(2))
    other = cases.serve_unique_pool(2)
    assert pool != other
    assert sorted(c.id for c in pool[:200]) == sorted(
        c.id for c in other[:200])  # any prefix is the same work
    assert not {c.id for c in pool} & {
        cases.serve_unique_draw(0, i).id for i in range(100)}


# -- spans -------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_covered_counts_overlap_once_and_clips():
    assert covered([(0, 4), (2, 6), (8, 9)], 1, 10) == pytest.approx(6.0)
    assert covered([], 0, 1) == 0.0


def test_self_time_with_nested_and_overlapping_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("case", trace_id="c1") as root:
        clock.t = 1.0
        with tracer.span("partition"):
            clock.t = 2.0
            with tracer.span("estimate"):      # nested grandchild
                clock.t = 5.0
            tracer.fold("hot", 0.5)            # folded, no span
            clock.t = 6.0
        clock.t = 7.0
        with tracer.span("mapping"):
            clock.t = 9.0
        clock.t = 10.0
    # a child recorded on another thread that overlaps "mapping"
    with tracer.span("mapping", parent=root):
        pass
    tracer.spans[-1].start, tracer.spans[-1].end = 8.0, 9.5

    own = tracer.self_seconds()
    assert own["estimate"] == pytest.approx(3.0)
    assert own["hot"] == pytest.approx(0.5)
    assert own["partition"] == pytest.approx(5.0 - 3.0 - 0.5)
    # children cover [1,6] and [7,9.5] of the 10 s case
    assert own["case"] == pytest.approx(10.0 - 5.0 - 2.5)
    assert tracer.coverage("case") == pytest.approx(0.75)
    assert tracer.spans[1].trace_id == "c1"  # inherited from the parent
    assert tracer.calls()["hot"] == 1


# -- verdicts ----------------------------------------------------------
def _side(median, q1, q3, runs=None):
    return {"median": median, "q1": q1, "q3": q3,
            "runs": runs or [q1, median, q3]}


def test_verdicts_use_bound_and_quartiles():
    lower = {"better": "lower", "bound": 0.10}
    assert verdict(lower, _side(100, 99, 101), _side(80, 79, 81)) == "better"
    assert verdict(lower, _side(100, 99, 101), _side(120, 119, 121)) == "worse"
    assert verdict(lower, _side(100, 99, 101),
                   _side(104, 103, 105)) == "within-bound"
    # spread wider than the bound and the runs interleave
    assert verdict(lower, _side(100, 80, 120, [80, 100, 120]),
                   _side(104, 90, 125, [90, 104, 125])) == "unresolved"
    higher = {"better": "higher", "bound": 0.10}
    assert verdict(higher, _side(100, 99, 101), _side(80, 79, 81)) == "worse"
    assert verdict(higher, _side(100, 99, 101), _side(125, 124, 126)) == "better"


# -- the declaration ---------------------------------------------------
def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == [
        "compile-heuristic", "compile-exact", "serve-dup", "serve-unique",
        "sweep-warm", "remap-kill",
    ]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    with open(os.path.join(ROOT, "bench", "expected.json")) as fh:
        expected = json.load(fh)["workloads"]
    assert set(expected["compile-exact"]) == {c.id for c in cases.EXACT_CASES}
    assert set(expected["compile-heuristic"]) == {
        c.id for c in cases.HEURISTIC_CASES}
    assert len(expected["remap-kill"]) == 92
