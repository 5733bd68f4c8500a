"""The sweep engine: grids, stage cache, runner, and cache-key safety.

The load-bearing properties:

* cache keys separate on *every* knob — two pipeline invocations that
  could produce different results must never share an entry;
* cached, uncached, serial, and parallel execution are bit-identical;
* the on-disk store round-trips exactly (JSON floats are lossless).
"""

import itertools

import pytest

from repro.apps import build_app
from repro.flow import (
    map_stream_graph,
    mapping_stage,
    partition_stage,
    profile_stage,
    stage_key,
)
from repro.graph.fingerprint import canonical_graph, graph_fingerprint
from repro.sweep import (
    CacheStats,
    StageCache,
    SweepPoint,
    SweepRunner,
    SweepSpec,
    group_points,
)


class RecordingCache(StageCache):
    """StageCache that remembers every key it was asked about."""

    def __init__(self):
        super().__init__()
        self.get_keys = []

    def get(self, key):
        self.get_keys.append(key)
        return super().get(key)


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_deterministic_across_builds(self):
        assert graph_fingerprint(build_app("DES", 8)) == graph_fingerprint(
            build_app("DES", 8)
        )

    def test_differs_across_instances(self):
        fps = {
            graph_fingerprint(build_app(app, n))
            for app, n in [("DES", 8), ("DES", 12), ("DCT", 6), ("Bitonic", 8)]
        }
        assert len(fps) == 4

    def test_sensitive_to_every_field(self):
        graph = build_app("Bitonic", 8)
        base = graph_fingerprint(graph)
        graph.nodes[0].spec = type(graph.nodes[0].spec)(
            name=graph.nodes[0].spec.name,
            pop=graph.nodes[0].spec.pop,
            push=graph.nodes[0].spec.push,
            peek=graph.nodes[0].spec.peek,
            work=graph.nodes[0].spec.work + 1.0,
        )
        assert graph_fingerprint(graph) != base

    def test_sensitive_to_firing_and_channels(self):
        graph = build_app("Bitonic", 8)
        base = graph_fingerprint(graph)
        graph.nodes[0].firing += 1
        changed = graph_fingerprint(graph)
        assert changed != base
        graph.nodes[0].firing -= 1
        graph.channels[0].delay += 1
        assert graph_fingerprint(graph) not in (base, changed)

    def test_canonical_is_json_shaped(self):
        import json

        payload = canonical_graph(build_app("DES", 4))
        assert json.loads(json.dumps(payload)) == payload


# ----------------------------------------------------------------------
# cache-key separation: any knob change must change the key
# ----------------------------------------------------------------------
class TestCacheKeys:
    def test_stage_name_separates(self):
        assert stage_key("partition", x=1) != stage_key("mapping", x=1)

    def test_any_part_separates(self):
        base = dict(graph="fp", mapper="ilp", num_gpus=2, p2p=True)
        keys = {stage_key("mapping", **base)}
        for knob, value in [
            ("graph", "fp2"), ("mapper", "lpt"), ("num_gpus", 4),
            ("p2p", False),
        ]:
            keys.add(stage_key("mapping", **{**base, knob: value}))
        assert len(keys) == 5

    def test_points_differing_in_any_knob_share_no_flow_entry(self):
        """Two full runs that differ in one strategy knob must not read
        each other's mapping entries (upstream sharing is the point)."""
        graph_a = build_app("Bitonic", 8)
        cases = {
            "base": dict(num_gpus=2),
            "gpus": dict(num_gpus=1),
            "mapper": dict(num_gpus=2, mapper="lpt"),
            "p2p": dict(num_gpus=2, peer_to_peer=False),
            "partitioner": dict(num_gpus=2, partitioner="single"),
        }
        mapping_keys = {}
        for label, kwargs in cases.items():
            cache = RecordingCache()
            map_stream_graph(build_app("Bitonic", 8), cache=cache, **kwargs)
            mapping_keys[label] = {
                k for k in cache.get_keys if k.startswith("mapping.")
            }
        for a, b in itertools.combinations(cases, 2):
            assert mapping_keys[a].isdisjoint(mapping_keys[b]), (a, b)

    def test_partition_phases_separate_entries(self):
        graph = build_app("FFT", 16)
        cache = StageCache()
        engine = profile_stage(graph, cache=cache)
        full, _ = partition_stage(graph, engine, phases=(1, 2, 3, 4),
                                  cache=cache)
        p2, _ = partition_stage(graph, engine, phases=(2,), cache=cache)
        # distinct entries were written (profile + two partition results)
        assert len(cache) == 3

    def test_seed_separates_profile(self):
        graph = build_app("Bitonic", 8)
        cache = StageCache()
        profile_stage(graph, seed=0, cache=cache)
        profile_stage(graph, seed=1, cache=cache)
        assert len(cache) == 2
        assert cache.stats().hits == 0

    #: every tier's budget key parts, byte for byte as stored request
    #: keys and mapping-stage cache keys embed them — never edit these
    TIER_KEY_PARTS = {
        "instant": '{"bb_node_limit": 20000, "mh_population": 0, "mh_rounds": 0, "mh_seed": 0, "milp_node_limit": 150, "mip_rel_gap": 0.01, "name": "instant", "refine_steps": 64, "time_limit_s": null, "use_bb": false, "use_milp": false}',
        "small": '{"bb_node_limit": 20000, "mh_population": 0, "mh_rounds": 0, "mh_seed": 0, "milp_node_limit": 150, "mip_rel_gap": 0.01, "name": "small", "refine_steps": 64, "time_limit_s": null, "use_bb": true, "use_milp": false}',
        "default": '{"bb_node_limit": 20000, "mh_population": 0, "mh_rounds": 0, "mh_seed": 0, "milp_node_limit": 150, "mip_rel_gap": 0.01, "name": "default", "refine_steps": 64, "time_limit_s": null, "use_bb": true, "use_milp": true}',
        "ample": '{"bb_node_limit": 2000000, "mh_population": 0, "mh_rounds": 0, "mh_seed": 0, "milp_node_limit": 200000, "mip_rel_gap": 0.0, "name": "ample", "refine_steps": 256, "time_limit_s": null, "use_bb": true, "use_milp": true}',
    }

    def test_budget_key_parts_are_byte_stable(self):
        """The wire golden pins request keys for two tiers only; this
        pins the budget half of every key for all four, so a changed
        ``SolveBudget`` field cannot silently orphan stored jobs and
        cache entries."""
        import json

        from repro.mapping.budget import TIER_ORDER, SolveBudget

        assert set(TIER_ORDER) == set(self.TIER_KEY_PARTS)
        for tier in TIER_ORDER:
            parts = SolveBudget.tier(tier).key_parts()
            assert json.dumps(parts, sort_keys=True) == (
                self.TIER_KEY_PARTS[tier]
            ), tier


# ----------------------------------------------------------------------
# cached replay correctness
# ----------------------------------------------------------------------
class TestCachedReplay:
    def test_cached_equals_uncached(self):
        plain = map_stream_graph(build_app("DES", 4), num_gpus=2)
        cache = StageCache()
        cold = map_stream_graph(build_app("DES", 4), num_gpus=2, cache=cache)
        warm = map_stream_graph(build_app("DES", 4), num_gpus=2, cache=cache)
        assert cache.stats().hits > 0
        for other in (cold, warm):
            assert other.mapping == plain.mapping
            assert other.report == plain.report
            assert other.partitions == plain.partitions
            assert other.measurements == plain.measurements

    def test_disk_round_trip(self, tmp_path):
        point = SweepPoint(app="Bitonic", n=8, num_gpus=2)
        cold_cache = StageCache(str(tmp_path / "c"))
        runner = SweepRunner(cache=cold_cache)
        cold = runner.run([point])
        warm_cache = StageCache(str(tmp_path / "c"))  # fresh memory layer
        warm = SweepRunner(cache=warm_cache).run([point])
        assert warm_cache.stats().misses == 0
        assert warm.records[0].throughput == cold.records[0].throughput
        assert warm.records[0].assignment == cold.records[0].assignment

    def test_partitioning_reconstruction_matches(self):
        graph = build_app("DES", 8)
        cache = StageCache()
        engine = profile_stage(graph, cache=cache)
        _, first = partition_stage(graph, engine, cache=cache)
        _, replay = partition_stage(graph, engine, cache=cache)
        assert replay is not first
        assert replay.partitions == first.partitions
        assert replay.total_t == first.total_t
        assert replay.phase_counts == first.phase_counts


# ----------------------------------------------------------------------
# spec expansion and grouping
# ----------------------------------------------------------------------
class TestSpec:
    def test_size_matches_expand(self):
        spec = SweepSpec(
            cases=[("DES", 4), ("DCT", 6)], gpu_counts=(1, 2),
            mappers=("ilp", "lpt"), peer_to_peer=(True, False),
        )
        assert spec.size() == len(spec.expand()) == 16

    def test_expansion_groups_prefixes(self):
        spec = SweepSpec(
            cases=[("DES", 4), ("DCT", 6)], gpu_counts=(1, 2),
            partitioners=("ours", "single"),
        )
        groups = group_points(spec.expand())
        assert [len(g) for g in groups] == [4, 4]
        # within a group, partitioner runs are adjacent
        first = [p.partitioner for p in groups[0]]
        assert first == ["ours", "ours", "single", "single"]

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            SweepPoint(app="DES", n=4, partitioner="bogus")
        with pytest.raises(ValueError):
            SweepPoint(app="DES", n=4, mapper="bogus")
        with pytest.raises(ValueError):
            SweepPoint(app="DES", n=4, num_gpus=0)

    def test_labels_are_unique_across_grid(self):
        spec = SweepSpec(
            cases=[("DES", 4)], gpu_counts=(1, 2), mappers=("ilp", "lpt"),
            peer_to_peer=(True, False),
        )
        labels = [p.label() for p in spec.expand()]
        assert len(set(labels)) == len(labels)


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
class TestRunner:
    GRID = SweepSpec(
        cases=[("Bitonic", 8), ("DES", 4)], gpu_counts=(1, 2),
        mappers=("ilp", "lpt"),
    )

    def test_serial_order_and_lookup(self):
        result = SweepRunner(cache=StageCache()).run(self.GRID)
        points = self.GRID.expand()
        assert [rec.point for rec in result.records] == points
        assert result.record(points[-1]).point == points[-1]
        rows = result.rows()
        assert len(rows) == len(points) and rows[0]["app"] == "Bitonic"

    def test_keep_flows_exposes_full_results(self):
        runner = SweepRunner()
        result = runner.run(self.GRID, keep_flows=True)
        point = self.GRID.expand()[0]
        flow = result.flow(point)
        assert flow.report.throughput == result.record(point).throughput

    def test_flows_unavailable_without_keep(self):
        result = SweepRunner().run(self.GRID)
        with pytest.raises(RuntimeError):
            result.flow(self.GRID.expand()[0])

    def test_parallel_matches_serial(self, tmp_path):
        serial = SweepRunner(cache=StageCache()).run(self.GRID)
        parallel = SweepRunner(
            cache=StageCache(str(tmp_path / "cache")), parallel=True,
            workers=2,
        ).run(self.GRID)
        for a, b in zip(serial.records, parallel.records):
            assert a.point == b.point
            assert a.throughput == b.throughput
            assert a.tmax == b.tmax
            assert a.assignment == b.assignment

    def test_parallel_keep_flows_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(parallel=True).run(self.GRID, keep_flows=True)

    def test_transform_points_isolated(self):
        """A transformed graph must form its own prefix group and its
        own cache entries."""
        plain = SweepPoint(app="Bitonic", n=16, num_gpus=1,
                           partitioner="single")
        transformed = SweepPoint(app="Bitonic", n=16, num_gpus=1,
                                 partitioner="single",
                                 transform="eliminate-movers")
        assert len(group_points([plain, transformed])) == 2
        cache = StageCache()
        result = SweepRunner(cache=cache).run([plain, transformed])
        assert cache.stats().hits == 0  # nothing shared between the two
        a, b = result.records
        assert a.throughput != b.throughput

    def test_runner_map_preserves_order(self):
        runner = SweepRunner()
        assert runner.map(str, [3, 1, 2]) == ["3", "1", "2"]


# ----------------------------------------------------------------------
# cache bookkeeping
# ----------------------------------------------------------------------
class TestCacheStats:
    def test_hit_miss_accounting(self):
        cache = StageCache()
        assert cache.get("partition.k") is None
        cache.put("partition.k", 1)
        assert cache.get("partition.k") == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.by_stage["partition"] == {"hits": 1, "misses": 1}
        assert "partition 1/2" in stats.render()

    def test_stats_json_round_trip(self):
        stats = CacheStats()
        stats.record("mapping", hit=True)
        stats.record("mapping", hit=False)
        clone = CacheStats.from_json(stats.to_json())
        assert clone.to_json() == stats.to_json()
        clone.merge(stats)
        assert clone.hits == 2 and clone.misses == 2

    def test_clear_keeps_disk(self, tmp_path):
        cache = StageCache(str(tmp_path))
        cache.put("measure.k", [1, 2])
        cache.clear()
        assert cache.get("measure.k") == [1, 2]  # reloaded from disk

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = StageCache(str(tmp_path))
        (tmp_path / "mapping.bad.json").write_text("{not json")
        assert cache.get("mapping.bad") is None


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestSweepCli:
    def test_sweep_subcommand(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main([
            "sweep", "--case", "Bitonic:8", "--gpus", "1,2", "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "points in" in out and "stage cache" in out

    def test_sweep_requires_grid_or_case(self):
        from repro.cli import main as cli_main

        with pytest.raises(SystemExit):
            cli_main(["sweep"])

    def test_bad_case_spec_rejected(self):
        from repro.cli import main as cli_main

        with pytest.raises(SystemExit):
            cli_main(["sweep", "--case", "DES"])


# ----------------------------------------------------------------------
# the platform axis (named machines from repro.gpu.platforms)
# ----------------------------------------------------------------------
class TestPlatformAxis:
    def test_machine_axis_mixes_trees_and_platforms(self):
        spec = SweepSpec(
            cases=[("DES", 4)], gpu_counts=(1, 2),
            platforms=(None, "two-island", "deep-tree-8"),
        )
        points = spec.expand()
        assert spec.size() == len(points) == 4
        machines = [(p.platform, p.num_gpus) for p in points]
        assert machines == [
            (None, 1), (None, 2), ("two-island", 4), ("deep-tree-8", 8),
        ]

    def test_platform_fixes_gpu_count(self):
        with pytest.raises(ValueError, match="4 GPUs"):
            SweepPoint(app="DES", n=4, num_gpus=2, platform="two-island")
        with pytest.raises(ValueError, match="unknown platform"):
            SweepPoint(app="DES", n=4, num_gpus=4, platform="exascale")

    def test_label_names_the_machine(self):
        point = SweepPoint(app="DES", n=4, num_gpus=4, platform="mixed-box")
        assert "mixed-box" in point.label() and "g4" not in point.label()

    def test_platforms_share_no_mapping_entries(self):
        """The issue's regression: one graph swept on two platforms must
        produce distinct StageCache keys and distinct results when the
        platforms' bottleneck links differ (two-island crosses gen2-x8
        hops that gen3-balanced does not have)."""
        from repro.gpu.platforms import build_platform

        keys, tmaxes = {}, {}
        for name in ("gen3-balanced", "two-island"):
            cache = RecordingCache()
            result = map_stream_graph(
                build_app("synth:dag", 7), num_gpus=4,
                topology=build_platform(name), cache=cache,
            )
            keys[name] = {
                k for k in cache.get_keys if k.startswith("mapping.")
            }
            tmaxes[name] = result.mapping.tmax
        assert keys["gen3-balanced"].isdisjoint(keys["two-island"])
        assert tmaxes["gen3-balanced"] != tmaxes["two-island"]

    def test_platform_points_share_machine_independent_stages(self):
        """Separation must not cost the sweep its point: profile,
        partition, and measurement entries are machine-independent and
        hit across platforms."""
        cache = StageCache()
        spec = SweepSpec(
            cases=[("Bitonic", 8)],
            platforms=("gen3-balanced", "two-island"),
        )
        SweepRunner(cache=cache).run(spec)
        by_stage = cache.stats().by_stage
        # one shared group: the graph is profiled once for both machines
        assert by_stage["profile"]["misses"] == 1
        assert by_stage["partition"]["hits"] >= 1
        assert by_stage["measure"]["hits"] >= 1
        # the machine-dependent stage recomputes per platform
        assert by_stage["mapping"]["hits"] == 0
        assert by_stage["mapping"]["misses"] == 2

    def test_runner_rows_carry_the_platform(self):
        spec = SweepSpec(
            cases=[("Bitonic", 8)], platforms=("host-star",),
        )
        result = SweepRunner(cache=StageCache()).run(spec)
        row = result.rows()[0]
        assert row["platform"] == "host-star" and row["gpus"] == 4
        # reference-tree rows stay platform-free (pre-existing format)
        plain = SweepRunner(cache=StageCache()).run(
            SweepSpec(cases=[("Bitonic", 8)], gpu_counts=(2,))
        )
        assert "platform" not in plain.rows()[0]

    def test_acceptance_command(self, capsys, tmp_path):
        """`repro sweep --platform two-island --case synth:dag:7` runs
        end to end (the issue's acceptance criterion)."""
        from repro.cli import main as cli_main

        code = cli_main([
            "sweep", "--case", "synth:dag:7", "--platform", "two-island",
            "--cache-dir", str(tmp_path / "cache"), "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "two-island" in out

    def test_platform_flag_conflicts_with_gpus(self):
        from repro.cli import main as cli_main

        with pytest.raises(SystemExit):
            cli_main([
                "sweep", "--case", "DES:4", "--gpus", "2",
                "--platform", "two-island",
            ])
