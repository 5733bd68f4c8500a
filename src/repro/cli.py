"""Command-line front end: single-graph mapping and batched sweeps.

``repro-map`` (or ``repro map``) mirrors how the paper's tool is used:
take a stream graph (a bundled benchmark or a JSON file), run the
mapping flow for a GPU count, and report the decisions — optionally
emitting the generated CUDA source, a Graphviz rendering of the
partitioned graph, and a Chrome trace of the simulated pipelined
execution.

``repro sweep`` runs a whole strategy grid through the sweep engine
(:mod:`repro.sweep`) with pipeline-stage caching and an optional process
pool, printing a result table plus cache-hit statistics.

``repro synth`` generates synthetic stream graphs (:mod:`repro.synth`):
deterministic seeded instances exported as ``.str``/JSON, plus the
differential solver-correctness harness over pinned corpora.

``repro submit`` and ``repro serve`` form the JSON-lines client API of
the mapping service (:mod:`repro.service`): ``submit`` prints canonical
request lines, ``serve`` drains a stream of them through a
:class:`~repro.service.MappingService` — deduplicating, caching, and
answering one JSON response line per request.  ``repro cache`` inspects
and prunes a stage-cache directory.

``repro remap`` repairs a deployed mapping after a platform degradation
(:mod:`repro.gpu.delta` / :mod:`repro.mapping.repair`): direct mode
applies ``--kill-gpu`` / ``--throttle`` / ``--slow`` deltas to a catalog
platform and repairs one graph's mapping; ``--scenario`` replays a
seeded degradation script (:mod:`repro.synth.scenarios`); ``--check``
runs the kill-GPU repair gate behind ``make remap-check``.

Examples::

    repro-map --app DES --n 8 --gpus 4
    repro-map --graph mygraph.json --gpus 2 --mapper lpt --emit-cuda out.cu
    repro-map --app Bitonic --n 32 --gpus 4 --dot parts.dot --trace t.json

    repro sweep --grid ablation --cache-dir .sweep-cache
    repro sweep --case DES:16 --case synth:dag:7 --gpus 1,2,4 \\
                --mappers ilp,lpt --cache-dir .sweep-cache --parallel
    repro sweep --case synth:dag:7 --platform two-island \\
                --platform mixed-box --cache-dir .sweep-cache

    repro synth --family splitjoin --seed 7 --out-str sj7.str --out-json sj7.json
    repro synth --corpus pinned --diffcheck
    repro synth --corpus tiny --diffcheck --platform deep-tree-8
    repro synth --check

    repro submit --app DES --n 16 --gpus 2 --budget ample --to reqs.jsonl
    repro submit --app Bitonic --n 8 --platform two-island >> reqs.jsonl
    repro serve --requests reqs.jsonl --cache-dir .sweep-cache --workers 2
    repro serve --http 8080 --workers 2 --cache-dir .sweep-cache
    repro serve --self-check
    repro serve --self-check-http
    repro cache stats --cache-dir .sweep-cache
    repro cache purge --cache-dir .sweep-cache --stage mapping

    repro remap --app Bitonic --n 8 --platform host-star --kill-gpu 1
    repro remap --scenario 7 --platform mixed-box --steps 6
    repro remap --check --quiet
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.apps.registry import APPS, build_app, is_known_app
from repro.flow import MAPPERS, PARTITIONERS, map_stream_graph
from repro.graph import json_io
from repro.graph.dot import partition_map, to_dot
from repro.gpu.codegen import generate_program
from repro.gpu.platforms import PLATFORM_NAMES, build_platform
from repro.runtime.trace import record_trace, to_chrome_trace
from repro.sweep.runner import SPECS as _SPECS


def _add_request_flags(
    parser: argparse.ArgumentParser,
    mapper: str,
    app_group=None,
    required: bool = False,
    gpus: bool = True,
    budget: bool = True,
) -> None:
    """Declare, once for every sub-command that takes them, the flags
    that name a mapping request: ``--app --n [--gpus] --platform --spec
    --partitioner --mapper --no-p2p [--budget]``.

    ``mapper`` is the sub-command's default; ``app_group`` hosts
    ``--app`` when it is one of several graph sources; ``gpus=False`` /
    ``budget=False`` leave that flag undeclared (its value reads as
    unset) where the sub-command has no use for it.
    """
    (app_group or parser).add_argument(
        "--app", required=required,
        help="bundled benchmark application "
             f"({', '.join(sorted(APPS))}) or synth:<family>[;key=value...] "
             "(seed via --n)",
    )
    parser.add_argument("--n", type=int, default=None, required=required,
                        help="benchmark size parameter (with --app)")
    if gpus:
        parser.add_argument("--gpus", type=int, default=None,
                            choices=(1, 2, 3, 4),
                            help="reference-tree GPU count (default 1)")
    else:
        parser.set_defaults(gpus=None)
    parser.add_argument("--platform", choices=PLATFORM_NAMES,
                        help="named machine from the platform catalog "
                             "(fixes the GPU count; see docs/PLATFORMS.md)")
    parser.add_argument("--spec", choices=sorted(_SPECS), default="M2090")
    parser.add_argument("--partitioner", choices=PARTITIONERS, default="ours")
    parser.add_argument("--mapper", choices=MAPPERS, default=mapper)
    if budget:
        from repro.mapping.budget import BUDGET_TIERS

        parser.add_argument("--budget", choices=sorted(BUDGET_TIERS),
                            default="default",
                            help="solve-budget tier (see docs/SERVICE.md)")
    parser.add_argument("--no-p2p", action="store_true",
                        help="route inter-GPU traffic through the host")


def _gpu_count(args, parser: argparse.ArgumentParser, default: int = 1) -> int:
    """The reference-tree GPU count the flags ask for; a ``--platform``
    fixes the count itself, so the two flags are exclusive."""
    if args.platform and args.gpus is not None:
        parser.error("--platform fixes the GPU count; drop --gpus")
    return args.gpus if args.gpus is not None else default


def _request_from_args(args, parser: argparse.ArgumentParser, **scheduling):
    """The validated :class:`~repro.service.MappingRequest` the shared
    request flags name; ``scheduling`` adds the fields only ``repro
    submit`` has flags for."""
    from repro.service import MappingRequest

    request = MappingRequest(
        app=args.app, n=args.n, num_gpus=_gpu_count(args, parser),
        platform=args.platform, spec=args.spec,
        partitioner=args.partitioner, mapper=args.mapper,
        budget=args.budget, peer_to_peer=not args.no_p2p, **scheduling,
    )
    try:
        request.validate()
    except ValueError as exc:
        parser.error(str(exc))
    return request


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-map",
        description="Map a stream graph onto a (simulated) multi-GPU machine.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", help="stream graph JSON file")
    source.add_argument(
        "--stream", help="stream-language source file (see repro.frontend)"
    )
    _add_request_flags(parser, mapper="ilp", app_group=source, budget=False)
    parser.add_argument("--emit-cuda", metavar="FILE",
                        help="write the generated CUDA program")
    parser.add_argument("--dot", metavar="FILE",
                        help="write a Graphviz view of the partitioned graph")
    parser.add_argument("--trace", metavar="FILE",
                        help="write a Chrome trace of the simulated run")
    parser.add_argument("--save-graph", metavar="FILE",
                        help="write the flattened graph as JSON")
    parser.add_argument("--report", action="store_true",
                        help="print the full per-partition compiler report")
    parser.add_argument("--gantt", action="store_true",
                        help="print an ASCII Gantt chart of the simulated "
                             "pipelined schedule")
    return parser


def _parse_case(text: str):
    # rsplit keeps synth app names (synth:family;k=v) intact
    try:
        app, n = text.rsplit(":", 1)
        return app, int(n)
    except ValueError:
        raise SystemExit(
            f"bad --case {text!r}: expected APP:N (e.g. DES:16 or "
            f"synth:dag:7)"
        ) from None


def _parse_csv(text: str, convert=str) -> tuple:
    return tuple(convert(item) for item in text.split(",") if item)


def build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="Run a strategy grid through the cached sweep engine.",
    )
    parser.add_argument(
        "--grid", choices=("ablation",),
        help="a predefined grid (ablation: the design-ablation points); "
             "presets fix every axis, so the axis flags below are "
             "rejected alongside it",
    )
    parser.add_argument(
        "--case", action="append", default=[], metavar="APP:N",
        help="grid case, repeatable (e.g. --case DES:16 --case DCT:18)",
    )
    parser.add_argument("--gpus", default=None,
                        help="comma-separated GPU counts (default 1,2,4)")
    parser.add_argument(
        "--platform", action="append", default=[], metavar="NAME",
        choices=PLATFORM_NAMES, dest="platforms",
        help="named machine from the platform catalog, repeatable; "
             "replaces the --gpus reference-tree axis "
             f"({', '.join(PLATFORM_NAMES)})",
    )
    parser.add_argument("--partitioners", default=None,
                        help=f"comma-separated subset of {PARTITIONERS}")
    parser.add_argument("--mappers", default=None,
                        help=f"comma-separated subset of {MAPPERS}")
    parser.add_argument("--p2p", choices=("on", "off", "both"), default=None,
                        help="peer-to-peer axis (default on)")
    parser.add_argument("--spec", choices=sorted(_SPECS), default=None)
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="persist stage results here for cross-run reuse")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the stage cache entirely")
    parser.add_argument("--parallel", action="store_true",
                        help="fan prefix groups out over a process pool")
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool size (default: CPU count)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-point progress lines")
    return parser


def sweep_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro sweep``."""
    from repro.experiments.common import render_table
    from repro.sweep import StageCache, SweepRunner, SweepSpec

    parser = build_sweep_parser()
    args = parser.parse_args(argv)
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be >= 1")

    axis_flags = [
        ("--case", args.case), ("--gpus", args.gpus),
        ("--platform", args.platforms),
        ("--partitioners", args.partitioners), ("--mappers", args.mappers),
        ("--p2p", args.p2p), ("--spec", args.spec),
    ]
    if args.platforms and args.gpus:
        parser.error("--platform fixes the machine axis; drop --gpus")
    if args.grid == "ablation":
        used = [name for name, value in axis_flags if value]
        if used:
            parser.error(
                f"--grid fixes every axis; drop {', '.join(used)}"
            )
        from repro.experiments import ablations

        points = ablations.full_grid()
    else:
        if not args.case:
            parser.error("give --grid ablation or at least one --case APP:N")
        cases = [_parse_case(text) for text in args.case]
        unknown = sorted(
            {app for app, _ in cases if not is_known_app(app)}
        )
        if unknown:
            parser.error(
                f"unknown app(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(APPS))} plus synth:<family>"
            )
        p2p_axis = {
            "on": (True,), "off": (False,), "both": (True, False),
        }[args.p2p or "on"]
        try:
            spec = SweepSpec(
                cases=cases,
                gpu_counts=_parse_csv(args.gpus or "1,2,4", int),
                specs=(args.spec or "M2090",),
                partitioners=_parse_csv(args.partitioners or "ours"),
                mappers=_parse_csv(args.mappers or "ilp"),
                peer_to_peer=p2p_axis,
                platforms=tuple(args.platforms) or (None,),
            )
            points = spec.expand()
        except ValueError as exc:
            parser.error(str(exc))

    cache = None
    if not args.no_cache:
        try:
            cache = StageCache(args.cache_dir)
        except OSError as exc:
            parser.error(f"unusable --cache-dir {args.cache_dir!r}: {exc}")
    runner = SweepRunner(
        cache=cache,
        parallel=args.parallel,
        workers=args.workers,
        progress=not args.quiet,
    )
    result = runner.run(points)

    print(render_table(result.rows()))
    print()
    print(f"{len(result)} points in {result.wall_s:.1f}s "
          f"({len(result) / result.wall_s:.2f} points/s)")
    if result.cache_stats is not None and result.cache_stats.lookups:
        print(f"stage cache: {result.cache_stats.render()}")
    return 0


def build_synth_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro synth",
        description="Generate synthetic stream graphs and run the "
                    "differential solver-correctness harness.",
    )
    parser.add_argument("--family", help="graph family (see --list-families)")
    parser.add_argument("--seed", type=int, default=0,
                        help="generator seed (default 0)")
    parser.add_argument(
        "--param", action="append", default=[], metavar="KEY=N",
        help="family parameter override, repeatable "
             "(e.g. --param depth=12)",
    )
    parser.add_argument("--list-families", action="store_true",
                        help="list the graph families and their parameters")
    parser.add_argument("--out-str", metavar="FILE",
                        help="write the instance as stream-language source")
    parser.add_argument("--out-json", metavar="FILE",
                        help="write the instance as flat-graph JSON")
    parser.add_argument("--show", choices=("str", "json"),
                        help="print the instance in the given format")
    parser.add_argument("--diffcheck", action="store_true",
                        help="cross-check greedy/B&B/MILP on the instance "
                             "(or, with --corpus, on the whole corpus)")
    parser.add_argument("--corpus", choices=("pinned", "tiny"),
                        help="operate on a bundled corpus instead of one "
                             "(--family, --seed) instance")
    parser.add_argument("--check", action="store_true",
                        help="generate + diffcheck the tiny corpus and exit "
                             "non-zero on any violation (CI gate)")
    parser.add_argument("--gpus", type=int, default=None,
                        choices=(1, 2, 3, 4),
                        help="reference-tree GPU count for --diffcheck "
                             "(default 2)")
    parser.add_argument("--platform", choices=PLATFORM_NAMES,
                        help="run --diffcheck against a named platform "
                             "(fixes the GPU count; see docs/PLATFORMS.md)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-instance progress lines")
    return parser


def _parse_params(items: List[str], parser: argparse.ArgumentParser) -> dict:
    from repro.synth import SynthError, parse_param

    overrides = {}
    for item in items:
        try:
            key, value = parse_param(item)
        except SynthError as exc:
            parser.error(f"--param: {exc}")
        overrides[key] = value
    return overrides


def synth_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro synth``."""
    from repro import synth

    parser = build_synth_parser()
    args = parser.parse_args(argv)

    num_gpus = _gpu_count(args, parser, default=2)

    if args.list_families:
        for family in synth.FAMILIES:
            defaults = ", ".join(
                f"{k}={v}" for k, v in sorted(
                    synth.FAMILY_DEFAULTS[family].items()
                )
            )
            print(f"{family:10s} {synth.FAMILY_DESCRIPTIONS[family]}")
            print(f"{'':10s} params: {defaults}")
        return 0

    progress = None if args.quiet else (
        lambda line: print(line, file=sys.stderr)
    )

    if args.check or args.corpus:
        instance_flags = [
            name for name, value in (
                ("--family", args.family), ("--out-str", args.out_str),
                ("--out-json", args.out_json), ("--show", args.show),
            ) if value
        ]
        if instance_flags:
            parser.error(
                "--check/--corpus operate on whole corpora; drop "
                + ", ".join(instance_flags)
            )
        # --check defaults to the tiny gate corpus, but an explicit
        # --corpus choice always wins (--check --corpus pinned gates on
        # all 30 instances)
        corpus = args.corpus or ("tiny" if args.check else None)
        entries = (
            synth.TINY_CORPUS if corpus == "tiny" else synth.PINNED_CORPUS
        )
        if args.diffcheck or args.check:
            report = synth.diffcheck_corpus(
                entries, num_gpus=num_gpus, progress=progress,
                platform=args.platform,
            )
            print(
                f"{len(report.instances)} instances, "
                f"{len(report.violations)} violations, "
                f"{len(report.skips)} skips"
            )
            for violation in report.violations:
                print(f"VIOLATION: {violation}")
            return 0 if report.ok else 1
        for instance in synth.generate_corpus(entries):
            graph = instance.graph
            print(
                f"{instance.spec.instance_name}: {len(graph.nodes)} filters, "
                f"{len(graph.channels)} channels, "
                f"fingerprint {instance.fingerprint[:16]}"
            )
        return 0

    if not args.family:
        parser.error("give --family (see --list-families), --corpus, "
                     "or --check")
    try:
        instance = synth.generate(
            args.family, args.seed,
            _parse_params(args.param, parser) or None,
        )
    except synth.SynthError as exc:
        parser.error(str(exc))

    graph = instance.graph
    print(f"instance   : {instance.spec.instance_name}")
    print(f"graph      : {len(graph.nodes)} filters, "
          f"{len(graph.channels)} channels, "
          f"{sum(n.firing for n in graph.nodes)} firings/steady state")
    print(f"fingerprint: {instance.fingerprint}")

    if args.out_str:
        try:
            text = instance.source()
        except synth.SourceUnavailableError as exc:
            parser.error(str(exc))
        with open(args.out_str, "w") as fh:
            fh.write(text)
        print(f"wrote stream source to {args.out_str}")
    if args.out_json:
        with open(args.out_json, "w") as fh:
            fh.write(instance.json())
        print(f"wrote graph JSON to {args.out_json}")
    if args.show == "str":
        try:
            print(instance.source(), end="")
        except synth.SourceUnavailableError as exc:
            parser.error(str(exc))
    elif args.show == "json":
        print(instance.json(), end="")

    if args.diffcheck:
        report = synth.diffcheck_graph(
            instance, num_gpus=num_gpus, platform=args.platform
        )
        print(report.render())
        for violation in report.violations:
            print(f"VIOLATION: {violation}")
        for skip in report.skips:
            print(f"skipped: {skip}")
        return 0 if report.ok else 1
    return 0


def build_submit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro submit",
        description="Emit a canonical JSON-lines mapping-service request.",
    )
    _add_request_flags(parser, mapper="portfolio", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="simulator noise seed")
    parser.add_argument("--priority", type=int, default=0,
                        help="queue priority (lower drains sooner)")
    parser.add_argument("--deadline", type=float, default=None, metavar="S",
                        help="wall-clock allowance in seconds (anytime mode)")
    parser.add_argument("--tag", help="client correlation id, echoed back")
    parser.add_argument("--key", action="store_true",
                        help="also print the canonical request key to stderr")
    parser.add_argument("--to", metavar="FILE",
                        help="append the request line to FILE instead of "
                             "printing it")
    return parser


def submit_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro submit``."""
    import json as _json

    from repro.service import api

    parser = build_submit_parser()
    args = parser.parse_args(argv)
    request = _request_from_args(
        args, parser, seed=args.seed, priority=args.priority,
        deadline_s=args.deadline, tag=args.tag,
    )
    line = _json.dumps(api.request_to_json(request), sort_keys=True,
                       separators=(",", ":"))
    if args.to:
        with open(args.to, "a") as fh:
            fh.write(line + "\n")
        print(f"appended request to {args.to}", file=sys.stderr)
    else:
        print(line)
    if args.key:
        print(f"key: {api.request_key(request)}", file=sys.stderr)
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve JSON-lines mapping requests through the "
                    "deduplicating mapping service.",
    )
    parser.add_argument("--requests", metavar="FILE",
                        help="JSONL request file ('-' reads stdin); "
                             "see repro submit")
    parser.add_argument("--out", metavar="FILE",
                        help="write JSONL responses here (default stdout)")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="shared stage-cache directory (enables "
                             "cross-run and cross-process reuse)")
    parser.add_argument("--store", metavar="DIR",
                        help="persistent job-store directory (dedup "
                             "survives service restarts)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker count (default 1)")
    parser.add_argument("--executor", choices=("thread", "process"),
                        default="thread",
                        help="solve in worker threads or a process pool "
                             "(process mode needs --cache-dir)")
    parser.add_argument("--strict", action="store_true",
                        help="abort on the first malformed request line")
    parser.add_argument("--http", type=int, metavar="PORT",
                        help="serve HTTP on PORT instead of a JSONL "
                             "stream (see docs/SERVICE.md for the API)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="HTTP bind address (default 127.0.0.1)")
    parser.add_argument("--rate", type=float, default=16.0,
                        help="admission: token-bucket refill rate per "
                             "tenant, tokens/second (default 16)")
    parser.add_argument("--burst", type=float, default=64.0,
                        help="admission: token-bucket capacity per "
                             "tenant (default 64)")
    parser.add_argument("--max-queue-depth", type=int, default=256,
                        help="admission: shed with 429 once this many "
                             "jobs are queued (default 256)")
    parser.add_argument("--self-check", action="store_true",
                        help="in-process round trip: N duplicate "
                             "submissions must cost exactly one solve "
                             "(CI gate; ignores --requests)")
    parser.add_argument("--self-check-http", action="store_true",
                        help="live-HTTP round trip: N duplicate POSTs "
                             "against a real server must cost exactly "
                             "one solve, asserted via /metrics (CI gate)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the summary line on stderr")
    return parser


def _serve_self_check(args, parser) -> int:
    """The ``repro serve --self-check`` gate: dedup must actually dedup."""
    from repro.service import MappingRequest, MappingService

    duplicates = 8
    request = MappingRequest(
        app="Bitonic", n=8, num_gpus=2, budget="instant", mapper="portfolio",
    )
    with MappingService(workers=2) as service:
        tickets = [service.submit(request) for _ in range(duplicates)]
        results = [ticket.result() for ticket in tickets]
    stats = service.stats()
    identical = all(result == results[0] for result in results)
    ok = (
        identical
        and stats.solved == 1
        and stats.dedup_hits == duplicates - 1
        and stats.failed == 0
    )
    if not args.quiet or not ok:
        print(
            f"service self-check: {duplicates} duplicate submissions -> "
            f"{stats.solved} solve(s), {stats.dedup_hits} dedup hit(s), "
            f"identical results: {identical}",
            file=sys.stderr,
        )
    if not ok:
        print("service self-check FAILED", file=sys.stderr)
        return 1
    return 0


def _serve_self_check_http(args, parser) -> int:
    """The HTTP half of ``make service-check``: duplicate POSTs against
    a *live* server must cost one solve, proven by scraping /metrics."""
    import concurrent.futures
    import json as _json
    import urllib.request

    from repro.service import MappingService, serve_http

    duplicates = 8
    line = _json.dumps({"app": "Bitonic", "n": 8, "num_gpus": 2,
                        "budget": "instant"}).encode()

    def post(url):
        request = urllib.request.Request(
            url + "/api/v1/solve", data=line, method="POST",
            headers={"X-Tenant": "self-check"},
        )
        with urllib.request.urlopen(request, timeout=60) as resp:
            return resp.read()

    with MappingService(workers=2) as service:
        server = serve_http(service, host=args.host, port=0)
        try:
            with concurrent.futures.ThreadPoolExecutor(duplicates) as pool:
                bodies = list(pool.map(
                    post, [server.url] * duplicates,
                ))
            with urllib.request.urlopen(
                server.url + "/metrics", timeout=10,
            ) as resp:
                metrics = resp.read().decode()
        finally:
            server.stop()

    def metric(name):
        for line_ in metrics.splitlines():
            if line_.startswith(name + " "):
                return float(line_.split()[-1])
        return None

    solved = metric("repro_service_solved_total")
    dedup = sum(
        float(line_.split()[-1])
        for line_ in metrics.splitlines()
        if line_.startswith("repro_service_dedup_total{")
    )
    results = [
        _json.loads(body).get("result") for body in bodies
    ]
    identical = all(result == results[0] for result in results)
    ok = solved == 1 and dedup == duplicates - 1 and identical
    if not args.quiet or not ok:
        print(
            f"http self-check: {duplicates} duplicate POSTs -> "
            f"{solved:.0f} solve(s), {dedup:.0f} dedup hit(s) "
            f"(via /metrics), identical results: {identical}",
            file=sys.stderr,
        )
    if not ok:
        print("http self-check FAILED", file=sys.stderr)
        return 1
    return 0


def _serve_http_main(args, parser, cache, store, progress) -> int:
    """Foreground HTTP mode of ``repro serve`` (runs until SIGINT)."""
    from repro.service import (
        AdmissionController,
        MappingHTTPServer,
        MappingService,
    )

    admission = AdmissionController(
        rate=args.rate, burst=args.burst,
        max_queue_depth=args.max_queue_depth,
    )
    service = MappingService(
        cache=cache, store=store, workers=args.workers,
        executor=args.executor, progress=progress,
    )
    server = MappingHTTPServer(
        service, host=args.host, port=args.http,
        admission=admission, verbose=not args.quiet,
    )
    if not args.quiet:
        print(f"serving on {server.url} "
              f"(rate {args.rate}/s, burst {args.burst}, "
              f"queue bound {args.max_queue_depth})", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        service.shutdown(wait=True)
    if not args.quiet:
        print(f"service: {service.stats().render()}", file=sys.stderr)
    return 0


def serve_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro serve``."""
    from repro.service import JobStore, MappingService, serve_stream
    from repro.sweep import StageCache

    parser = build_serve_parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.self_check:
        return _serve_self_check(args, parser)
    if args.self_check_http:
        return _serve_self_check_http(args, parser)
    if args.http is not None and args.requests:
        parser.error("--http serves the network API; drop --requests")
    if not args.requests and args.http is None:
        parser.error("give --requests FILE ('-' for stdin), --http PORT, "
                     "or --self-check")
    if args.executor == "process" and not args.cache_dir:
        parser.error("--executor process needs --cache-dir (workers share "
                     "stage results through the disk store)")

    cache = None
    if args.cache_dir:
        try:
            cache = StageCache(args.cache_dir)
        except OSError as exc:
            parser.error(f"unusable --cache-dir {args.cache_dir!r}: {exc}")
    store = JobStore(args.store) if args.store else None
    progress = None if args.quiet else (
        lambda line: print(line, file=sys.stderr)
    )

    if args.http is not None:
        return _serve_http_main(args, parser, cache, store, progress)

    try:
        in_fh = sys.stdin if args.requests == "-" else open(args.requests)
    except OSError as exc:
        parser.error(f"unreadable --requests {args.requests!r}: {exc}")
    try:
        out_fh = open(args.out, "w") if args.out else sys.stdout
    except OSError as exc:
        if in_fh is not sys.stdin:
            in_fh.close()
        parser.error(f"unwritable --out {args.out!r}: {exc}")
    try:
        with MappingService(
            cache=cache, store=store, workers=args.workers,
            executor=args.executor, progress=progress,
        ) as service:
            failures = serve_stream(
                in_fh, out_fh, service, strict=args.strict
            )
    except ValueError as exc:  # --strict abort on a malformed line
        parser.error(str(exc))
    finally:
        if in_fh is not sys.stdin:
            in_fh.close()
        if out_fh is not sys.stdout:
            out_fh.close()
    if not args.quiet:
        print(f"service: {service.stats().render()}", file=sys.stderr)
        if cache is not None and cache.stats().lookups:
            print(f"stage cache: {cache.stats().render()}", file=sys.stderr)
    return 1 if failures else 0


def build_cache_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Inspect or prune a stage-cache directory.",
    )
    parser.add_argument("action", choices=("stats", "purge"),
                        help="stats: per-stage entry counts, sizes, and "
                             "persisted hit counters; purge: delete entries")
    parser.add_argument("--cache-dir", required=True, metavar="DIR",
                        help="the cache directory to operate on")
    parser.add_argument("--stage", metavar="NAME",
                        help="restrict purge to one pipeline stage "
                             "(e.g. mapping)")
    return parser


def cache_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro cache``."""
    import os
    from collections import Counter

    from repro.sweep import StageCache

    parser = build_cache_parser()
    args = parser.parse_args(argv)
    if args.action == "stats" and args.stage:
        parser.error("--stage only applies to purge")
    if not os.path.isdir(args.cache_dir):
        parser.error(f"no such cache directory: {args.cache_dir}")
    cache = StageCache(args.cache_dir)

    if args.action == "purge":
        removed = cache.purge(stage=args.stage)
        what = f"{args.stage} entries" if args.stage else "entries"
        print(f"purged {removed} {what} from {args.cache_dir}")
        return 0

    entries = cache.disk_entries()
    counts = Counter(stage for stage, _, _ in entries)
    sizes = Counter()
    for stage, _, size in entries:
        sizes[stage] += size
    total = sum(size for _, _, size in entries)
    print(f"cache dir : {args.cache_dir}")
    print(f"entries   : {len(entries)} ({total / 1024:.1f} KiB)")
    for stage in sorted(counts):
        print(f"  {stage:10s} {counts[stage]:6d} entries "
              f"{sizes[stage] / 1024:10.1f} KiB")
    persisted = StageCache.persisted_stats(args.cache_dir)
    if persisted is not None:
        print(f"lifetime  : {persisted.render()}")
    else:
        print("lifetime  : no persisted counters "
              "(written by repro serve shutdowns)")
    return 0


def build_remap_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro remap",
        description="Repair a deployed mapping after a platform degrades "
                    "(kill-GPU, throttled link, slowed clock).",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="run the kill-GPU repair gate: every GPU of "
                           "every catalog platform killed under three "
                           "pinned graphs; exit 1 on any violation")
    mode.add_argument("--scenario", type=int, default=None, metavar="SEED",
                      help="generate and replay a seeded degradation "
                           "scenario on --platform")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the one-line verdict")
    parser.add_argument("--steps", type=int, default=4, metavar="K",
                        help="scripted event count (with --scenario)")
    parser.add_argument("--emit-lines", metavar="FILE",
                        help="also write the scenario as service JSONL "
                             "remap lines (with --scenario)")
    _add_request_flags(parser, mapper="portfolio", gpus=False)
    parser.add_argument("--kill-gpu", type=int, action="append", default=[],
                        metavar="G", help="kill GPU G (repeatable)")
    parser.add_argument("--throttle", action="append", default=[],
                        metavar="CHILD:FACTOR",
                        help="throttle the uplink of CHILD to FACTOR of "
                             "its bandwidth (repeatable)")
    parser.add_argument("--slow", action="append", default=[],
                        metavar="GPU:FACTOR",
                        help="slow GPU's clock by FACTOR (repeatable; "
                             "needs a platform with per-GPU specs)")
    parser.add_argument("--alpha", type=float, default=None,
                        help="migration price in the repair objective "
                             "tmax + alpha*migration_bytes")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="stage-cache directory (front half replays)")
    return parser


def _parse_factor_arg(text: str, flag: str, parser):
    try:
        name, factor = text.rsplit(":", 1)
        return name, float(factor)
    except ValueError:
        parser.error(f"bad {flag} {text!r}: expected NAME:FACTOR")


def remap_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro remap``."""
    from repro.gpu.delta import PlatformDelta
    from repro.sweep import StageCache
    from repro.synth.scenarios import (
        generate_scenario,
        repair_check,
        replay_scenario,
        scenario_request_lines,
    )

    parser = build_remap_parser()
    args = parser.parse_args(argv)
    cache = StageCache(args.cache_dir) if args.cache_dir else None

    if args.check:
        report = repair_check(budget=args.budget, cache=cache)
        print(report.render())
        return 0 if report.ok else 1

    if args.scenario is not None:
        if not args.platform:
            parser.error("--scenario requires --platform")
        scenario = generate_scenario(
            args.platform, args.scenario, length=args.steps
        )
        if args.emit_lines:
            with open(args.emit_lines, "w") as fh:
                for line in scenario_request_lines(scenario,
                                                   budget=args.budget):
                    fh.write(line + "\n")
            print(f"wrote scenario request lines to {args.emit_lines}",
                  file=sys.stderr)
        report = replay_scenario(scenario, budget=args.budget, cache=cache)
        text = report.render()
        print(text.splitlines()[-1].strip() if args.quiet else text)
        return 0 if report.ok else 1

    # direct mode: one degraded machine, one repair
    if not args.app or args.n is None or not args.platform:
        parser.error("direct mode needs --app, --n, and --platform "
                     "(or use --check / --scenario)")
    deltas = [PlatformDelta.kill_gpu(g) for g in args.kill_gpu]
    deltas += [
        PlatformDelta.throttle_link(name, factor)
        for name, factor in (
            _parse_factor_arg(t, "--throttle", parser)
            for t in args.throttle
        )
    ]
    deltas += [
        PlatformDelta.slow_gpu(int(name), factor)
        for name, factor in (
            _parse_factor_arg(s, "--slow", parser) for s in args.slow
        )
    ]
    if not deltas:
        parser.error("direct mode needs at least one of --kill-gpu, "
                     "--throttle, --slow")
    from repro.flow import remap_stream_graph
    from repro.mapping.repair import REPAIR_ALPHA
    from repro.service.api import _flow_kwargs, build_request_graph
    from repro.service.remap import RemapRequest

    # the same request object, validated by the same rules, as a
    # {"remap": ...} line on the wire
    request = RemapRequest(
        base=_request_from_args(args, parser), deltas=tuple(deltas),
        alpha=args.alpha if args.alpha is not None else REPAIR_ALPHA,
    )
    graph = build_request_graph(request.base)
    try:
        request.validate()
        out = remap_stream_graph(
            graph, args.platform, deltas, alpha=request.alpha,
            cache=cache, **_flow_kwargs(request.base),
        )
    except ValueError as exc:
        parser.error(str(exc))
    repair = out.repair
    degraded = out.degraded
    print(f"graph     : {graph.name} ({out.num_partitions} partitions)")
    print(f"platform  : {args.platform} -> {degraded.topology.num_gpus} "
          f"GPU(s) after {len(deltas)} delta(s)")
    if out.baseline is not None:
        print(f"baseline  : {out.baseline.solver}, "
              f"Tmax {out.baseline.tmax / 1e3:.1f} us/fragment")
    print(f"repair    : {repair.mapping.solver}, "
          f"Tmax {repair.mapping.tmax / 1e3:.1f} us/fragment"
          f"{' (portfolio fallback)' if repair.fallback else ''}")
    print(f"churn     : {len(repair.migrated)} migrated, "
          f"{len(repair.evicted)} evicted, "
          f"{repair.migration_bytes:.0f} bytes moved "
          f"({repair.moves} polish moves)")
    print(f"assignment: {list(repair.mapping.assignment)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "sweep":
        return sweep_main(argv[1:])
    if argv and argv[0] == "synth":
        return synth_main(argv[1:])
    if argv and argv[0] == "submit":
        return submit_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "cache":
        return cache_main(argv[1:])
    if argv and argv[0] == "remap":
        return remap_main(argv[1:])
    if argv and argv[0] == "map":
        argv = argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)

    num_gpus = _gpu_count(args, parser)

    if args.app:
        if args.n is None:
            parser.error("--app requires --n")
        if not is_known_app(args.app):
            parser.error(
                f"unknown app {args.app!r}; known: {', '.join(sorted(APPS))} "
                "plus synth:<family>"
            )
        graph = build_app(args.app, args.n)
    elif args.stream:
        from repro.frontend import compile_stream

        with open(args.stream) as fh:
            graph = compile_stream(fh.read())
    else:
        graph = json_io.load(args.graph)

    topology = build_platform(args.platform) if args.platform else None
    if topology is not None:
        num_gpus = topology.num_gpus
    result = map_stream_graph(
        graph,
        num_gpus=num_gpus,
        spec=_SPECS[args.spec],
        partitioner=args.partitioner,
        mapper=args.mapper,
        peer_to_peer=not args.no_p2p,
        topology=topology,
    )

    if args.report:
        from repro.perf.report import flow_report

        print(flow_report(result))
        print()
    report = result.report
    print(f"graph     : {graph.name} ({len(graph.nodes)} filters)")
    print(f"partitions: {result.num_partitions} "
          f"({sum(1 for e in map(result.engine.estimate, result.partitions) if e.is_compute_bound)} compute-bound)")
    print(f"mapping   : {result.mapping.solver}, "
          f"Tmax {result.mapping.tmax / 1e3:.1f} us/fragment, "
          f"bottleneck {result.mapping.bottleneck}")
    print(f"assignment: {list(result.mapping.assignment)}")
    machine = f" on {args.platform}" if args.platform else ""
    print(f"execution : beat {report.beat_ns / 1e3:.1f} us, "
          f"throughput {report.throughput * 1e6:.1f} exec/ms over "
          f"{num_gpus} GPU(s){machine}")

    if args.save_graph:
        json_io.save(graph, args.save_graph)
        print(f"wrote graph JSON to {args.save_graph}")
    if args.dot:
        mapping = partition_map(result.partitions)
        with open(args.dot, "w") as fh:
            fh.write(to_dot(graph, partition_of=mapping))
        print(f"wrote Graphviz view to {args.dot}")
    if args.emit_cuda:
        configs = [
            result.engine.estimate(members).config
            for members in result.partitions
        ]
        program = generate_program(
            graph, result.partitions, configs, result.mapping.assignment,
            spec=_SPECS[args.spec], peer_to_peer=not args.no_p2p,
        )
        with open(args.emit_cuda, "w") as fh:
            fh.write(program.full_source())
        print(f"wrote CUDA program to {args.emit_cuda}")
    if args.trace or args.gantt:
        from repro.gpu.topology import default_topology

        _, events = record_trace(
            result.pdg,
            result.mapping.assignment,
            topology if topology is not None else default_topology(num_gpus),
            result.engine.simulator,
            result.measurements,
            peer_to_peer=not args.no_p2p,
        )
        if args.trace:
            with open(args.trace, "w") as fh:
                fh.write(to_chrome_trace(events))
            print(f"wrote Chrome trace ({len(events)} events) to {args.trace}")
        if args.gantt:
            from repro.runtime.gantt import render_gantt

            horizon = min(
                report.makespan_ns, 6 * report.pipeline_fill_ns or report.makespan_ns
            )
            print()
            print(render_gantt(events, width=96, until_ns=horizon))
    return 0


if __name__ == "__main__":
    sys.exit(main())
