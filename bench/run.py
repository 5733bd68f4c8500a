#!/usr/bin/env python3
"""The repo's benchmark: one command, six workloads.

    python3 bench/run.py                         # every workload, a table
    python3 bench/run.py --workload serve-dup --seed 3 --seconds 10 --trace 0
    python3 bench/run.py --workload compile-exact --trace 1 --out r.json

With ``--workload`` the run happens in this (fresh) process and the last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — every end-to-end metric of
``BENCHMARK.json`` under ``--trace 0``, every per-layer metric under
``--trace 1``.  Without it, each workload runs in its own subprocess so
process-wide caches start cold and peak memory is per workload.

Nothing outside ``bench/out/`` is ever written.
"""

import time

_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# the script's own directory leaves the path (bench/trace.py must not
# shadow the standard library's ``trace``); the repo root and src/ join
sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != BENCH_DIR]
sys.path[0:0] = [ROOT, SRC]


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def environment(seed: int) -> dict:
    """The stamp written into every result file."""
    import platform

    import numpy
    import scipy
    from repro.mapping.milp_model import highs_backend_available

    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs_backend": "highs" if highs_backend_available() else "scipy",
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: str):
    """Dispatch one workload; returns (Report, Tracer or None)."""
    from bench import lib_workloads, serve_workloads

    base = time.perf_counter() - _START  # interpreter start + imports
    if name in lib_workloads.COMPILE:
        if trace:
            return lib_workloads.trace_compile(name, seed)
        return lib_workloads.run_compile(name, seed, seconds, base), None
    if name == "sweep-warm":
        if trace:
            return lib_workloads.trace_sweep(seed, workdir)
        return lib_workloads.run_sweep(seed, seconds, base, workdir), None
    if name == "remap-kill":
        if trace:
            return lib_workloads.trace_remap(seed)
        return lib_workloads.run_remap(seed, seconds, base), None
    if trace:
        return serve_workloads.trace_serve(name, seed, seconds, SRC, workdir)
    return serve_workloads.run_serve(name, seed, seconds, base, SRC,
                                     workdir), None


def final_metrics(spec: dict, report, trace: bool) -> dict:
    """Exactly the metrics ``BENCHMARK.json`` declares for this mode."""
    if trace:
        return {
            m["name"]: {"value": float(report.per_layer.get(m["name"], 0.0)),
                        "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    return {
        m["name"]: {"value": float(report.end_to_end[m["name"]]["value"]),
                    "unit": m["unit"]}
        for m in spec["end_to_end"]
    }


def single(args, spec: dict) -> int:
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        report, tracer = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
        if tracer is not None and args.out:
            tracer.dump(args.out + ".spans.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally = report.tally
    metrics = final_metrics(spec, report, bool(args.trace))
    result = {
        "workload": args.workload,
        "trace": int(bool(args.trace)),
        "seconds": args.seconds,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_share": tally.failed_share,
        "failures": tally.reasons,
        "examples": tally.examples,
        "end_to_end": report.end_to_end,
        "per_layer": report.per_layer,
        "notes": report.notes,
        "env": environment(args.seed),
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
    for name, metric in metrics.items():
        print(f"{args.workload:18s} {name:34s} "
              f"{metric['value']:14.6g} {metric['unit']}")
    print(f"{args.workload:18s} {'failed_share':34s} "
          f"{tally.failed_share:14.6g} ratio "
          f"({tally.failed} of {tally.attempted})")
    for key, value in sorted(report.notes.items()):
        print(f"{args.workload:18s} note {key}: {value}")
    for example in tally.examples:
        print(f"{args.workload:18s} FAILED {example}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def every(args, spec: dict) -> int:
    """Each workload in its own fresh subprocess; a table at the end."""
    os.makedirs(OUT_DIR, exist_ok=True)
    results, ok = [], True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ([0, 1] if args.trace else [0]):
            out = os.path.join(
                OUT_DIR, f"result-{os.getpid()}-{workload}-{trace}.json")
            code = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace),
                 "--out", out],
            ).returncode
            if code != 0:
                print(f"{workload}: exited with code {code}",
                      file=sys.stderr)
                ok = False
                continue
            with open(out) as fh:
                results.append(json.load(fh))
            os.unlink(out)
            ok = ok and results[-1]["correct"]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"runs": results}, fh, indent=1, sort_keys=True)
    return 0 if ok else 1


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("bench/run.py: no src/repro beside bench/ — nothing to "
              "measure", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload in this process "
                             "(default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--out", metavar="FILE",
                        help="write the full result (quartiles, notes, "
                             "environment stamp) as JSON")
    args = parser.parse_args(argv)
    if args.workload:
        return single(args, spec)
    return every(args, spec)


if __name__ == "__main__":
    sys.exit(main())
