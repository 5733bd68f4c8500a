#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one verdict per (metric, workload).

    python bench/compare.py A.json B.json
    python bench/compare.py --a a1.json a2.json a3.json --b b1.json b2.json b3.json
    python bench/compare.py --demo        # the sensitivity demonstration

Each file is what ``bench/run.py --out`` wrote (one workload, or the
``{"runs": [...]}`` of a full run); give at least three runs a side.
The verdicts, using the bounds of ``BENCHMARK.json`` and the quartiles
of each side's runs:

``worse``         B's median is worse than A's by more than the bound
``better``        B's median is better than A's by more than the bound
``within-bound``  neither, and both sides' spread is inside the bound
``unresolved``    a side's spread (IQR / median) exceeds the bound and
                  the runs interleave — not "unchanged", just unknown
                  (if every B run beats every A run it is still
                  ``better``; the mirror image is ``worse``)
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != BENCH_DIR]
sys.path[0:0] = [ROOT]

from bench.stats import summarize  # noqa: E402

#: share by which the demo's engine subclass slows every ``estimate``.
#: ``estimate`` is about half of compile-heuristic's wall, so 0.5 costs
#: ~20 % end to end — clear of the 0.15 bound.  (0.2, a 10 % effect, is
#: measured as -10 % and correctly reads ``within-bound``.)
DEMO_SLOWDOWN = "0.5"
DEMO_RUNS = 3


def load_runs(paths):
    """``{(workload, metric): [value per run]}`` over untraced runs."""
    values = {}
    for path in paths:
        with open(path) as fh:
            payload = json.load(fh)
        for run in payload.get("runs", [payload]):
            if run["trace"]:
                continue
            for metric, entry in run["end_to_end"].items():
                values.setdefault((run["workload"], metric), []).append(
                    entry["value"])
            values.setdefault((run["workload"], "failed_share"), []).append(
                run["failed_share"])
    return values


def side(values):
    return {**summarize(values), "runs": list(values)}


def verdict(metric: dict, a: dict, b: dict) -> str:
    """See the module docstring; ``a``/``b`` carry median, q1, q3, runs."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    if a["median"] == 0:
        return "within-bound" if b["median"] == 0 else (
            "worse" if (b["median"] > 0) == lower else "better")
    worsening = (b["median"] - a["median"]) / abs(a["median"])
    if not lower:
        worsening = -worsening
    spread = max(
        (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0
        for s in (a, b)
    )
    if spread > bound:
        if lower:
            all_better = max(b["runs"]) < min(a["runs"])
            all_worse = min(b["runs"]) > max(a["runs"])
        else:
            all_better = min(b["runs"]) > max(a["runs"])
            all_worse = max(b["runs"]) < min(a["runs"])
        if all_better:
            return "better"
        if all_worse and worsening > bound:
            return "worse"
        return "unresolved"
    if worsening > bound:
        return "worse"
    if -worsening > bound:
        return "better"
    return "within-bound"


def compare(a_paths, b_paths, out=sys.stdout):
    """Print the table; returns the verdicts keyed (workload, metric)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    # failures may not grow at all
    metrics["failed_share"] = {"better": "lower", "bound": 0.0, "unit": "ratio"}
    a_runs, b_runs = load_runs(a_paths), load_runs(b_paths)
    verdicts = {}
    print(f"{'workload':18s} {'metric':16s} {'A median':>12s} "
          f"{'B median':>12s} {'change':>8s}  verdict", file=out)
    for key in sorted(set(a_runs) & set(b_runs)):
        workload, name = key
        a, b = side(a_runs[key]), side(b_runs[key])
        verdicts[key] = verdict(metrics[name], a, b)
        change = ((b["median"] - a["median"]) / a["median"]
                  if a["median"] else 0.0)
        print(f"{workload:18s} {name:16s} {a['median']:12.6g} "
              f"{b['median']:12.6g} {change:+8.1%}  {verdicts[key]} "
              f"(n={a['n']}/{b['n']})", file=out)
    return verdicts


def demo() -> int:
    """Slow ``estimate`` by half from the benchmark's side (a subclass
    handed to ``map_stream_graph(engine=)``; nothing under ``src/`` is
    edited) and show the ruler sees it where it should and only there:
    ``cases_per_s`` on compile-heuristic must read *worse*, serve-dup —
    whose hit path never estimates anything — must stay *within-bound*."""
    sides = {"a": [], "b": []}
    with tempfile.TemporaryDirectory(dir=os.path.join(BENCH_DIR, "out")) as tmp:
        for workload in ("compile-heuristic", "serve-dup"):
            for run in range(DEMO_RUNS):
                for name in ("a", "b"):  # alternate sides
                    env = dict(os.environ)
                    if name == "b":
                        env["BENCH_DEMO_SLOW_ESTIMATE"] = DEMO_SLOWDOWN
                    out = os.path.join(tmp, f"{name}-{workload}-{run}.json")
                    subprocess.run(
                        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                         "--workload", workload, "--seed", str(run),
                         "--out", out],
                        env=env, check=True, stdout=subprocess.DEVNULL,
                    )
                    sides[name].append(out)
        verdicts = compare(sides["a"], sides["b"])
    ok = (verdicts[("compile-heuristic", "cases_per_s")] == "worse"
          and verdicts[("serve-dup", "cases_per_s")] == "within-bound"
          and verdicts[("serve-dup", "latency_ms_p50")] == "within-bound")
    print("sensitivity demo:", "PASSED" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("files", nargs="*", metavar="FILE",
                        help="A.json B.json")
    parser.add_argument("--a", nargs="+", default=[], metavar="FILE")
    parser.add_argument("--b", nargs="+", default=[], metavar="FILE")
    parser.add_argument("--demo", action="store_true")
    args = parser.parse_args()
    if args.demo:
        os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
        return demo()
    if len(args.files) == 2 and not (args.a or args.b):
        args.a, args.b = [args.files[0]], [args.files[1]]
    if not (args.a and args.b) or (args.files and len(args.files) != 2):
        parser.error("give A.json B.json, or --a FILES --b FILES")
    verdicts = compare(args.a, args.b)
    return 1 if "worse" in verdicts.values() else 0


if __name__ == "__main__":
    sys.exit(main())
