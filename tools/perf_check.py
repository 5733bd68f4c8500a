#!/usr/bin/env python3
"""Perf gate: delta scoring and MILP model reuse must clear their bars.

Runs the pinned quick corpus (:mod:`repro.mapping.perfprobe`) and
asserts two ratios:

* :meth:`DeltaEvaluator.score_move` probes price refine-style move
  scans at least ``MIN_DELTA_RATIO`` times faster than the interpreted
  evaluator (:meth:`MappingProblem.tmax`) — the cost every solver paid
  per candidate before the compiled kernel existed;
* rebinding a cached :class:`CompiledMilpModel` prepares a solver-ready
  MILP at least ``MIN_MILP_REUSE_RATIO`` times faster than the legacy
  per-solve rebuild, on the sweep-grid repeat shapes — the solve that
  follows is bit-identical on both sides, so preparation is the whole
  difference the model cache makes.

Each bar is a *ratio measured in the same process*, so it holds on a
loaded single-core box where absolute rates swing; a failing problem is
re-measured once with a longer window before the gate fails, to shrug
off one-off scheduler hiccups.  Absolute rates are recorded by ``make
bench-kernel`` into ``BENCH_kernel.json``; this gate never asserts them.

Exits non-zero listing every violation; run via ``make perf-check``.
"""

from __future__ import annotations

import sys


def main() -> int:
    sys.path.insert(0, "src")
    from repro.mapping.perfprobe import (
        MIN_DELTA_RATIO,
        MIN_MILP_REUSE_RATIO,
        measure_eval_rates_gated,
        measure_milp_reuse_rates_gated,
        milp_sweep_shapes,
        quick_corpus,
    )

    failures = []
    for label, problem in quick_corpus():
        rates = measure_eval_rates_gated(problem)
        ratio = rates["delta_vs_interp"]
        status = "ok" if ratio >= MIN_DELTA_RATIO else "FAIL"
        print(
            f"  {label:22s} interp {rates['interp_full_per_s']:9.0f}/s  "
            f"delta {rates['delta_move_per_s']:9.0f}/s  "
            f"x{ratio:5.1f}  {status}"
        )
        if ratio < MIN_DELTA_RATIO:
            failures.append(f"{label}: delta only x{ratio:.1f} interpreted")
    for label, problem in milp_sweep_shapes():
        rates = measure_milp_reuse_rates_gated(problem)
        ratio = rates["reuse_vs_rebuild"]
        status = "ok" if ratio >= MIN_MILP_REUSE_RATIO else "FAIL"
        print(
            f"  {label:22s} rebuild {rates['rebuild_prep_per_s']:8.0f}/s  "
            f"rebind {rates['rebind_prep_per_s']:10.0f}/s  "
            f"x{ratio:5.1f}  {status}"
        )
        if ratio < MIN_MILP_REUSE_RATIO:
            failures.append(
                f"{label}: milp rebind only x{ratio:.1f} rebuild"
            )
    if failures:
        print("perf-check FAILED "
              f"(bars: delta >= x{MIN_DELTA_RATIO:.0f}, "
              f"milp reuse >= x{MIN_MILP_REUSE_RATIO:.1f}):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"perf-check OK: delta >= x{MIN_DELTA_RATIO:.0f} interpreted "
          f"evaluation, milp rebind >= x{MIN_MILP_REUSE_RATIO:.1f} rebuild "
          "on the probe shapes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
