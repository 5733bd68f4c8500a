"""What one workload run hands back to ``bench/run.py``."""

from __future__ import annotations

import resource
from typing import Dict, Sequence

from bench.stats import (
    Tally,
    geometric_mean,
    highest_supported_percentile,
    percentile,
    summarize,
)
from bench.trace import Tracer


def peak_rss_mb() -> float:
    """Peak RSS of this process so far (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def passes_for(seconds: float, nominal_pass_s: float, minimum: int = 2) -> int:
    """How many whole passes fit ``seconds``.  The pass count is fixed by
    the constants in ``bench/cases.py`` and ``--seconds``, never by how
    fast this commit happens to be, so a run does the same work on every
    commit; two passes are the least that can check determinism."""
    return max(minimum, int(seconds // nominal_pass_s))


#: folded call name -> the per-layer metric that carries its call count
_CALL_NAMES = {
    "sweep.cache_get": "sweep.cache_gets",
    "sweep.cache_put": "sweep.cache_puts",
}


class Report:
    """Metrics, failure tally and free-form notes of one run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.tally = Tally()
        #: end-to-end metric -> {"value": ..., plus quartiles/n}
        self.end_to_end: Dict[str, Dict[str, float]] = {}
        #: per-layer metric -> value (traced run only)
        self.per_layer: Dict[str, float] = {}
        #: anything else worth keeping in the result file
        self.notes: Dict[str, object] = {}

    def set_end_to_end(
        self,
        setup_base_s: float,
        setup_samples: Sequence[float],
        pass_rates: Sequence[float],
        latencies_s: Sequence[float],
        tmax_ratios: Sequence[float],
        rss_mb: float,
    ) -> None:
        """Fill the six end-to-end metrics from raw samples.

        ``setup_base_s`` is the part of set-up that cannot be repeated in
        one process (interpreter start to workload start: the imports);
        the repeatable part is sampled several times and its median
        added.
        """
        setup = summarize(setup_samples)
        rates = summarize(pass_rates)
        lat_ms = [s * 1e3 for s in latencies_s]
        # the highest percentile the sample really supports (>= 10 samples
        # beyond it), kept beside p50/p90 so a thin p90 is not over-read
        supported = highest_supported_percentile(len(lat_ms))
        self.end_to_end = {
            "setup_s": {
                **setup, "value": setup_base_s + setup["median"],
                "base": setup_base_s,
            },
            "cases_per_s": {**rates, "value": rates["median"]},
            "latency_ms_p50": {
                "value": percentile(lat_ms, 50), "n": len(lat_ms),
                "supported_percentile": supported,
            },
            "latency_ms_p90": {
                "value": percentile(lat_ms, 90), "n": len(lat_ms),
                "supported_percentile": supported,
            },
            "tmax_vs_ref": {
                "value": geometric_mean(tmax_ratios), "n": len(tmax_ratios),
            },
            "peak_rss_mb": {"value": rss_mb, "n": 1},
        }

    def set_layers_from(self, tracer: Tracer) -> None:
        """Per-layer values straight from the trace: ``<span>_ms`` is the
        span name's total self time, ``<folded>_calls`` its call count,
        and every counter keeps its own name."""
        for name, seconds in tracer.self_seconds().items():
            self.per_layer[f"{name}_ms"] = seconds * 1e3
        for name, (calls, _seconds) in tracer.folded.items():
            self.per_layer[_CALL_NAMES.get(name, f"{name}_calls")] = float(calls)
        for name, amount in tracer.counts.items():
            self.per_layer[name] = float(amount)


def overhead_share(traced_s: Sequence[float],
                   untraced_s: Sequence[float]) -> float:
    """Wall-time cost of tracing: traced over untraced, minus one."""
    return sum(traced_s) / sum(untraced_s) - 1.0
