"""Output checks: every answer is re-scored by the repo's declared oracle.

The benchmark rebuilds the ``MappingProblem`` through the public
``build_mapping_problem`` and requires the interpreted evaluator
``MappingProblem.tmax`` — not the compiled kernel under test — to
reproduce the reported ``tmax`` bit for bit.  Pinned cases must also not
exceed the ``tmax`` recorded in ``bench/expected.json`` (an improvement
may lower it, never raise it), must keep a proof they had, and must
return the same assignment on every pass.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional, Sequence

from repro.flow import partition_stage, pdg_stage, profile_stage
from repro.gpu.platforms import build_platform
from repro.gpu.topology import default_topology
from repro.mapping.problem import MappingProblem, build_mapping_problem

from bench.cases import Case

EXPECTED_PATH = os.path.join(os.path.dirname(__file__), "expected.json")


def machine_topology(num_gpus: int = 1, platform: Optional[str] = None):
    """A fresh topology: the named platform, else the reference tree."""
    if platform is not None:
        return build_platform(platform)
    return default_topology(num_gpus)


def topology_for(case: Case):
    """A fresh topology of the case's machine."""
    return machine_topology(**case.machine_kwargs())


def front_half(graph):
    """Profile, partition and PDG through the public stage functions —
    what a check needs to rebuild a served request's problem."""
    engine = profile_stage(graph)
    partitions, partitioning = partition_stage(graph, engine)
    return pdg_stage(graph, partitions, engine, partitioning=partitioning)


def oracle_problem(pdg, topology) -> MappingProblem:
    return build_mapping_problem(pdg, topology.num_gpus, topology=topology)


def check_answer(
    problem: MappingProblem, assignment: Sequence[int], tmax: float
) -> Optional[str]:
    """Why an answer is wrong, or ``None``."""
    if len(assignment) != problem.num_partitions:
        return "invalid-assignment"
    for gpu in assignment:
        if not isinstance(gpu, int) or not 0 <= gpu < problem.num_gpus:
            return "invalid-assignment"
    if problem.tmax(list(assignment)) != tmax:
        return "inexact-tmax"
    return None


class Expected:
    """``bench/expected.json``: per workload, per pinned case, the best
    ``tmax`` anyone has found (the reference of ``tmax_vs_ref``) and the
    answer the workload's own tier returned when the file was made."""

    def __init__(self, path: str = EXPECTED_PATH) -> None:
        with open(path) as fh:
            self._data: Dict[str, Dict[str, dict]] = json.load(fh)["workloads"]

    def entry(self, workload: str, case_id: str) -> Optional[dict]:
        return self._data.get(workload, {}).get(case_id)

    def check(self, workload: str, case_id: str, tmax: float,
              optimal: bool) -> Optional[str]:
        """Pinned-case regressions: a raised ``tmax`` or a lost proof."""
        entry = self.entry(workload, case_id)
        if entry is None:
            return "no-reference"
        if tmax > entry["pinned_tmax"]:
            return "reference-exceeded"
        if entry["pinned_optimal"] and not optimal:
            return "proof-lost"
        return None

    def ratio(self, workload: str, case_id: str, tmax: float) -> float:
        """Returned ``tmax`` over the best known one."""
        return tmax / self.entry(workload, case_id)["best_known"]
