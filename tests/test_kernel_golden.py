"""Behavior preservation: the kernel port changed *speed*, not answers.

``tests/golden/kernel/pinned_solver_outputs.json`` was generated by the
pre-kernel solver stack (interpreted evaluator, tree-walk routes,
full-rescan refine and branch-and-bound) over the pinned 30-instance
corpus on three machines: the 2- and 4-GPU reference trees and the
heterogeneous ``mixed-box`` platform.  This test re-runs today's
kernel-based refine, branch-and-bound, and portfolio on the same 90
combos and requires *bit-identical* assignments, objectives, step
counts, and search-node counts.

If it ever fails, a solver's semantics drifted — that is a bug, not a
golden refresh; see docs/PERFORMANCE.md.
"""

import json
from pathlib import Path

import pytest

from repro.flow import partition_stage, pdg_stage, profile_stage
from repro.gpu.platforms import build_platform
from repro.gpu.topology import default_topology
from repro.mapping.budget import SolveBudget
from repro.mapping.greedy import lpt_mapping
from repro.mapping.refine import refine_mapping
from repro.mapping.solver_bb import solve_branch_and_bound
from repro.mapping.portfolio import solve_portfolio
from repro.synth.corpus import PINNED_CORPUS, generate_corpus

GOLDEN = Path(__file__).parent / "golden" / "kernel" / "pinned_solver_outputs.json"


@pytest.fixture(scope="module")
def golden():
    with GOLDEN.open() as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def problems():
    out = {}
    for inst in generate_corpus(PINNED_CORPUS):
        graph = inst.graph
        label = inst.spec.instance_name
        engine = profile_stage(graph)
        partitions, partitioning = partition_stage(graph, engine)
        pdg = pdg_stage(graph, partitions, engine, partitioning=partitioning)
        from repro.mapping.problem import build_mapping_problem
        for tag, topo in (
            ("g2", default_topology(2)),
            ("g4", default_topology(4)),
            ("mixed-box", build_platform("mixed-box")),
        ):
            problem = build_mapping_problem(pdg, topo.num_gpus, topology=topo)
            out[f"{label}@{tag}"] = (problem, list(pdg.topological_order()))
    return out


def test_golden_covers_every_combo(golden, problems):
    assert set(golden) == set(problems)
    for label, (problem, _order) in problems.items():
        assert golden[label]["num_partitions"] == problem.num_partitions
        assert golden[label]["num_gpus"] == problem.num_gpus


def test_refine_unchanged_by_kernel_port(golden, problems):
    for label, (problem, _order) in sorted(problems.items()):
        want = golden[label]["refine"]
        seed = lpt_mapping(problem)
        got = refine_mapping(problem, seed.assignment)
        assert list(got.assignment) == want["assignment"], label
        assert got.tmax == want["tmax"], label
        assert dict(got.solve_stats)["refine_steps"] == want["steps"], label


def test_bb_unchanged_by_kernel_port(golden, problems):
    small = SolveBudget.tier("small")
    for label, (problem, _order) in sorted(problems.items()):
        want = golden[label]["bb"]
        got = solve_branch_and_bound(problem, budget=small)
        assert list(got.assignment) == want["assignment"], label
        assert got.tmax == want["tmax"], label
        assert got.optimal == want["optimal"], label
        # node-for-node identical search trees, not just equal answers
        assert dict(got.solve_stats)["nodes"] == want["nodes"], label


def test_portfolio_unchanged_by_kernel_port(golden, problems):
    for label, (problem, order) in sorted(problems.items()):
        want = golden[label]["portfolio"]
        got = solve_portfolio(problem, budget="small", topo_order=order)
        assert list(got.mapping.assignment) == want["assignment"], label
        assert got.mapping.tmax == want["tmax"], label
        assert got.status == want["status"], label
        assert got.winner == want["winner"], label
