"""Golden regression: the metaheuristic tier's answers are pinned.

``tests/golden/metaheuristic/pinned_metaheuristic.json`` holds the
(assignment, tmax, rescore-count) triple of ``solve_metaheuristic``
under a pinned configuration (rounds/population/seed recorded in the
file) for the pinned 30-instance corpus on three machines — the same
90 combos ``tests/golden/kernel/`` pins for the older solvers.

The file is **never refreshed**: the solver is deterministic by
contract (SplitMix64 RNG, absolute-round temperature schedule, batch
scores bit-identical to the interpreted evaluator), so any drift — a
reordered RNG draw, a changed fold — is a bug, not a golden update;
see docs/PERFORMANCE.md.
"""

import json
from pathlib import Path

import pytest

from repro.flow import partition_stage, pdg_stage, profile_stage
from repro.gpu.platforms import build_platform
from repro.gpu.topology import default_topology
from repro.mapping.metaheuristic import solve_metaheuristic
from repro.mapping.problem import build_mapping_problem
from repro.synth.corpus import PINNED_CORPUS, generate_corpus

GOLDEN_DIR = Path(__file__).parent / "golden" / "metaheuristic"
GOLDEN = GOLDEN_DIR / "pinned_metaheuristic.json"


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
        order = list(pdg.topological_order())
        for tag, topo in (
            ("g2", default_topology(2)),
            ("g4", default_topology(4)),
            ("mixed-box", build_platform("mixed-box")),
        ):
            problem = build_mapping_problem(pdg, topo.num_gpus, topology=topo)
            out[f"{label}@{tag}"] = (problem, order)
    return out


def _solve(problem, order, config):
    return solve_metaheuristic(
        problem, topo_order=order, rounds=config["rounds"],
        population=config["population"], seed=config["seed"],
    )


def test_golden_dir_has_no_stale_files(golden):
    """Never-refresh guard: exactly the one pinned file, nothing else —
    a stray regenerated or renamed file is a review problem, not data."""
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == [GOLDEN.name]
    assert set(golden) == {"combos", "config"}


def test_golden_covers_every_combo(golden, problems):
    assert set(golden["combos"]) == set(problems)
    for label, (problem, _order) in problems.items():
        combo = golden["combos"][label]
        assert combo["num_partitions"] == problem.num_partitions
        assert combo["num_gpus"] == problem.num_gpus


def test_metaheuristic_answers_unchanged(golden, problems):
    config = golden["config"]
    for label, (problem, order) in sorted(problems.items()):
        want = golden["combos"][label]
        got = _solve(problem, order, config)
        assert list(got.assignment) == want["assignment"], label
        assert got.tmax == want["tmax"], label
        stats = dict(got.solve_stats)
        assert stats["mh_rescores"] == want["mh_rescores"], label
        # the exact-accept contract, re-pinned on every golden combo
        assert got.tmax == problem.tmax(list(got.assignment)), label
