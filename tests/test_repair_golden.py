"""Behavior preservation for the repair solver: pinned, byte for byte.

``tests/golden/repair/pinned_repairs.json`` records every field of
every :class:`~repro.mapping.repair.RepairResult` over a fixed grid:

* the three ``make remap-check`` graphs on all six catalog platforms,
* under every single-GPU kill plus one ``slow-gpu(0, 3.0)``,
* at four migration prices ``alpha`` (0, ``REPAIR_ALPHA``, 1, 100),
* tier ``small``, with the pristine LPT assignment as the deployment.

Floats are stored as ``repr`` so the comparison is bit-exact.  The file
was written once by the repair solver as it stood before it was folded
onto the portfolio's seeds, LPT loop and refine's move loop, and it is
never refreshed: a mismatch means the repair semantics drifted.
"""

import json
from pathlib import Path

import pytest

from repro.gpu import PLATFORM_NAMES, PlatformDelta, apply_deltas, build_platform
from repro.mapping import REPAIR_ALPHA, build_mapping_problem, solve_repair
from repro.mapping.greedy import lpt_assignment
from repro.synth.scenarios import DEFAULT_WORKLOAD, _ARRIVALS, _front_half

GOLDEN = Path(__file__).parent / "golden" / "repair" / "pinned_repairs.json"

GRAPHS = DEFAULT_WORKLOAD + _ARRIVALS[:2]
ALPHAS = (0.0, REPAIR_ALPHA, 1.0, 100.0)
BUDGET = "small"


def _scripts(num_gpus):
    """(label, delta script) pairs: every kill, then one slowdown."""
    out = [
        (f"kill-gpu{gpu}", [PlatformDelta.kill_gpu(gpu)])
        for gpu in range(num_gpus)
    ]
    out.append(("slow-gpu0x3.0", [PlatformDelta.slow_gpu(0, 3.0)]))
    return out


def repair_cases():
    """Every grid point: ``{label: (problem, old, gpu_map, alpha, order)}``."""
    cases = {}
    for app, n in GRAPHS:
        pdg = _front_half(app, n)
        order = list(pdg.topological_order())
        for platform in PLATFORM_NAMES:
            base = build_platform(platform)
            old = lpt_assignment(
                build_mapping_problem(pdg, base.num_gpus, topology=base)
            )
            for script_label, deltas in _scripts(base.num_gpus):
                hit = apply_deltas(base, deltas)
                problem = build_mapping_problem(
                    pdg, hit.topology.num_gpus, topology=hit.topology
                )
                for alpha in ALPHAS:
                    label = f"{app}@{n}/{platform}/{script_label}/alpha={alpha!r}"
                    cases[label] = (problem, old, hit.gpu_map, alpha, order)
    return cases


def repair_record(result):
    """Every field of a ``RepairResult`` as JSON, floats as ``repr``."""
    mapping = result.mapping
    return {
        "assignment": list(mapping.assignment),
        "tmax": repr(mapping.tmax),
        "gpu_times": [repr(t) for t in mapping.gpu_times],
        "link_times": [repr(t) for t in mapping.link_times],
        "solver": mapping.solver,
        "optimal": mapping.optimal,
        "solve_stats": [[name, repr(value)] for name, value in mapping.solve_stats],
        "budget": result.budget,
        "alpha": repr(result.alpha),
        "migrated": list(result.migrated),
        "evicted": list(result.evicted),
        "migration_bytes": repr(result.migration_bytes),
        "objective": repr(result.objective),
        "fallback": result.fallback,
        "seed_tmax": repr(result.seed_tmax),
        "greedy_tmax": repr(result.greedy_tmax),
        "moves": result.moves,
    }


def run_case(case):
    problem, old, gpu_map, alpha, order = case
    return solve_repair(
        problem, old, gpu_map=gpu_map, alpha=alpha, budget=BUDGET,
        topo_order=order,
    )


@pytest.fixture(scope="module")
def golden():
    with GOLDEN.open() as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def cases():
    return repair_cases()


def test_golden_covers_exactly_the_grid(golden, cases):
    """A stale file (a grid point added, dropped or renamed) fails here."""
    assert golden["budget"] == BUDGET
    assert golden["alphas"] == [repr(a) for a in ALPHAS]
    assert sorted(golden["repairs"]) == sorted(cases)
    for label, (problem, old, _gpu_map, _alpha, _order) in cases.items():
        want = golden["repairs"][label]
        assert want["old_assignment"] == list(old), label
        assert want["num_gpus"] == problem.num_gpus, label


def test_repairs_are_byte_identical_to_the_golden(golden, cases):
    for label, case in sorted(cases.items()):
        want = golden["repairs"][label]["result"]
        assert repair_record(run_case(case)) == want, label
