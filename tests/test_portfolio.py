"""Anytime solver portfolio + deterministic solve budgets.

Pins the three service-level solver guarantees on the pinned synthetic
corpus: every budget tier returns a *valid* mapping, a larger budget
never returns a *worse* mapping (anytime monotonicity), and an ample
budget lands on the MILP optimum the differential harness certifies.
Plus the satellite regression of this PR: ``solve_milp`` under the
default budget is deterministic across back-to-back runs — the 10 s
wall-clock limit (and its load-dependent results) is opt-in now.
"""

import math
from dataclasses import replace

import pytest

from repro.flow import partition_stage, pdg_stage, profile_stage
from repro.gpu.topology import default_topology
from repro.mapping.budget import (
    BUDGET_TIERS,
    TIER_ORDER,
    WALL_CLOCK_ENV,
    SolveBudget,
)
from repro.mapping.problem import MappingProblem, build_mapping_problem
from repro.mapping.solver_bb import solve_branch_and_bound
from repro.mapping.solver_milp import MilpNoIncumbent, solve_milp
from repro.service import portfolio as portfolio_mod
from repro.service.portfolio import (
    solve_portfolio,
    tier_for_deadline,
)
from repro.synth.corpus import PINNED_CORPUS, generate_corpus
from repro.synth.diffcheck import REL_TOL

NUM_GPUS = 2


@pytest.fixture(scope="module")
def corpus_problems():
    """(label, MappingProblem, topo order) for every pinned instance."""
    out = []
    for instance in generate_corpus(PINNED_CORPUS):
        graph = instance.graph
        engine = profile_stage(graph)
        partitions, partitioning = partition_stage(graph, engine)
        pdg = pdg_stage(graph, partitions, engine, partitioning=partitioning)
        problem = build_mapping_problem(
            pdg, NUM_GPUS, topology=default_topology(NUM_GPUS)
        )
        out.append(
            (instance.spec.instance_name, problem, pdg.topological_order())
        )
    return out


@pytest.fixture(scope="module")
def tier_answers(corpus_problems):
    """Portfolio answers for every (instance, tier) pair."""
    return {
        (label, tier): solve_portfolio(problem, budget=tier, topo_order=order)
        for label, problem, order in corpus_problems
        for tier in TIER_ORDER
    }


def _assert_valid(problem, result):
    assert len(result.assignment) == problem.num_partitions
    assert all(0 <= gpu < problem.num_gpus for gpu in result.assignment)
    rescored = problem.tmax(list(result.assignment))
    assert result.tmax == pytest.approx(rescored, rel=REL_TOL)


class TestPortfolioOnPinnedCorpus:
    def test_every_tier_returns_a_valid_mapping(
        self, corpus_problems, tier_answers
    ):
        for label, problem, _ in corpus_problems:
            for tier in TIER_ORDER:
                answer = tier_answers[(label, tier)]
                _assert_valid(problem, answer.mapping)
                assert answer.status in ("optimal", "feasible")
                assert answer.budget == tier
                # the greedy floor always ran, whatever the budget
                assert answer.stage("greedy").ran

    def test_anytime_monotonicity(self, corpus_problems, tier_answers):
        """Escalating the budget tier never worsens the objective."""
        for label, _, _ in corpus_problems:
            tmaxes = [
                tier_answers[(label, tier)].mapping.tmax
                for tier in TIER_ORDER
            ]
            for cheap, rich in zip(tmaxes, tmaxes[1:]):
                assert rich <= cheap * (1.0 + REL_TOL), (
                    f"{label}: larger budget worsened tmax "
                    f"({cheap:.6g} -> {rich:.6g})"
                )

    def test_ample_budget_matches_milp_optimum(
        self, corpus_problems, tier_answers
    ):
        """The top tier lands on the optimum diffcheck certifies."""
        gap_free = replace(SolveBudget.tier("ample"), mip_rel_gap=0.0)
        for label, problem, _ in corpus_problems:
            reference = solve_milp(problem, budget=gap_free)
            if not reference.optimal:  # pragma: no cover - tiny instances
                continue
            answer = tier_answers[(label, "ample")]
            assert answer.status == "optimal"
            assert answer.mapping.tmax == pytest.approx(
                reference.tmax, rel=REL_TOL
            ), f"{label}: ample portfolio missed the MILP optimum"

    def test_instant_tier_skips_exact_solvers(self, corpus_problems):
        _, problem, order = corpus_problems[0]
        answer = solve_portfolio(problem, budget="instant", topo_order=order)
        assert not answer.stage("branch-and-bound").ran
        assert not answer.stage("milp").ran
        assert answer.status == "feasible"


class TestPortfolioMechanics:
    def _chain(self, times=(400e3, 300e3, 200e3, 100e3)):
        return MappingProblem(
            times=list(times),
            edges={(0, 1): 128.0, (1, 2): 128.0, (2, 3): 128.0},
            host_io=[(128.0, 0.0)] + [(0.0, 0.0)] * (len(times) - 2)
            + [(0.0, 128.0)],
            topology=default_topology(2),
        )

    def test_deadline_zero_stops_after_greedy(self):
        answer = solve_portfolio(self._chain(), budget="ample", deadline_s=0.0)
        assert answer.stage("greedy").ran
        assert not answer.stage("milp").ran
        assert "deadline" in answer.stage("milp").note
        assert answer.mapping.tmax > 0

    def test_winner_names_the_producing_stage(self):
        answer = solve_portfolio(self._chain(), budget="ample")
        assert answer.mapping.solver == f"portfolio[{answer.winner}]"
        assert answer.winner in (
            "greedy", "refine", "branch-and-bound", "milp"
        )

    def test_unknown_stage_raises(self):
        answer = solve_portfolio(self._chain(), budget="instant")
        with pytest.raises(KeyError):
            answer.stage("simulated-annealing")

    def test_milp_skipped_once_bb_proves_optimality(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            portfolio_mod, "solve_milp",
            lambda *a, **k: calls.append(1),
        )
        answer = solve_portfolio(self._chain(), budget="ample")
        assert answer.status == "optimal"
        assert calls == []
        assert "proven" in answer.stage("milp").note

    def test_milp_no_incumbent_keeps_best_so_far(self, monkeypatch):
        def no_incumbent(*args, **kwargs):
            raise MilpNoIncumbent("budget exhausted, no incumbent")

        monkeypatch.setattr(portfolio_mod, "solve_milp", no_incumbent)
        budget = replace(SolveBudget.tier("default"), use_bb=False)
        answer = solve_portfolio(self._chain(), budget=budget)
        assert answer.status == "feasible"
        assert math.isfinite(answer.mapping.tmax)
        assert "no incumbent" in answer.stage("milp").note

    def test_optimal_claim_requires_certifying_the_returned_best(
        self, monkeypatch
    ):
        """A stage can be 'optimal' (e.g. MILP modulo its mip_rel_gap)
        while the portfolio holds a strictly better incumbent from a
        capped stage — stamping optimal=True on that incumbent would
        claim a proof nothing produced."""
        from repro.mapping.result import make_result

        problem = self._chain()
        everything_on_gpu0 = [0] * problem.num_partitions

        def gap_optimal_milp(problem, budget=None, incumbent=None, **kwargs):
            # a gap-satisfying "optimal" answer strictly worse than what
            # the heuristic stages already hold
            return make_result(
                problem, everything_on_gpu0, "milp", optimal=True,
                stats=(("milp_status", 0.0),),
            )

        monkeypatch.setattr(portfolio_mod, "solve_milp", gap_optimal_milp)
        budget = replace(SolveBudget.tier("default"), use_bb=False)
        answer = solve_portfolio(problem, budget=budget)
        milp_stage = answer.stage("milp")
        assert milp_stage.ran and milp_stage.optimal
        assert answer.mapping.tmax < problem.tmax(everything_on_gpu0)
        # the certifying stage certified *its own* tmax, not the best
        assert answer.status == "feasible"
        assert not answer.mapping.optimal

    def test_tier_for_deadline_ladder(self):
        assert tier_for_deadline(60.0) == "ample"
        assert tier_for_deadline(2.0) == "default"
        assert tier_for_deadline(0.5) == "small"
        assert tier_for_deadline(0.01) == "instant"
        assert tier_for_deadline(-1.0) == "instant"


class TestSolveBudget:
    def test_tiers_are_superset_ordered(self):
        """Each tier must do at least the work of the one before it —
        the structural property monotonicity rests on."""
        previous = None
        for name in TIER_ORDER:
            tier = BUDGET_TIERS[name]
            if previous is not None:
                assert tier.refine_steps >= previous.refine_steps
                assert tier.use_bb >= previous.use_bb
                assert tier.use_milp >= previous.use_milp
                if previous.use_bb:
                    assert tier.bb_node_limit >= previous.bb_node_limit
            previous = tier

    def test_unknown_tier_raises(self):
        with pytest.raises(ValueError, match="unknown budget tier"):
            SolveBudget.tier("extravagant")

    def test_bare_budget_is_the_default_tier(self):
        """Customizing one knob must keep every other limit at the
        documented default-tier value."""
        assert SolveBudget() == SolveBudget.tier("default")
        custom = replace(SolveBudget(), milp_node_limit=500)
        assert custom.bb_node_limit == BUDGET_TIERS["default"].bb_node_limit

    def test_default_is_deterministic_unless_opted_in(self, monkeypatch):
        monkeypatch.delenv(WALL_CLOCK_ENV, raising=False)
        assert SolveBudget.default().time_limit_s is None
        monkeypatch.setenv(WALL_CLOCK_ENV, "7.5")
        assert SolveBudget.default().time_limit_s == 7.5

    def test_wall_clock_is_part_of_the_cache_key(self):
        dry = SolveBudget.tier("default").key_parts()
        wet = SolveBudget.tier("default").with_wall_clock(5.0).key_parts()
        assert dry != wet

    def test_zero_wall_clock_means_no_limit(self, monkeypatch):
        """``REPRO_MILP_TIME_LIMIT_S=0`` used to pass string-truthiness
        and set a 0.0 cap the solver silently ignored — while changing
        every budget-derived cache key.  Zero and empty mean *unset*."""
        # the env-var call path
        monkeypatch.setenv(WALL_CLOCK_ENV, "0")
        assert SolveBudget.default().time_limit_s is None
        assert SolveBudget.default() == SolveBudget.tier("default")
        monkeypatch.setenv(WALL_CLOCK_ENV, "")
        assert SolveBudget.default().time_limit_s is None
        # the explicit-argument call path
        assert SolveBudget.tier("ample").with_wall_clock(0).time_limit_s is None
        assert SolveBudget.tier("ample").with_wall_clock(None).time_limit_s is None
        # ...and direct construction, so no zero cap can enter a key
        assert (
            SolveBudget(time_limit_s=0.0).key_parts()
            == SolveBudget().key_parts()
        )

    def test_negative_wall_clock_is_rejected(self, monkeypatch):
        monkeypatch.setenv(WALL_CLOCK_ENV, "-3")
        with pytest.raises(ValueError, match="wall-clock"):
            SolveBudget.default()
        with pytest.raises(ValueError, match="wall-clock"):
            SolveBudget.tier("default").with_wall_clock(-1.0)


class _KeyRecorder:
    """A cache stub that records lookup keys and stores nothing."""

    def __init__(self):
        self.keys = []

    def get(self, key):
        self.keys.append(key)
        return None

    def put(self, key, value):
        pass


class TestBudgetCacheKeys:
    def _mapping_key(self):
        from repro.flow import mapping_stage, partition_stage, pdg_stage, profile_stage
        from repro.synth.families import generate

        graph = generate("pipeline", 1).graph
        engine = profile_stage(graph)
        partitions, partitioning = partition_stage(graph, engine)
        pdg = pdg_stage(graph, partitions, engine, partitioning=partitioning)
        recorder = _KeyRecorder()
        mapping_stage(pdg, 2, engine, cache=recorder)
        return [k for k in recorder.keys if k.startswith("mapping.")][0]

    def test_env_wall_clock_changes_the_mapping_cache_key(self, monkeypatch):
        """A wall-clock-limited solve is load-dependent, so it must
        never be replayed as a deterministic default-budget result."""
        monkeypatch.delenv(WALL_CLOCK_ENV, raising=False)
        deterministic = self._mapping_key()
        assert deterministic == self._mapping_key()  # stable
        monkeypatch.setenv(WALL_CLOCK_ENV, "10.0")
        assert self._mapping_key() != deterministic


class TestDeterministicMilp:
    def test_back_to_back_solves_are_identical(self, corpus_problems):
        """The acceptance pin: the default budget has no wall clock, so
        two consecutive solves of one instance agree exactly."""
        # the largest pinned instance is the most search-heavy
        label, problem, _ = max(
            corpus_problems, key=lambda item: item[1].num_partitions
        )
        first = solve_milp(problem)
        second = solve_milp(problem)
        assert first.assignment == second.assignment, label
        assert first.tmax == second.tmax
        assert first.optimal == second.optimal

    def test_capped_solve_reports_incumbent(self, corpus_problems):
        _, problem, _ = max(
            corpus_problems, key=lambda item: item[1].num_partitions
        )
        tiny = replace(SolveBudget.tier("default"), milp_node_limit=1)
        result = solve_milp(problem, budget=tiny)
        # HiGHS either proves optimality at the root or stops at the cap
        # with a usable incumbent; both must score consistently
        assert len(result.assignment) == problem.num_partitions
        assert result.tmax == pytest.approx(
            problem.tmax(list(result.assignment)), rel=REL_TOL
        )
        stats = dict(result.solve_stats)
        assert "milp_status" in stats

    def test_wall_clock_budget_still_solves(self):
        problem = MappingProblem(
            times=[5.0, 4.0], edges={}, host_io=[(0.0, 0.0)] * 2,
            topology=default_topology(2),
        )
        budget = SolveBudget.tier("default").with_wall_clock(5.0)
        assert solve_milp(problem, budget=budget).optimal

    def test_zero_wall_clock_argument_means_unlimited(self):
        """A budget built with ``with_wall_clock(0)`` is the no-limit
        solve, not a zero-second one (and not a distinct budget): the
        solve must succeed and prove optimality."""
        problem = MappingProblem(
            times=[5.0, 4.0], edges={}, host_io=[(0.0, 0.0)] * 2,
            topology=default_topology(2),
        )
        budget = SolveBudget.tier("default").with_wall_clock(0)
        assert budget == SolveBudget.tier("default")
        assert solve_milp(problem, budget=budget).optimal


class TestBranchAndBoundSeeding:
    def test_injected_incumbent_is_never_worsened(self, corpus_problems):
        _, problem, _ = corpus_problems[0]
        seed = [0] * problem.num_partitions
        result = solve_branch_and_bound(problem, incumbent=seed)
        assert result.tmax <= problem.tmax(seed) * (1.0 + REL_TOL)

    def test_bad_incumbent_length_raises(self, corpus_problems):
        _, problem, _ = corpus_problems[0]
        with pytest.raises(ValueError, match="incumbent length"):
            solve_branch_and_bound(problem, incumbent=[0])

    def test_budget_supplies_the_node_cap(self, corpus_problems):
        _, problem, _ = max(
            corpus_problems, key=lambda item: item[1].num_partitions
        )
        stingy = replace(SolveBudget.tier("small"), bb_node_limit=1)
        result = solve_branch_and_bound(problem, budget=stingy)
        assert not result.optimal
        assert dict(result.solve_stats)["nodes"] <= 2
