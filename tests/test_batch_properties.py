"""Property/fuzz layer for batch population scoring.

The batch evaluator's contract is the kernel's, lifted to populations:
*bit-exactness* against the interpreted evaluator
(:meth:`MappingProblem.tmax`), not closeness.  Float sums do not
commute, so the vectorized path must replicate the interpreted fold
order exactly — these tests pin that across the synthetic corpus x the
full topology set (g2/g4 plus every named platform), across adversarial
random heterogeneous trees with full-mantissa byte counts (where any
reordering shows up in the last ulp).

The mutation test at the bottom guards the scalar side's one
accumulation helper (:func:`repro.mapping.kernel.canonical_gpu_fold`):
replacing it with a reversed-order fold must make the delta scorer
visibly diverge from the interpreted evaluator — if that test ever
stops failing under mutation, the fold order is no longer load-bearing
and the exactness suite has lost its teeth.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_kernel import _corpus_problems
from test_platforms import random_hetero_topology, random_problem

import repro.mapping.kernel as kernel_mod
from repro.mapping.batch import BatchEvaluator
from repro.mapping.kernel import DeltaEvaluator, EvalKernel
from repro.mapping.problem import MappingProblem
from repro.gpu.topology import default_topology

@pytest.fixture(scope="module")
def corpus_problems():
    return _corpus_problems()


def _random_population(problem, rng, count):
    return [
        [rng.randrange(problem.num_gpus)
         for _ in range((problem.num_partitions))]
        for _ in range(count)
    ]


# ----------------------------------------------------------------------
# exactness
# ----------------------------------------------------------------------
class TestBatchExactness:
    def test_corpus_bit_identical(self, corpus_problems):
        """Corpus x topology set: batch == the interpreted loop, bitwise."""
        rng = random.Random(0xBA7C4)
        for label, problem in corpus_problems:
            evaluator = BatchEvaluator(EvalKernel(problem))
            pop = _random_population(problem, rng, 17)
            assert evaluator.batch_tmax(pop) == [
                problem.tmax(a) for a in pop
            ], label

    def test_adversarial_trees_bit_identical(self):
        """Random hetero trees, full-mantissa floats: still bitwise.

        ``random_problem`` draws times/bytes with ``rng.uniform`` —
        sums of those round, so any accumulation-order deviation in the
        vectorized path lands in the last ulp and fails this test.
        """
        rng = random.Random(0xF107)
        for seed in range(40):
            topology = random_hetero_topology(seed)
            problem = random_problem(topology, seed)
            evaluator = BatchEvaluator(EvalKernel(problem))
            pop = _random_population(problem, rng, 9)
            assert evaluator.batch_tmax(pop) == [
                problem.tmax(a) for a in pop
            ], seed

    def test_empty_population(self, corpus_problems):
        _label, problem = corpus_problems[0]
        assert BatchEvaluator(EvalKernel(problem)).batch_tmax([]) == []

    def test_singleton_population(self, corpus_problems):
        for label, problem in corpus_problems[:3]:
            evaluator = BatchEvaluator(EvalKernel(problem))
            assignment = [0] * problem.num_partitions
            assert evaluator.batch_tmax([assignment]) == [
                problem.tmax(assignment)
            ], label

    def test_population_sizes_dont_interact(self):
        """Per-N cached buffers: interleaving sizes changes nothing."""
        problem = random_problem(random_hetero_topology(3), 3)
        evaluator = BatchEvaluator(EvalKernel(problem))
        rng = random.Random(5)
        pops = {n: _random_population(problem, rng, n) for n in (1, 4, 33)}
        want = {
            n: [problem.tmax(a) for a in pop] for n, pop in pops.items()
        }
        for n in (33, 1, 4, 33, 1):  # revisit sizes in scrambled order
            assert evaluator.batch_tmax(pops[n]) == want[n], n

    def test_ndarray_input_accepted(self):
        problem = random_problem(random_hetero_topology(7), 7)
        evaluator = BatchEvaluator(EvalKernel(problem))
        pop = _random_population(problem, random.Random(7), 6)
        matrix = np.asarray(pop, dtype=np.int64)
        assert evaluator.batch_tmax(matrix) == evaluator.batch_tmax(pop)

    def test_shape_errors(self):
        problem = random_problem(random_hetero_topology(1), 1)
        evaluator = BatchEvaluator(EvalKernel(problem))
        bad_width = [[0] * (problem.num_partitions + 1)]
        with pytest.raises(ValueError, match="num_partitions"):
            evaluator.batch_tmax(bad_width)

    def test_gpu_range_errors(self):
        problem = random_problem(random_hetero_topology(2), 2)
        evaluator = BatchEvaluator(EvalKernel(problem))
        bad = [[problem.num_gpus] * problem.num_partitions]
        with pytest.raises(ValueError, match="out of range"):
            evaluator.batch_tmax(bad)
        neg = [[-1] * problem.num_partitions]
        with pytest.raises(ValueError, match="out of range"):
            evaluator.batch_tmax(neg)


# ----------------------------------------------------------------------
# hypothesis fuzz: arbitrary populations on a fixed adversarial problem
# ----------------------------------------------------------------------
_FUZZ_PROBLEM = random_problem(random_hetero_topology(11), 11)
_FUZZ_EVALUATOR = BatchEvaluator(EvalKernel(_FUZZ_PROBLEM))


class TestBatchFuzz:
    @given(
        pop=st.lists(
            st.lists(
                st.integers(0, _FUZZ_PROBLEM.num_gpus - 1),
                min_size=_FUZZ_PROBLEM.num_partitions,
                max_size=_FUZZ_PROBLEM.num_partitions,
            ),
            min_size=0, max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_any_population_bit_identical(self, pop):
        assert _FUZZ_EVALUATOR.batch_tmax(pop) == [
            _FUZZ_PROBLEM.tmax(a) for a in pop
        ]


# ----------------------------------------------------------------------
# canonical-fold mutation guard
# ----------------------------------------------------------------------
def _reversed_fold(col, pids, start=0.0):
    """The mutant: same terms, opposite order (and start added last)."""
    total = 0.0
    for pid in reversed(list(pids)):
        total += col(pid)
    return total + start


def _probe_divergence(problem):
    """Max |score_move - interpreted| over a move sweep."""
    kernel = EvalKernel(problem)
    assignment = [pid % problem.num_gpus
                  for pid in range(problem.num_partitions)]
    state = DeltaEvaluator(kernel, assignment)
    worst = 0.0
    for pid in range(problem.num_partitions):
        for gpu in range(problem.num_gpus):
            if gpu == assignment[pid]:
                continue
            probed = state.score_move(pid, gpu)
            trial = list(assignment)
            trial[pid] = gpu
            worst = max(worst, abs(probed - problem.tmax(trial)))
    return worst


class TestCanonicalFold:
    #: compute times whose left fold rounds differently in reverse, so
    #: a reordered fold shows up in the last ulp
    _TIMES = [0.786, 0.3103, 0.4818, 0.5875, 0.909, 0.5096]

    def _problem(self):
        return MappingProblem(
            times=list(self._TIMES), edges={},
            host_io=[(0.0, 0.0)] * len(self._TIMES),
            topology=default_topology(2),
        )

    def test_times_are_order_sensitive(self):
        # the fixture must actually expose fold order, or the mutation
        # test below would vacuously pass
        assert sum(self._TIMES) != _reversed_fold(
            self._TIMES.__getitem__, range(len(self._TIMES))
        )

    def test_score_move_exact_with_canonical_fold(self):
        assert _probe_divergence(self._problem()) == 0.0
        for seed in range(10):
            problem = random_problem(random_hetero_topology(seed), seed)
            if problem.num_gpus >= 2:
                assert _probe_divergence(problem) == 0.0, seed

    def test_score_move_mutant_fold_diverges(self, monkeypatch):
        """Reversing the shared fold must break delta-scoring exactness."""
        monkeypatch.setattr(
            kernel_mod, "canonical_gpu_fold", _reversed_fold
        )
        assert _probe_divergence(self._problem()) > 0.0
