"""Communication-aware partition-to-GPU mapping (Section 3.2).

* :mod:`repro.mapping.problem` -- the mapping problem (Eqs. III.1-III.7)
  and the shared assignment evaluator,
* :mod:`repro.mapping.solver_milp` -- MILP backend (scipy / HiGHS),
* :mod:`repro.mapping.milp_model` -- the persistent compiled MILP model
  (compile once per structural signature, rebind the numeric payload,
  warm-start HiGHS from an incumbent via a MIP start),
* :mod:`repro.mapping.solver_bb` -- from-scratch branch-and-bound backend,
* :mod:`repro.mapping.greedy` -- communication-unaware baselines (the
  previous work's workload balancing, round-robin),
* :mod:`repro.mapping.kernel` -- the compiled evaluation kernel
  (precomputed route tables, O(degree) incremental delta scoring),
* :mod:`repro.mapping.batch` -- vectorized population scoring over the
  kernel's tables (NumPy structure-of-arrays; no solver uses it, the
  benchmark's batch-throughput probe measures it),
* :mod:`repro.mapping.repair` -- incremental re-mapping after a
  platform delta (seed from the old assignment, evict the stranded,
  polish under ``tmax + alpha * migration_bytes``),
* :mod:`repro.mapping.result` -- mapping results and their breakdowns,
* :mod:`repro.mapping.budget` -- deterministic solve budgets shared by
  every backend (and the escalation tiers of the service portfolio).
"""

from repro.mapping.batch import BatchEvaluator
from repro.mapping.budget import BUDGET_TIERS, TIER_ORDER, SolveBudget
from repro.mapping.greedy import (
    contiguous_mapping,
    lpt_mapping,
    round_robin_mapping,
)
from repro.mapping.kernel import (
    DeltaEvaluator,
    EvalKernel,
    canonical_gpu_fold,
    compile_kernel,
)
from repro.mapping.milp_model import (
    MODEL_CACHE,
    CompiledMilpModel,
    MilpModelCache,
    milp_signature,
)
from repro.mapping.problem import Broadcast, MappingProblem, build_mapping_problem
from repro.mapping.refine import refine_mapping
from repro.mapping.repair import (
    REPAIR_ALPHA,
    RepairResult,
    migration_cost_bytes,
    solve_repair,
    translate_assignment,
)
from repro.mapping.result import MappingResult
from repro.mapping.solver_bb import solve_branch_and_bound
from repro.mapping.solver_milp import MilpNoIncumbent, solve_milp

__all__ = [
    "BUDGET_TIERS",
    "BatchEvaluator",
    "Broadcast",
    "CompiledMilpModel",
    "DeltaEvaluator",
    "EvalKernel",
    "MODEL_CACHE",
    "MappingProblem",
    "MappingResult",
    "MilpModelCache",
    "MilpNoIncumbent",
    "REPAIR_ALPHA",
    "RepairResult",
    "SolveBudget",
    "TIER_ORDER",
    "build_mapping_problem",
    "canonical_gpu_fold",
    "compile_kernel",
    "contiguous_mapping",
    "lpt_mapping",
    "migration_cost_bytes",
    "milp_signature",
    "refine_mapping",
    "round_robin_mapping",
    "solve_branch_and_bound",
    "solve_milp",
    "solve_repair",
    "translate_assignment",
]
