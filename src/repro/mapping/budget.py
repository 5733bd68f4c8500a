"""Deterministic solve budgets for the mapping solvers.

The MILP backend historically ran under a 10-second *wall-clock* limit,
which made large instances irreproducible: the same instance solved on a
loaded machine could time out at a different incumbent than on an idle
one.  A :class:`SolveBudget` replaces that with *deterministic* work
caps — a branch-and-bound node limit for HiGHS, a search-node limit for
the from-scratch solver, a local-search step limit for the refiner — so
two runs of the same instance always do the same work and return the
same mapping.  Wall-clock limits still exist, but only as an explicit
opt-in (the ``time_limit_s`` field, or the ``REPRO_MILP_TIME_LIMIT_S``
environment variable for the old behaviour).

Budgets are also the currency of the anytime solver portfolio
(:mod:`repro.service.portfolio`): the named *tiers* below form an
escalation ladder — each tier is a strict superset of the work of the
one before it, which is what makes the portfolio's answer quality
monotone in the budget.

=========== ============================================================
``instant`` greedy heuristics + local search only; microseconds
``small``   adds a bounded branch-and-bound improvement pass
``default`` adds the MILP under its deterministic node cap
``ample``   MILP with a large node cap and a zero optimality gap
=========== ============================================================

>>> BUDGET_TIERS["instant"].use_milp, BUDGET_TIERS["ample"].mip_rel_gap
(False, 0.0)
>>> SolveBudget.tier("default").name
'default'
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, replace
from typing import Dict, Optional

#: deterministic HiGHS node cap of the default budget — the amount of
#: search the old 10 s wall-clock limit bought on the reference 1-core
#: box, now load-independent: per-instance solve times stay within a
#: few seconds of the historical ones (DES-16 g4 explores ~150 nodes
#: either way; perma-hard instances like DES-4 g4 stop in ~3 s instead
#: of burning the full 10 s).  Capped solves return a near-optimal
#: incumbent (~0.6-3% gap on the paper instances) that the flow's
#: heuristic fallback polishes, exactly like a wall-clock timeout did.
#: Callers who want proofs use the ``ample`` tier's 200k-node cap —
#: the differential harness and the portfolio's top tier do.
DEFAULT_MILP_NODE_LIMIT = 150

#: environment variable restoring an (irreproducible) wall-clock limit
WALL_CLOCK_ENV = "REPRO_MILP_TIME_LIMIT_S"

#: retired metaheuristic knobs at zero: stored request/cache keys embed them
_RETIRED_KEY_PARTS = {"mh_rounds": 0, "mh_population": 0, "mh_seed": 0}


def normalize_wall_clock(value) -> Optional[float]:
    """Canonicalize a wall-clock cap: empty/zero mean *unset*.

    ``REPRO_MILP_TIME_LIMIT_S=0`` used to slip through the env var's
    string-truthiness check as ``time_limit_s=0.0``, which the solver
    then silently ignored — while still perturbing every cache key that
    embeds :meth:`SolveBudget.key_parts`.  All wall-clock inputs (env
    var, ``with_wall_clock``, direct construction) funnel through here: ``None``, empty/blank
    strings, and ``0`` all normalize to ``None`` (no limit); negative
    values are rejected.

    >>> normalize_wall_clock(None), normalize_wall_clock(""), normalize_wall_clock("0")
    (None, None, None)
    >>> normalize_wall_clock(0), normalize_wall_clock(2.5)
    (None, 2.5)
    >>> normalize_wall_clock(-1)
    Traceback (most recent call last):
        ...
    ValueError: wall-clock limit must be >= 0, got -1.0
    """
    if value is None:
        return None
    if isinstance(value, str):
        value = value.strip()
        if not value:
            return None
    value = float(value)
    if value < 0:
        raise ValueError(f"wall-clock limit must be >= 0, got {value}")
    if value == 0:
        return None
    return value


@dataclass(frozen=True)
class SolveBudget:
    """How much work each solver stage of a mapping solve may spend.

    All limits are deterministic (node/step counts), so equal budgets on
    equal instances produce equal mappings.  ``time_limit_s`` adds a
    wall-clock cap on the MILP *on top of* the node cap — it is ``None``
    by default and should stay opt-in, because it reintroduces
    machine-load-dependent results.

    ``use_bb`` / ``use_milp`` gate whole portfolio stages; the plain
    ``ilp`` mapper only reads the MILP fields.

    The field defaults *are* the ``default`` tier, so a caller
    customizing one knob (``SolveBudget(milp_node_limit=500)``) keeps
    every other limit exactly as documented for that tier:

    >>> SolveBudget() == SolveBudget.tier("default")
    True
    """

    #: tier label ("instant", "small", "default", "ample", or "custom")
    name: str = "default"
    #: HiGHS branch-and-bound node cap (``None`` = unlimited)
    milp_node_limit: Optional[int] = DEFAULT_MILP_NODE_LIMIT
    #: opt-in wall-clock cap in seconds (``None`` = no wall-clock limit)
    time_limit_s: Optional[float] = None
    #: MILP relative optimality gap
    mip_rel_gap: float = 0.01
    #: search-node cap of the from-scratch branch-and-bound solver
    bb_node_limit: int = 20_000
    #: local-search step cap of the refinement pass
    refine_steps: int = 64
    #: whether the portfolio runs the branch-and-bound stage
    use_bb: bool = True
    #: whether the portfolio runs the MILP stage
    use_milp: bool = True

    def __post_init__(self) -> None:
        # one normalization point: every construction path (tiers, env
        # var, with_wall_clock, replace()) lands here, so a zero cap can
        # never leak into cache keys
        object.__setattr__(
            self, "time_limit_s", normalize_wall_clock(self.time_limit_s)
        )

    @classmethod
    def tier(cls, name: str) -> "SolveBudget":
        """The named budget tier.

        >>> SolveBudget.tier("small").use_milp
        False
        >>> SolveBudget.tier("warp")
        Traceback (most recent call last):
            ...
        ValueError: unknown budget tier 'warp'; known: ample, default, instant, small
        """
        try:
            return BUDGET_TIERS[name]
        except KeyError:
            raise ValueError(
                f"unknown budget tier {name!r}; "
                f"known: {', '.join(sorted(BUDGET_TIERS))}"
            ) from None

    @classmethod
    def default(cls) -> "SolveBudget":
        """The default budget, honouring the wall-clock opt-in.

        With ``REPRO_MILP_TIME_LIMIT_S`` set in the environment, the
        returned budget carries that wall-clock cap (the pre-budget
        behaviour); otherwise it is the deterministic ``default`` tier.
        The value passes :func:`normalize_wall_clock`, so ``"0"`` and
        ``""`` mean "no limit" rather than a zero-second cap.

        >>> SolveBudget.default().name
        'default'
        """
        budget = BUDGET_TIERS["default"]
        wall = normalize_wall_clock(os.environ.get(WALL_CLOCK_ENV))
        if wall is not None:
            budget = replace(budget, time_limit_s=wall)
        return budget

    def with_wall_clock(self, time_limit_s: Optional[float]) -> "SolveBudget":
        """A copy carrying an explicit wall-clock cap (normalized — a
        zero/empty cap unsets the limit, negatives raise).

        >>> SolveBudget.tier("ample").with_wall_clock(5.0).time_limit_s
        5.0
        >>> SolveBudget.tier("ample").with_wall_clock(0) == SolveBudget.tier("ample")
        True
        """
        return replace(self, time_limit_s=normalize_wall_clock(time_limit_s))

    def key_parts(self) -> Dict[str, object]:
        """The budget as cache-key knobs (see :func:`repro.flow.stage_key`).

        Wall-clock caps are deliberately part of the key: a time-limited
        solve is not interchangeable with a deterministic one.

        >>> SolveBudget.tier("default").key_parts()["milp_node_limit"]
        150
        """
        return {**asdict(self), **_RETIRED_KEY_PARTS}


#: the portfolio's escalation ladder, cheapest first; each tier does a
#: strict superset of the previous tier's work (anytime monotonicity)
BUDGET_TIERS: Dict[str, SolveBudget] = {
    "instant": SolveBudget(
        name="instant", use_bb=False, use_milp=False, refine_steps=64,
    ),
    "small": SolveBudget(
        name="small", use_milp=False, bb_node_limit=20_000, refine_steps=64,
    ),
    "default": SolveBudget(),  # the field defaults, by construction
    "ample": SolveBudget(
        name="ample", bb_node_limit=2_000_000,
        milp_node_limit=200_000, mip_rel_gap=0.0, refine_steps=256,
    ),
}

#: tier names ordered cheapest -> most thorough
TIER_ORDER = ("instant", "small", "default", "ample")
