"""Pure equilibria in simultaneous second-price auctions: algorithms,
dynamics, and query adversaries, all in exact rational arithmetic."""

from .money import Money, checked_money, format_money, parse_money
from .valuations import (
    AdditiveValuation,
    BudgetAdditiveValuation,
    CapabilityError,
    ConstructionError,
    CoverageValuation,
    DomainError,
    QueryLedger,
    TableValuation,
    Valuation,
    XOSExplicitValuation,
    valuation_from_json,
    verify_class,
)
from .auction import (
    best_deviation,
    greedy_allocation,
    is_pure_nash_no_overbid,
    is_traditional,
    optimal_welfare,
    resolve,
    welfare,
)
from .stealing import (
    budget_additive_steal_bound,
    run_budget_additive_stealing,
    run_iterative_stealing,
)
from .topsteal import TopStealDiagnostic, steal_count_bound, top_steal
from .xos_dynamics import (
    GrayValuation,
    build_exponential_instance,
    dynamic_trace_audit,
    gray_middle_levels,
    run_best_reply_dynamic,
)
from .hardness import (
    OddGraphAdversary,
    SEARCHERS,
    SensitiveValuation,
    adversary_audit,
    isoperimetric_check,
    query_lower_bound,
    sparse_demand_oracle,
)
from .reductions import (
    SetPairSystem,
    SetPairValuation,
    WeightedGraph,
    build_good_set_pair_system,
    equilibrium_witness,
    find_unprotected_set,
    local_max_bids,
    local_max_check,
    maxcut_valuation,
    star_gap_instance,
    verify_set_pair_system,
)

__version__ = "0.1.0"
