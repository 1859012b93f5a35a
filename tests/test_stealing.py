from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    canon_digest,
    random_budget_additive,
    random_submodular_table,
    random_table,
    seeded,
)
from sspeq.auction import is_pure_nash_no_overbid
from sspeq.stealing import (
    STEAL_BOUND_M_CAP,
    StealCapExceeded,
    budget_additive_steal_bound,
    classify_loose_tight,
    compute_bids,
    find_steal,
    granularity_steal_bound,
    marginal_diversity,
    owner_first,
    pseudo_poly_steal_bound,
    run_budget_additive_stealing,
    run_iterative_stealing,
)
from sspeq.valuations import (
    AdditiveValuation,
    BudgetAdditiveValuation,
    CapabilityError,
    CoverageValuation,
    TableValuation,
)


def two_bidder_instance():
    return [AdditiveValuation(2, (3, 1)), AdditiveValuation(2, (2, 2))]


def test_frozen_two_steal_trace():
    vs = two_bidder_instance()
    run = run_iterative_stealing(vs, ({1}, {0}))
    ev = run.log.events
    assert [(e.thief, e.victim, e.item) for e in ev] == [(0, 1, 0), (1, 0, 1)]
    assert [(e.welfare_before, e.welfare_after) for e in ev] == [(3, 4), (4, 5)]
    assert ev[0].prices_after == (3, 1)
    assert ev[1].prices_after == (3, 2)
    assert run.alloc == (frozenset({0}), frozenset({1}))
    assert run.bids == ((3, 0), (0, 2))


def test_marginal_bids_follow_ordering():
    v = BudgetAdditiveValuation(2, 3, (2, 2))
    assert compute_bids([v], ({0, 1},), [[0, 1]]) == ((2, 1),)
    assert compute_bids([v], ({0, 1},), [[1, 0]]) == ((1, 2),)


def test_find_steal_is_lexicographic():
    vs = [AdditiveValuation(2, (5, 5)), AdditiveValuation(2, (1, 1))]
    bids = compute_bids(vs, ({}, {0, 1}), owner_first(({}, {0, 1}), 2))
    assert find_steal(vs, (frozenset(), frozenset({0, 1})), bids) == (0, 1, 0)


def test_step_cap_raises_with_partial_log():
    vs = two_bidder_instance()
    with pytest.raises(StealCapExceeded) as err:
        run_iterative_stealing(vs, ({1}, {0}), step_cap=1)
    assert err.value.log.steals() == 1


def test_static_policy_also_settles():
    vs = two_bidder_instance()
    run = run_iterative_stealing(vs, ({1}, {0}), policy="static")
    assert find_steal(vs, run.alloc, run.bids) is None


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_stealing_increases_welfare_and_settles_at_equilibrium(seed):
    rng = seeded(seed)
    n, m = rng.randint(2, 3), rng.randint(2, 5)
    vs = [random_submodular_table(rng, m) for _ in range(n)]
    init = [set() for _ in range(n)]
    for j in range(m):
        init[rng.randrange(n)].add(j)
    run = run_iterative_stealing(vs, init)
    last = None
    for e in run.log.events:
        assert e.welfare_after > e.welfare_before
        if last is not None:
            assert e.welfare_before == last
        last = e.welfare_after
    # each bidder's owned items form a prefix of its item order
    assert all(set(order[: len(S)]) == S for order, S in zip(run.orders, run.alloc))
    ok, witnesses = is_pure_nash_no_overbid(vs, run.bids)
    assert ok, witnesses


def test_loose_tight_tags_frozen():
    v = BudgetAdditiveValuation(2, 3, (2, 2))
    alloc = (frozenset({0, 1}),)
    bids = compute_bids([v], alloc, [[0, 1]])
    assert classify_loose_tight([v], alloc, bids) == {0: "tight", 1: "loose"}
    w = BudgetAdditiveValuation(2, 2, (2, 2))
    bids = compute_bids([w], alloc, [[0, 1]])
    assert classify_loose_tight([w], alloc, bids) == {0: "tight", 1: "strongly_loose"}


def test_budget_additive_bound_value():
    assert budget_additive_steal_bound(2, 3) == 51


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_budget_additive_run_tags_and_bound(seed):
    rng = seeded(seed)
    n, m = rng.randint(2, 3), rng.randint(2, 5)
    vs = [random_budget_additive(rng, m) for _ in range(n)]
    init = [set() for _ in range(n)]
    for j in range(m):
        init[rng.randrange(n)].add(j)
    run = run_budget_additive_stealing(vs, init)
    assert run.log.steals() <= budget_additive_steal_bound(n, m)
    for e in run.log.events:
        assert e.tag in ("loose", "tight", "strongly_loose")
        assert e.welfare_after > e.welfare_before
    assert find_steal(vs, run.alloc, run.bids) is None


# sha256 of the full runs of budget-additive stealing on 20 seeded instances
# (n = 3, m = 12): event logs, final state and ledgers, recorded from the
# Fraction-arithmetic loop.
BUDGET_RUNS_DIGEST = "0575e7a2356c3a88ffda393918d4afbc67b49b9c7c7b3b065bf9cf2d3516f967"


def budget_runs():
    runs = []
    for seed in range(20):
        rng = seeded(seed)
        vs = [random_budget_additive(rng, 12) for _ in range(3)]
        init = [set() for _ in range(3)]
        for j in range(12):
            init[rng.randrange(3)].add(j)
        run = run_budget_additive_stealing(vs, init)
        events = [
            (e.thief, e.victim, e.item, e.welfare_before, e.welfare_after, e.prices_after, e.tag)
            for e in run.log.events
        ]
        ledgers = [v.ledger.snapshot() for v in vs]
        runs.append((run.log.initial_alloc, run.log.initial_prices, events, run.alloc, run.bids, ledgers))
    return runs


def test_budget_additive_runs_are_pinned():
    runs = budget_runs()
    assert sum(len(events) for _, _, events, _, _, _ in runs) > 0
    assert canon_digest(runs) == BUDGET_RUNS_DIGEST


def test_settlement_bounds_cover_frozen_run():
    vs = two_bidder_instance()
    run = run_iterative_stealing(vs, ({1}, {0}))
    assert pseudo_poly_steal_bound(vs) >= run.log.steals()
    g = granularity_steal_bound(vs)
    assert g is not None and g >= run.log.steals()


@given(seed=st.integers(0, 2**32 - 1), ms=st.lists(st.integers(1, 6), min_size=1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_pseudo_poly_bound_sums_marginal_diversity(seed, ms):
    rng = seeded(seed)
    vs = [TableValuation(m, random_table(rng, m)) for m in ms]
    want = 0
    for v in vs:
        for j in range(v.m):
            marginals = {
                v._value_mask(S | 1 << j) - v._value_mask(S) for S in range(1 << v.m) if not S >> j & 1
            }
            assert marginal_diversity(v, j) == len(marginals)
            want += len(marginals)
    assert pseudo_poly_steal_bound(vs) == want


def test_granularity_bound_none_when_flat():
    vs = [AdditiveValuation(2, (0, 0))]
    assert granularity_steal_bound(vs) is None


def test_settlement_bound_cap_boundary():
    cap = STEAL_BOUND_M_CAP
    path = [(j, j + 1, Fraction(1, 2)) for j in range(cap)]
    v = CoverageValuation(cap, path[: cap - 1])
    # an end vertex adds 1/2 or nothing; an inner one adds 0, 1/2 or 1
    assert marginal_diversity(v, 0) == 2
    assert marginal_diversity(v, 1) == 3
    assert granularity_steal_bound([v]) == cap - 1
    w = CoverageValuation(cap + 1, path)
    with pytest.raises(CapabilityError, match=f"m={cap}"):
        marginal_diversity(w, 0)
    with pytest.raises(CapabilityError, match=f"m={cap}"):
        granularity_steal_bound([v, w])
