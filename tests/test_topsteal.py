from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    canon_digest,
    random_additive,
    random_coverage,
    random_submodular_table,
    random_topsteal_instance,
    random_weights,
    reference_top_steal,
    seeded,
    topsteal_outcome,
)
from sspeq.auction import is_pure_nash_no_overbid, welfare
from sspeq.stealing import find_steal
from sspeq.topsteal import (
    ErasedValuation,
    MarginalValuation,
    compose_top_item,
    competitor_info,
    preprocess_to_competitors,
    steal_count_bound,
    top_steal,
)
from sspeq.valuations import (
    AdditiveValuation,
    BudgetAdditiveValuation,
    DomainError,
    TableValuation,
    XOSExplicitValuation,
)

CASES = {
    "pin_top_item",
    "single_item",
    "stable_bids",
    "steal_then_recurse",
    "erased_stable",
    "erase_then_steal",
}


def test_marginal_valuation_conditions_on_item():
    v = AdditiveValuation(2, (3, 1))
    mv = MarginalValuation(v, 1)
    assert mv.value({0}) == 3
    assert mv.value(frozenset()) == 0
    assert mv.ledger is v.ledger


def test_marginal_valuation_counts_its_offset_and_checks_the_item():
    v = AdditiveValuation(2, (Fraction(3, 2), 1))
    mv = MarginalValuation(v, 0)
    assert mv.offset == Fraction(3, 2)
    assert v.ledger.value == 1
    for item in (2, -1):
        with pytest.raises(DomainError):
            MarginalValuation(v, item)


def test_erased_valuation_ignores_items():
    v = AdditiveValuation(2, (3, 1))
    ev = ErasedValuation(v, {0})
    assert ev.value({0, 1}) == 1
    assert ev.value({0}) == 0


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_marginal_and_erased_match_their_bases(seed):
    rng = seeded(seed)
    m = rng.randint(1, 6)
    budget = rng.randint(0, 30) + Fraction(rng.randint(1, 5), 6)
    for base in (
        random_additive(rng, m, den=6),
        BudgetAdditiveValuation(m, budget, random_weights(rng, m)),
        random_coverage(rng, m, den=6),
        random_submodular_table(rng, m),
        XOSExplicitValuation(m, [random_weights(rng, m) for _ in range(rng.randint(1, 3))]),
    ):
        item = rng.randrange(m)
        erased = frozenset(j for j in range(m) if rng.random() < 0.5)
        mv, ev = MarginalValuation(base, item), ErasedValuation(base, erased)
        for mask in range(1 << m):
            S = frozenset(j for j in range(m) if mask >> j & 1)
            assert mv.value(S) == base.value(S | {item}) - base.value({item})
            assert ev.value(S) == base.value(S - erased)


def test_competitor_info():
    vs = [AdditiveValuation(2, (2, 0)), AdditiveValuation(2, (2, 1))]
    info = competitor_info(vs, range(2))
    assert info[0] == {"competitors": [0, 1], "top": [0, 1], "top_value": 2}
    assert info[1] == {"competitors": [1], "top": [1], "top_value": 1}


@pytest.mark.parametrize("items", [[5], [-1], [0, 2]])
def test_competitor_info_rejects_items_outside_the_bidders(items):
    vs = [AdditiveValuation(2, (2, 0)), AdditiveValuation(2, (2, 1))]
    with pytest.raises(DomainError):
        competitor_info(vs, items)


def test_preprocess_moves_to_top_competitor():
    vs = [AdditiveValuation(2, (0, 0)), AdditiveValuation(2, (4, 0))]
    alloc, ignorable = preprocess_to_competitors(vs, ({0, 1}, set()))
    assert alloc == (frozenset({1}), frozenset({0}))
    assert ignorable == {1}


def test_preprocess_leaves_items_nobody_holds():
    # item 1 is valued by bidder 0 but held by no one: it stays unheld
    vs = [AdditiveValuation(2, (0, 1)), AdditiveValuation(2, (4, 0))]
    alloc, ignorable = preprocess_to_competitors(vs, ({0}, set()))
    assert alloc == (frozenset(), frozenset({0}))
    assert ignorable == frozenset()


def test_steal_count_bound_values():
    assert steal_count_bound(5, 2) == 5
    assert steal_count_bound(5, 3) == 20
    assert steal_count_bound(8, 3) == 44
    assert steal_count_bound(8, 1) == 0


@pytest.mark.parametrize("t", [0, -1])
def test_steal_count_bound_rejects_t_below_one(t):
    with pytest.raises(DomainError, match="need t >= 1"):
        steal_count_bound(5, t)


@pytest.mark.parametrize("m", [0, -5])
def test_steal_count_bound_rejects_m_below_one(m):
    with pytest.raises(DomainError, match="need at least one item"):
        steal_count_bound(m, 2)


def test_compose_top_item():
    alloc, bids = compose_top_item(
        (frozenset(), frozenset({1})), ((0, 0), (0, 2)), 0, 0, Fraction(3)
    )
    assert alloc == (frozenset({0}), frozenset({1}))
    assert bids == ((3, 0), (0, 2))


def test_top_steal_frozen_trace():
    vs = [AdditiveValuation(2, (3, 1)), AdditiveValuation(2, (2, 2))]
    run = top_steal(vs, ({1}, {0}), t=2)
    assert run.steals == [(0, 1, 0), (1, 0, 1)]
    assert run.alloc == (frozenset({0}), frozenset({1}))
    assert run.bids == ((3, 0), (0, 2))
    assert [node.case for node in run.trace.walk()] == [
        "steal_then_recurse",
        "pin_top_item",
        "single_item",
    ]
    assert run.trace.steals_total() == 2


def test_top_steal_requires_covering_allocation():
    vs = [AdditiveValuation(2, (1, 1)), AdditiveValuation(2, (1, 1))]
    with pytest.raises(DomainError):
        top_steal(vs, ({0}, set()), t=2)


def test_top_steal_rejects_small_t():
    vs = [AdditiveValuation(1, (1,)) for _ in range(3)]
    with pytest.raises(DomainError):
        top_steal(vs, ({0}, set(), set()), t=2)
    with pytest.raises(DomainError):
        top_steal(vs, ({0}, set(), set()), t=1)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_two_restricted_runs_settle_within_m(seed):
    rng = seeded(seed)
    m = rng.randint(2, 5)
    vs = [random_submodular_table(rng, m) for _ in range(2)]
    init = [set(), set()]
    for j in range(m):
        init[rng.randrange(2)].add(j)
    run = top_steal(vs, init, t=2)
    assert len(run.steals) <= steal_count_bound(m, 2)
    assert all(node.case in CASES for node in run.trace.walk())
    assert find_steal(vs, run.alloc, run.bids) is None
    ok, witnesses = is_pure_nash_no_overbid(vs, run.bids)
    assert ok, witnesses


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_three_restricted_runs_settle_within_bound(seed):
    rng = seeded(seed)
    m = rng.randint(2, 4)
    vs = [random_submodular_table(rng, m) for _ in range(3)]
    init = [set(), set(), set()]
    for j in range(m):
        init[rng.randrange(3)].add(j)
    run = top_steal(vs, init, t=3)
    assert len(run.steals) <= steal_count_bound(m, 3)
    ok, witnesses = is_pure_nash_no_overbid(vs, run.bids)
    assert ok, witnesses


def test_top_steal_from_greedy_keeps_greedy_welfare():
    from sspeq.auction import greedy_allocation

    rng = seeded(99)
    for _ in range(10):
        m = rng.randint(2, 4)
        vs = [random_submodular_table(rng, m) for _ in range(2)]
        init = greedy_allocation(vs)
        run = top_steal(vs, init, t=2)
        assert welfare(vs, run.alloc) >= welfare(vs, init)


@given(st.integers(0, 10_000), st.sampled_from([2, 3]))
@settings(max_examples=40, deadline=None)
def test_top_steal_is_scale_free(seed, t):
    # dividing every value by 21 leaves each bidder a denominator among 1, 3,
    # 7 and 21: the run must be the same, with every bid divided by 21
    rng = seeded(seed)
    m = rng.randint(2, 5)
    vs = [random_submodular_table(rng, m) for _ in range(t)]
    init = [set() for _ in range(t)]
    for j in range(m):
        init[rng.randrange(t)].add(j)
    scaled = [TableValuation(m, [v._value_mask(t) / 21 for t in range(1 << m)]) for v in vs]
    run, small = top_steal(vs, init, t=t), top_steal(scaled, init, t=t)
    assert (small.alloc, small.steals) == (run.alloc, run.steals)
    assert [node.case for node in small.trace.walk()] == [node.case for node in run.trace.walk()]
    assert small.bids == tuple(tuple(x / 21 for x in row) for row in run.bids)
    assert [v.ledger.snapshot() for v in scaled] == [v.ledger.snapshot() for v in vs]


@given(st.integers(0, 2**32))
@example(4735)
@example(9184)
@example(3701947)
@settings(max_examples=150, deadline=None)
def test_top_steal_matches_the_reference_recursion(seed):
    # tables, coverage, explicit XOS, additive and budget-additive bidders,
    # n = 2..4, t = 2..n: the same allocation, bids, steals, trace nodes and
    # ledger charges as the recursion that asks every singleton at every level.
    # On the three examples a pin lifts a non-submodular table's marginal
    # singletons above the t-restriction; both raise the same DomainError
    assert topsteal_outcome(top_steal, *random_topsteal_instance(seeded(seed))) == topsteal_outcome(
        reference_top_steal, *random_topsteal_instance(seeded(seed))
    )


# recorded before the recursion read its singletons from rows
TOP_STEAL_300_DIGEST = "841c7e367d3799fcbc75c28b10e141284298c12412b6d2b61975d554438a8961"


def test_top_steal_300_instances_frozen():
    outcomes = [topsteal_outcome(top_steal, *random_topsteal_instance(seeded(s))) for s in range(300)]
    assert canon_digest(outcomes) == TOP_STEAL_300_DIGEST
    assert {case for out in outcomes for case, *_ in out[3]} == CASES
