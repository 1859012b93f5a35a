from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_demand, random_submodular_table, seeded
from sspeq.auction import is_pure_nash_no_overbid, is_traditional
from sspeq.valuations import (
    DomainError,
    bundle_of,
    check_clause,
    valuation_from_json,
    verify_class,
)
from sspeq.xos_dynamics import (
    AdaptiveGrayOracle,
    GrayValuation,
    build_exponential_instance,
    dynamic_trace_audit,
    gray_middle_levels,
    run_best_reply_dynamic,
)


def test_middle_levels_m3_frozen():
    assert gray_middle_levels(3) == ["100", "101", "001", "011", "010", "110"]


@pytest.mark.parametrize("m,length", [(5, 20), (7, 70)])
def test_middle_levels_structure(m, length):
    strings = gray_middle_levels(m)
    assert len(strings) == length
    assert len(set(strings)) == length
    mp = m // 2
    assert strings[0].count("1") == mp
    for s in strings:
        assert s.count("1") in (mp, mp + 1)
    for a, b in zip(strings, strings[1:]):
        assert sum(x != y for x, y in zip(a, b)) == 1


def test_middle_levels_rejects_even_m():
    with pytest.raises(DomainError):
        gray_middle_levels(4)


def test_gray_valuation_frozen_values():
    v0, v1, _, _ = build_exponential_instance(5)
    assert v0.eps == Fraction(1, 40)
    masks = v1.path_masks
    # sizes drive the value except at the middle level
    assert v1.value({0}) == 1
    assert v1.value({0, 1}) == 2
    assert v1.value({0, 1, 2, 3}) == 3
    assert v1.value({0, 1, 2, 3, 4}) == 3
    # player 1 reads bumps off the path directly, player 0 off complements
    assert v1.value(bundle_of(masks[1])) == Fraction(5, 2) + Fraction(1, 40)
    assert v0.value(bundle_of(v0.full_mask ^ masks[0])) == Fraction(5, 2)
    assert v0.value(bundle_of(v0.full_mask ^ masks[2])) == Fraction(5, 2) + Fraction(2, 40)


def test_gray_valuation_is_submodular():
    v0, v1, _, _ = build_exponential_instance(5)
    for v in (v0, v1):
        ok, witness = verify_class(v, "submodular")
        assert ok, witness


def test_gray_clauses_are_legal_everywhere():
    v0, v1, _, _ = build_exponential_instance(5)
    for v in (v0, v1):
        for mask in range(1, 1 << 5):
            S = bundle_of(mask)
            ok, problem = check_clause(v, S, v.xos_clause(S))
            assert ok, (sorted(S), problem)


def test_gray_designated_item_follows_path():
    _, v1, _, _ = build_exponential_instance(5)
    masks = v1.path_masks
    for q in range(1, len(masks) - 1, 2):
        d = v1.designated_item(masks[q])
        assert masks[q] ^ (1 << d) == masks[q + 1]


def test_gray_eps_domain_guard():
    _, v1, _, _ = build_exponential_instance(5)
    with pytest.raises(DomainError):
        GrayValuation(5, 1, v1.path_masks, Fraction(1, 2))
    with pytest.raises(DomainError):
        GrayValuation(5, 1, v1.path_masks, 0)


def test_gray_json_round_trip():
    v0, _, _, _ = build_exponential_instance(5)
    w = valuation_from_json(v0.to_json())
    for mask in range(1 << 5):
        S = bundle_of(mask)
        assert w.value(S) == v0.value(S)


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_gray_demand_maximizes_profit(seed):
    rng = seeded(seed)
    _, v1, _, _ = build_exponential_instance(5)
    prices = [Fraction(rng.randint(0, 4), rng.randint(1, 8)) for _ in range(5)]
    D = v1.demand(prices)
    _, want_profit = brute_demand(v1, prices)
    got = v1.value(D) - sum((prices[j] for j in D), Fraction(0))
    assert got == want_profit


def test_exponential_dynamic_m5_frozen():
    v0, v1, oracles, init = build_exponential_instance(5)
    assert init == (frozenset({2, 3, 4}), frozenset({0, 1}))
    run = run_best_reply_dynamic(v0, v1, oracles=oracles, init_alloc=init)
    t = run.trace
    assert not t.truncated
    assert t.exchanges() == 19
    assert t.responses == 22
    assert t.initial_sum == Fraction(9, 2)
    # every exchange trades exactly one item and lifts the sum by exactly eps
    prev_alloc, prev_sum = t.initial_alloc, t.initial_sum
    for row in t.rows:
        assert len(prev_alloc[0] ^ row.alloc[0]) == 1
        assert len(prev_alloc[1] ^ row.alloc[1]) == 1
        assert row.winning_sum - prev_sum == Fraction(1, 40)
        prev_alloc, prev_sum = row.alloc, row.winning_sum
    ok, _ = dynamic_trace_audit(t)
    assert ok
    ok, witness = is_traditional((v0, v1), run.alloc, run.bids, oracles=oracles)
    assert ok, witness
    ok, witnesses = is_pure_nash_no_overbid((v0, v1), run.bids)
    assert ok, witnesses
    # the two oracles commit alternating path positions
    assert sorted(oracles[0].k_map.values()) == list(range(0, 20, 2))
    assert sorted(oracles[1].k_map.values()) == list(range(1, 20, 2))


def test_exponential_dynamic_m7_length():
    v0, v1, oracles, init = build_exponential_instance(7)
    run = run_best_reply_dynamic(v0, v1, oracles=oracles, init_alloc=init)
    assert not run.trace.truncated
    assert run.trace.exchanges() == 69
    ok, _ = dynamic_trace_audit(run.trace)
    assert ok


def test_dynamic_requires_init():
    v0, v1, _, _ = build_exponential_instance(5)
    with pytest.raises(DomainError):
        run_best_reply_dynamic(v0, v1)


def test_dynamic_step_cap_marks_truncated():
    v0, v1, oracles, init = build_exponential_instance(5)
    run = run_best_reply_dynamic(v0, v1, oracles=oracles, init_alloc=init, step_cap=3)
    assert run.trace.truncated


def test_adaptive_oracle_records_touches():
    _, v1, _, _ = build_exponential_instance(5)
    oracle = AdaptiveGrayOracle(v1)
    S = bundle_of(v1.path_masks[1])
    oracle.xos_clause(S)
    oracle.xos_clause(S)
    assert oracle.touch_order == [v1.path_masks[1]]
    assert oracle.k_map[v1.path_masks[1]] == 1


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_random_submodular_dynamics_terminate_at_equilibrium(seed):
    rng = seeded(seed)
    m = rng.randint(2, 4)
    v0 = random_submodular_table(rng, m)
    v1 = random_submodular_table(rng, m)
    init = [set(), set()]
    for j in range(m):
        init[rng.randrange(2)].add(j)
    run = run_best_reply_dynamic(v0, v1, init_alloc=init)
    assert not run.trace.truncated
    ok, _ = dynamic_trace_audit(run.trace)
    assert ok
    ok, witness = is_traditional((v0, v1), run.alloc, run.bids)
    assert ok, witness
    ok, witnesses = is_pure_nash_no_overbid((v0, v1), run.bids)
    assert ok, witnesses
